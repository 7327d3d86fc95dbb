"""Line-delimited JSON logs: the public event stream and the query audit trail.

Records are canonicalized (sorted keys, no whitespace) so that runs with
the same seed produce byte-identical logs. A log renders each record once,
when it is appended, and keeps the line. `find_hex` searches a text for
many hex strings in one pass; `HexNeedles` holds the strings and their
word table, built once for any number of texts.
"""

import json
from typing import Dict, Iterable, List, Set

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# `find_hex` reads the lowercased text as 8-byte words, one every _STRIDE
# characters. Wherever a needle of at least _HEAD characters occurs, one
# of those words lies inside it at an offset below _STRIDE, so looking
# each word up among the needles' words at offsets 0.._STRIDE-1 finds
# every occurrence.
_WORD = 8
_STRIDE = 16
_HEAD = _STRIDE + _WORD  # the needle characters the table reads
_WINDOW = 1 << 14  # characters lowercased and read at once; a multiple of _STRIDE


def hx(data: bytes) -> str:
    return "0x" + bytes(data).hex()


def unhx(text: str) -> bytes:
    return bytes.fromhex(text[2:] if text.startswith("0x") else text)


def canonical(record: dict) -> str:
    return _CANONICAL.encode(record)


class HexNeedles:
    """Needles for `find_hex` with their word table, built once so that
    several texts can be searched for them. A needle is lowercase hex of
    at least _HEAD (24) characters, such as a 20-byte address's or a
    32-byte key's `bytes.hex()`; one that is shorter or not ASCII raises
    ValueError."""

    def __init__(self, needles: Iterable[str]):
        self.needles = set(needles)
        for needle in self.needles:
            if len(needle) < _HEAD or not needle.isascii():
                raise ValueError("hex needle %r is not ASCII of at least %d characters"
                                 % (needle, _HEAD))
        self.table = _anchor_table(self.needles) if self.needles else {}
        self.lengths = sorted({len(n) for n in self.needles})


def find_hex(text: str, needles: HexNeedles) -> Set[str]:
    """The needles that occur in `text.lower()`, from one pass over `text`:
    `needle in result` is `needle in text.lower()`.

    The text is read once, a window at a time, whatever the number of
    needles; one table holds _STRIDE words per needle, and each word hit
    is checked against the text.
    """
    if not text.isascii():
        text = text.lower()  # lowering can change the length of non-ASCII text
    found: Set[str] = set()
    anchors = needles.table
    if not anchors:
        return found
    for start in range(0, len(text), _WINDOW):
        window = text[start:start + _WINDOW].lower().encode("ascii", "replace")
        whole = memoryview(window)[:len(window) - len(window) % _WORD]
        words = whole.cast("Q")[::_STRIDE // _WORD]
        if anchors.keys().isdisjoint(words):
            continue
        for k, word in enumerate(words):
            mask = anchors.get(word)
            if mask is None:
                continue
            at = start + k * _STRIDE
            for j in range(min(_STRIDE, at + 1)):
                if mask >> j & 1:
                    for length in needles.lengths:
                        candidate = text[at - j:at - j + length].lower()
                        if candidate in needles.needles:
                            found.add(candidate)
    return found


def _anchor_table(needles) -> Dict[int, int]:
    """word -> a mask with bit j set when some needle holds that word at
    offset j. The heads of the needles are packed _HEAD bytes apart, so
    the words at one offset are read as one strided view."""
    heads = b"".join(n[:_HEAD].encode("ascii") for n in needles)
    span = _HEAD * (len(needles) - 1) + _WORD
    table: Dict[int, int] = {}
    for j in range(_STRIDE):
        words = dict.fromkeys(
            memoryview(heads[j:j + span]).cast("Q")[::_HEAD // _WORD], 1 << j)
        for word in words.keys() & table.keys():  # rare: one word at two offsets
            words[word] |= table[word]
        table.update(words)
    return table


class JsonlLog:
    """Records and their canonical lines, each line rendered once, when
    its record is appended; a record is not changed after that."""

    def __init__(self):
        self.records: List[dict] = []
        self.lines: List[str] = []

    def append(self, record: dict) -> dict:
        record = dict(record)
        record["seq"] = len(self.records)
        self.records.append(record)
        self.lines.append(canonical(record))
        return record

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")

    def __len__(self) -> int:
        return len(self.records)


class EventLog(JsonlLog):
    """Public event stream emitted by the execution environment."""


class AuditLog(JsonlLog):
    """One record per settlement-layer query, including failed ones."""
