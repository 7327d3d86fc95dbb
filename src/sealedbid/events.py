"""Line-delimited JSON logs: the public event stream and the query audit trail.

Records are canonicalized (sorted keys, no whitespace) so that runs with
the same seed produce byte-identical logs. A log renders each record once,
when it is appended, and keeps only the line; its records are parsed from
the lines when they are read. The writer sets each record's `seq`, the
index of its line, so a line holds the `seq` that its writer chose and,
for an event, attested. `find_hex` searches a log's lines for many
hex strings in one pass; `HexNeedles` holds the strings and their word
table, built once for any number of logs.
"""

import json
from typing import Dict, Iterable, List, Sequence, Set

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# `find_hex` reads the lowercased lines as 8-byte words, one every _STRIDE
# characters. Wherever a needle of at least _HEAD characters occurs, one
# of those words lies inside it at an offset below _STRIDE, so looking
# each word up among the needles' words at offsets 0.._STRIDE-1 finds
# every occurrence.
_WORD = 8
_STRIDE = 16
_HEAD = _STRIDE + _WORD  # the needle characters the table reads
_WINDOW = 1 << 14  # characters joined, lowercased and read at once; a multiple of _STRIDE


def hx(data: bytes) -> str:
    return "0x" + bytes(data).hex()


def unhx(text: str) -> bytes:
    return bytes.fromhex(text[2:] if text.startswith("0x") else text)


def canonical(record: dict) -> str:
    return _CANONICAL.encode(record)


class HexNeedles:
    """Needles for `find_hex` with their word table, built once so that
    several logs can be searched for them. A needle is lowercase hex of
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


def find_hex(lines: Sequence[str], needles: HexNeedles) -> Set[str]:
    """The needles that occur in `"\n".join(lines).lower()`, from one pass
    over the lines: `needle in result` is `needle in
    "\n".join(lines).lower()`.

    Whole lines are joined about _WINDOW characters at a time, so no log is
    copied whole; no needle holds a newline, so each occurrence lies inside
    one line and is found in the chunk that holds it.
    """
    found: Set[str] = set()
    if not needles.table:
        return found
    chunk: List[str] = []
    size = 0
    for line in lines:
        if chunk and size + len(line) > _WINDOW:
            _scan("\n".join(chunk), needles, found)
            chunk, size = [], 0
        chunk.append(line)
        size += len(line) + 1
    if chunk:
        _scan("\n".join(chunk), needles, found)
    return found


def _scan(text: str, needles: HexNeedles, found: Set[str]) -> None:
    """Add to `found` the needles in `text.lower()`, reading the text a
    window at a time; one table holds _STRIDE words per needle, and each
    word hit is checked against the text."""
    if not text.isascii():
        text = text.lower()  # lowering can change the length of non-ASCII text
    anchors = needles.table
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
    """Canonical lines, each rendered once, when its record is appended;
    a record is not changed after that."""

    def __init__(self):
        self.lines: List[str] = []

    def append(self, record: dict) -> None:
        self.lines.append(canonical(record))

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def records(self) -> List[dict]:
        """The records, parsed from the lines at each read."""
        return [json.loads(line) for line in self.lines]


class EventLog(JsonlLog):
    """Public event stream emitted by the execution environment."""


class AuditLog(JsonlLog):
    """One line per settlement-layer query, including failed ones."""
