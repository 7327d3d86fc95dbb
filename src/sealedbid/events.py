"""Line-delimited JSON logs: the public event stream and the query audit trail.

Records are canonicalized (sorted keys, no whitespace) so that runs with
the same seed produce byte-identical logs. `find_hex` searches a log's
text for many hex strings in one pass; `HexNeedles` holds the strings'
word table for searching several texts.
"""

import json
from typing import Dict, Iterable, List

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
    ValueError. `a | b` searches for the needles of both with the tables
    of each: no table is built or copied again."""

    def __init__(self, needles: Iterable[str] = ()):
        wanted = set(needles)
        for needle in wanted:
            if len(needle) < _HEAD or not needle.isascii():
                raise ValueError("hex needle %r is not ASCII of at least %d characters"
                                 % (needle, _HEAD))
        self.parts = []  # (needles, their word table, their lengths) per joined set
        if wanted:
            self.parts.append((wanted, _anchor_table(wanted),
                               sorted({len(n) for n in wanted})))

    def __or__(self, other: "HexNeedles") -> "HexNeedles":
        union = HexNeedles()
        union.parts = self.parts + other.parts
        return union


def find_hex(text: str, needles) -> Dict[str, List[int]]:
    """Where each needle occurs in `text.lower()`, from one pass over `text`.

    `needles` is an iterable of strings or a `HexNeedles`, whose rules
    each needle must meet. Returns needle -> the ascending start offsets
    of all its occurrences, overlapping ones included, for each needle
    that occurs at all; so `needle in result` is `needle in text.lower()`.

    The text is read once, a window at a time, whatever the number of
    needles; a table holds _STRIDE words per needle, and each word hit
    is checked against the text.
    """
    if not isinstance(needles, HexNeedles):
        needles = HexNeedles(needles)
    if not text.isascii():
        text = text.lower()  # lowering can change the length of non-ASCII text
    found: Dict[str, List[int]] = {}
    if not needles.parts:
        return found
    for start in range(0, len(text), _WINDOW):
        window = text[start:start + _WINDOW].lower().encode("ascii", "replace")
        whole = memoryview(window)[:len(window) - len(window) % _WORD]
        words = whole.cast("Q")[::_STRIDE // _WORD]
        for anchored, anchors, lengths in needles.parts:
            if anchors.keys().isdisjoint(words):
                continue
            for k, word in enumerate(words):
                mask = anchors.get(word)
                if mask is None:
                    continue
                at = start + k * _STRIDE
                for j in range(min(_STRIDE, at + 1)):
                    if mask >> j & 1:
                        for length in lengths:
                            candidate = text[at - j:at - j + length].lower()
                            if candidate in anchored:
                                found.setdefault(candidate, []).append(at - j)
    for needle, offsets in found.items():
        found[needle] = sorted(set(offsets))  # a needle of two parts is found twice
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
    def __init__(self):
        self.records: List[dict] = []

    def append(self, record: dict) -> dict:
        record = dict(record)
        record["seq"] = len(self.records)
        self.records.append(record)
        return record

    def lines(self) -> List[str]:
        return [canonical(r) for r in self.records]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.records else "")

    def __len__(self) -> int:
        return len(self.records)


class EventLog(JsonlLog):
    """Public event stream emitted by the execution environment."""


class AuditLog(JsonlLog):
    """One record per settlement-layer query, including failed ones."""
