"""Recursive length prefix serialization.

Items are byte strings or (arbitrarily nested) lists of items. Decoding
is strict: non-minimal length prefixes, single bytes wrapped in a string
header, truncated payloads, and trailing input all raise CodecError, so
decode(encode(x)) == x and encode(decode(b)) == b both hold.
"""

from typing import List, Union

from sealedbid.errors import CodecError

RlpItem = Union[bytes, List["RlpItem"]]


def encode(item: RlpItem) -> bytes:
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _length_prefix(0x80, len(data)) + data
    if isinstance(item, (list, tuple)):
        payload = b"".join([encode(sub) for sub in item])
        return _length_prefix(0xC0, len(payload)) + payload
    raise CodecError("cannot encode %r: expected bytes or list" % type(item).__name__)


def _length_prefix(base: int, length: int) -> bytes:
    if length <= 55:
        return bytes([base + length])
    length_bytes = encode_int(length)
    return bytes([base + 55 + len(length_bytes)]) + length_bytes


def encode_int(value: int) -> bytes:
    """Minimal big-endian byte string; zero encodes as empty."""
    if value < 0:
        raise CodecError("cannot encode negative integer %d" % value)
    if value == 0:
        return b""
    return value.to_bytes((value.bit_length() + 7) // 8, "big")


def decode_int(data: bytes) -> int:
    if data[:1] == b"\x00":
        raise CodecError("integer has leading zero byte")
    return int.from_bytes(data, "big")


def decode(data: bytes) -> RlpItem:
    """Decode a complete RLP encoding; rejects trailing bytes."""
    item, consumed = _decode_at(bytes(data), 0)
    if consumed != len(data):
        raise CodecError("trailing bytes after RLP item")
    return item


def _decode_at(data: bytes, pos: int):
    if pos >= len(data):
        raise CodecError("unexpected end of input")
    first = data[pos]
    if first < 0x80:
        return data[pos:pos + 1], pos + 1
    if first < 0xB8:
        length = first - 0x80
        payload, end = _take(data, pos + 1, length)
        if length == 1 and payload[0] < 0x80:
            raise CodecError("single byte below 0x80 must self-encode")
        return payload, end
    if first < 0xC0:
        length, pos = _long_length(data, pos, first - 0xB7)
        payload, end = _take(data, pos, length)
        return payload, end
    if first < 0xF8:
        length = first - 0xC0
        return _decode_list(data, pos + 1, length)
    length, pos = _long_length(data, pos, first - 0xF7)
    return _decode_list(data, pos, length)


def _long_length(data: bytes, pos: int, n_length_bytes: int):
    raw, end = _take(data, pos + 1, n_length_bytes)
    if raw[0] == 0:
        raise CodecError("length prefix has leading zero")
    length = int.from_bytes(raw, "big")
    if length <= 55:
        raise CodecError("non-minimal length prefix")
    return length, end


def _take(data: bytes, pos: int, length: int):
    end = pos + length
    if end > len(data):
        raise CodecError("truncated input")
    return data[pos:end], end


def _decode_list(data: bytes, pos: int, payload_length: int):
    end = pos + payload_length
    if end > len(data):
        raise CodecError("truncated list payload")
    items = []
    while pos < end:
        item, pos = _decode_at(data, pos)
        if pos > end:
            raise CodecError("list item overruns list payload")
        items.append(item)
    return items, end
