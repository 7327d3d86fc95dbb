"""Recoverable ECDSA over secp256k1 with deterministic (RFC 6979) nonces.

This module owns the protocol checks (key ranges, the 32-byte digest,
low-s and the recovery bit) and the one RFC 6979 nonce generator, on the
stdlib's HMAC-SHA256. Signing tries its nonces in order against the
selected backend, which signs with a given nonce (in C on the compiled
backend) or rejects it; a recovery is one backend call. Signatures are
`(r, s, recovery_bit)` triples; recovery bits are restricted to {0, 1} by
rejecting the (negligible) nonces with x(k*G) >= N, so they always fit
the settlement wire format.
"""

import hmac
from typing import Callable, Iterator, Tuple

from sealedbid.crypto import backend
from sealedbid.errors import KeyMaterialError, SignatureError

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
HALF_N = N // 2

Point = Tuple[int, int]


def generate_private_key(rand: Callable[[int], bytes]) -> int:
    """Draw 32-byte candidates from `rand` until one lands in [1, N-1]."""
    while True:
        candidate = int.from_bytes(rand(32), "big")
        if 1 <= candidate < N:
            return candidate


def is_on_curve(point) -> bool:
    if point is None:
        return False
    x, y = point
    if not (0 <= x < P and 0 <= y < P):
        return False
    return (y * y - (x * x * x + 7)) % P == 0


def public_key(private_key: int) -> Point:
    if not 1 <= private_key < N:
        raise KeyMaterialError("private key out of range")
    return backend.scalar_mult_base(private_key)


def public_key_bytes(point: Point) -> bytes:
    """64-byte uncompressed encoding (x || y), no 0x04 prefix."""
    return point[0].to_bytes(32, "big") + point[1].to_bytes(32, "big")


def rfc6979_nonces(digest: bytes, private_key: int) -> Iterator[int]:
    """The candidate nonces of RFC 6979 section 3.2 with HMAC-SHA256, in
    order; a caller that rejects one draws the next. qlen = hlen = 256
    bits, so bits2int is the identity and bits2octets reduces mod N."""
    x = private_key.to_bytes(32, "big")
    h = (int.from_bytes(digest, "big") % N).to_bytes(32, "big")
    k, v = bytes(32), b"\x01" * 32
    for separator in (b"\x00", b"\x01"):
        k = hmac.digest(k, v + separator + x + h, "sha256")
        v = hmac.digest(k, v, "sha256")
    while True:
        v = hmac.digest(k, v, "sha256")
        yield int.from_bytes(v, "big")
        k = hmac.digest(k, v + b"\x00", "sha256")
        v = hmac.digest(k, v, "sha256")


def sign_recoverable(digest: bytes, private_key: int) -> Tuple[int, int, int]:
    """Sign a 32-byte digest; returns (r, s, recovery_bit) with s <= N/2."""
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    if not 1 <= private_key < N:
        raise KeyMaterialError("private key out of range")
    for k in rfc6979_nonces(digest, private_key):
        signature = backend.sign_with_nonce(digest, private_key, k)
        if signature is not None:
            return signature


def recover_public_key(digest: bytes, r: int, s: int, recovery_bit: int) -> Point:
    """Invert a recoverable signature back to the signer's public key.

    Enforces the same canonical form the signer produces: low-s and a
    recovery bit in {0, 1}.
    """
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    if recovery_bit not in (0, 1):
        raise SignatureError("invalid recovery bit %r" % (recovery_bit,))
    if not 1 <= r < N:
        raise SignatureError("r out of range")
    if not 1 <= s < N:
        raise SignatureError("s out of range")
    if s > HALF_N:
        raise SignatureError("high-s signature rejected")
    if r >= P:
        raise SignatureError("r does not name a curve x-coordinate")
    try:
        return backend.recover_public_key(digest, r, s, recovery_bit)
    except ValueError as exc:  # no curve point for r, or the point at infinity
        raise SignatureError(str(exc)) from None
