"""Recoverable ECDSA over secp256k1 with deterministic (RFC 6979) nonces.

This module owns the protocol checks: key ranges, the 32-byte digest,
low-s and the recovery bit. Each signature and each recovery is one call
into the selected backend, which derives the nonce, signs and recovers
(in C on the compiled backend). Signatures are `(r, s, recovery_bit)`
triples; recovery bits are restricted to {0, 1} by re-deriving the nonce
in the (negligible) r >= N case, so they always fit the settlement wire
format.
"""

from typing import Callable, Tuple

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


def sign_recoverable(digest: bytes, private_key: int) -> Tuple[int, int, int]:
    """Sign a 32-byte digest; returns (r, s, recovery_bit) with s <= N/2."""
    if len(digest) != 32:
        raise SignatureError("digest must be 32 bytes")
    if not 1 <= private_key < N:
        raise KeyMaterialError("private key out of range")
    return backend.sign_recoverable(digest, private_key)


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
