"""Cryptographic kernels with a compiled fast path.

A backend is a module that provides `IMPLEMENTATION` (its name) and seven
calls. The package makes four of them:

- `keccak_256(data)`: the 32-byte keccak-256 digest of a bytes-like object;
- `scalar_mult_base(k)`: k*G;
- `sign_with_nonce(digest, key, k)`: `(r, s, recovery_bit)`, the signature
  of a 32-byte digest under a key in [1, N) with a nonce k in [0, 2^256),
  with s <= N/2, or None when k is not in [1, N), when x(k*G) >= N, or
  when r or s is 0. The RFC 6979 nonces are not the backend's:
  `secp256k1.sign_recoverable` derives them once for both backends and
  tries them in order until one is accepted;
- `recover_public_key(digest, r, s, recovery_bit)`: the signer's public key
  for r and s in [1, N), raising ValueError("signature point is not on the
  curve") when r has no curve point of that parity and ValueError("recovered
  the point at infinity") when the key would be infinity.

The other three are the building blocks of those, which both backends keep
so that the tests can compare them:

- `double_mult_base(u1, u2, point)`: u1*G + u2*point, where `point` may be
  None;
- `lift_x(x, odd)`: the curve point `(x, y)` for a field element x in
  [0, P), with y odd when `odd` is true and even otherwise, or None when
  x^3 + 7 has no square root mod P;
- `inverse_mod_n(k)`: 1/k mod N, raising ValueError when k = 0 (mod N).

Points are affine `(x, y)` tuples of ints, the point at infinity is None,
and the group calls' scalars are reduced mod N by the backend (a nonce
outside [1, N) is rejected, not reduced). `secp256k1` checks ranges
before it calls a backend. The compiled inverses (safegcd) and signing take
time that depends on their inputs: the enclave is emulated, and no
side-channel resistance is claimed. The C extension
`sealedbid._core._speedups` is used when it is importable; otherwise the
pure-Python reference `sealedbid._core._purepy` is.
"""

from sealedbid._core import _purepy


def _load_backend():
    try:
        from sealedbid._core import _speedups
        return _speedups
    except ImportError:
        return _purepy


backend = _load_backend()
IMPLEMENTATION = backend.IMPLEMENTATION
keccak_256 = backend.keccak_256
