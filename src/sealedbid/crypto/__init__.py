"""Cryptographic kernels with a compiled fast path.

A backend is a module that provides `IMPLEMENTATION` (its name) and seven
calls. The package makes four of them:

- `keccak_256(data)`: the 32-byte keccak-256 digest of a bytes-like object;
- `scalar_mult_base(k)`: k*G;
- `sign_recoverable(digest, key)`: `(r, s, recovery_bit)`, the RFC 6979
  signature of a 32-byte digest under a key in [1, N), with s <= N/2; a
  nonce is skipped when x(k*G) >= N or r or s is 0;
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
and scalars are reduced mod N by the backend. `secp256k1` checks ranges
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
