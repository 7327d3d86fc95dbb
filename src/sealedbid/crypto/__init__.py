"""Cryptographic kernels with a compiled fast path.

A backend is a module that provides `IMPLEMENTATION` (its name) and five
calls, which are all the package makes of it:

- `keccak_256(data)`: the 32-byte keccak-256 digest of a bytes-like object;
- `scalar_mult_base(k)`: k*G;
- `double_mult_base(u1, u2, point)`: u1*G + u2*point, where `point` may be
  None;
- `lift_x(x, odd)`: the curve point `(x, y)` for a field element x in
  [0, P), with y odd when `odd` is true and even otherwise, or None when
  x^3 + 7 has no square root mod P;
- `inverse_mod_n(k)`: 1/k mod N, raising ValueError when k = 0 (mod N).

Points are affine `(x, y)` tuples of ints, the point at infinity is None,
and scalars are reduced mod N by the backend. The C extension
`sealedbid._core._speedups` is used when it is importable; otherwise the
pure-Python reference `sealedbid._core._purepy` is. `SEALEDBID_BACKEND`
picks one: `auto` (the default, also when empty), `pure`, or `compiled`,
which fails loudly if the extension is missing.
"""

import os

from sealedbid._core import _purepy
from sealedbid.errors import ConfigError


def _load_backend():
    choice = os.environ.get("SEALEDBID_BACKEND", "auto").strip().lower() or "auto"
    if choice == "pure":
        return _purepy
    if choice not in ("auto", "compiled"):
        raise ConfigError("unknown SEALEDBID_BACKEND value: %r" % choice)
    try:
        from sealedbid._core import _speedups
        return _speedups
    except ImportError:
        if choice == "compiled":
            raise ConfigError(
                "SEALEDBID_BACKEND=compiled but the compiled extension is not built")
        return _purepy


backend = _load_backend()
IMPLEMENTATION = backend.IMPLEMENTATION
keccak_256 = backend.keccak_256
