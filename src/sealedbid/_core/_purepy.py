"""Pure-Python fallback for the hot kernels: keccak-256, secp256k1 group math,
inverses mod N and recoverable ECDSA with a given nonce.

Implements the backend contract stated in `sealedbid.crypto`, as does the
compiled `_speedups` extension, and is the reference the extension is
tested against. The RFC 6979 nonces are derived once for both backends,
in `sealedbid.crypto.secp256k1`.
"""

IMPLEMENTATION = "pure"

# ---------------------------------------------------------------------------
# keccak-256 (original keccak 0x01 padding, not SHA-3 FIPS)

_MASK64 = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# rotation offsets for the flat lane layout a[x + 5*y]
_ROTATIONS = (
    0, 1, 62, 28, 27,
    36, 44, 6, 55, 20,
    3, 10, 43, 25, 39,
    41, 45, 15, 21, 8,
    18, 2, 61, 56, 14,
)

_RATE = 136  # bytes, for a 256-bit digest


def _rol64(v, n):
    return ((v << n) | (v >> (64 - n))) & _MASK64 if n else v


def _keccak_f1600(state):
    rol = _rol64
    for rc in _ROUND_CONSTANTS:
        # theta
        c = [state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20]
             for x in range(5)]
        d = [c[(x + 4) % 5] ^ rol(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            dx = d[x]
            for y in range(0, 25, 5):
                state[x + y] ^= dx
        # rho + pi
        b = [0] * 25
        for x in range(5):
            for y in range(5):
                b[y + 5 * ((2 * x + 3 * y) % 5)] = rol(state[x + 5 * y],
                                                       _ROTATIONS[x + 5 * y])
        # chi
        for y in range(0, 25, 5):
            for x in range(5):
                state[x + y] = b[x + y] ^ ((~b[(x + 1) % 5 + y]) & b[(x + 2) % 5 + y])
        # iota
        state[0] = (state[0] ^ rc) & _MASK64


def keccak_256(data: bytes) -> bytes:
    data = bytes(data)
    state = [0] * 25
    # absorb full blocks
    offset = 0
    n = len(data)
    while n - offset >= _RATE:
        block = data[offset:offset + _RATE]
        for i in range(17):
            state[i] ^= int.from_bytes(block[8 * i:8 * i + 8], "little")
        _keccak_f1600(state)
        offset += _RATE
    # pad and absorb the tail
    tail = bytearray(data[offset:])
    pad_at = len(tail)
    tail += b"\x00" * (_RATE - pad_at)
    tail[pad_at] ^= 0x01
    tail[_RATE - 1] ^= 0x80
    for i in range(17):
        state[i] ^= int.from_bytes(tail[8 * i:8 * i + 8], "little")
    _keccak_f1600(state)
    out = bytearray()
    for i in range(4):
        out += state[i].to_bytes(8, "little")
    return bytes(out)


# ---------------------------------------------------------------------------
# secp256k1

P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


# Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3. Z == 0 means
# the point at infinity.

_INF = (0, 1, 0)


def _jac_double(pt):
    X1, Y1, Z1 = pt
    if Z1 == 0 or Y1 == 0:
        return _INF
    A = X1 * X1 % P
    B = Y1 * Y1 % P
    C = B * B % P
    t = X1 + B
    D = 2 * (t * t - A - C) % P
    E = 3 * A % P
    F = E * E % P
    X3 = (F - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y1 * Z1 % P
    return (X3, Y3, Z3)


def _jac_add(p1, p2):
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    if Z1 == 0:
        return p2
    if Z2 == 0:
        return p1
    Z1Z1 = Z1 * Z1 % P
    Z2Z2 = Z2 * Z2 % P
    U1 = X1 * Z2Z2 % P
    U2 = X2 * Z1Z1 % P
    S1 = Y1 * Z2 * Z2Z2 % P
    S2 = Y2 * Z1 * Z1Z1 % P
    if U1 == U2:
        if S1 != S2:
            return _INF
        return _jac_double(p1)
    H = (U2 - U1) % P
    I = 4 * H * H % P
    J = H * I % P
    r = 2 * (S2 - S1) % P
    V = U1 * I % P
    X3 = (r * r - J - 2 * V) % P
    Y3 = (r * (V - X3) - 2 * S1 * J) % P
    Z3 = ((Z1 + Z2) * (Z1 + Z2) - Z1Z1 - Z2Z2) % P * H % P
    return (X3, Y3, Z3)


def _to_jacobian(point):
    if point is None:
        return _INF
    return (point[0], point[1], 1)


def _to_affine(pt):
    X, Y, Z = pt
    if Z == 0:
        return None
    zinv = pow(Z, -1, P)
    zinv2 = zinv * zinv % P
    return (X * zinv2 % P, Y * zinv2 * zinv % P)


# Fixed-base comb table for G: _BASE_TABLE[i][d] = d * 16**i * G, built
# lazily on first base multiplication.
_WINDOWS = 64
_base_table = None


def _build_base_table():
    table = []
    window_base = (GX, GY, 1)
    for _ in range(_WINDOWS):
        row = [_INF, window_base]
        acc = window_base
        for _ in range(14):
            acc = _jac_add(acc, window_base)
            row.append(acc)
        table.append(row)
        for _ in range(4):
            window_base = _jac_double(window_base)
    return table


def scalar_mult_base(k: int):
    global _base_table
    if k % N == 0:
        return None
    if _base_table is None:
        _base_table = _build_base_table()
    k %= N
    acc = _INF
    for i in range(_WINDOWS):
        digit = (k >> (4 * i)) & 0xF
        if digit:
            acc = _jac_add(acc, _base_table[i][digit])
    return _to_affine(acc)


def _point_mul(k: int, point):
    if point is None or k % N == 0:
        return None
    k %= N
    acc = _INF
    base = _to_jacobian(point)
    for bit in reversed(range(k.bit_length())):
        acc = _jac_double(acc)
        if (k >> bit) & 1:
            acc = _jac_add(acc, base)
    return _to_affine(acc)


def _point_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return _to_affine(_jac_add(_to_jacobian(a), _to_jacobian(b)))


def double_mult_base(u1: int, u2: int, point):
    """u1*G + u2*point, the inner loop of public-key recovery."""
    left = scalar_mult_base(u1)
    right = _point_mul(u2, point)
    return _point_add(left, right)


def lift_x(x: int, odd):
    """The curve point (x, y) with y odd when `odd` is true and even
    otherwise, or None when x^3 + 7 is not a square mod P."""
    y_sq = (pow(x, 3, P) + 7) % P
    y = pow(y_sq, (P + 1) // 4, P)
    if y * y % P != y_sq:
        return None
    if (y & 1) != bool(odd):
        y = P - y
    return (x, y)


def inverse_mod_n(k: int) -> int:
    """1/k mod N; ValueError when k = 0 (mod N)."""
    return pow(k, -1, N)


# ---------------------------------------------------------------------------
# Recoverable ECDSA

HALF_N = N // 2


def sign_with_nonce(digest: bytes, private_key: int, k: int):
    """(r, s, recovery_bit) for a 32-byte digest, a key in [1, N) and the
    nonce k, with s <= N/2; None when k is not in [1, N), when x(k*G) >= N
    (which would need recovery bit 2 or 3), or when r or s is 0."""
    if not 1 <= k < N:
        return None
    r, y_r = scalar_mult_base(k)
    if r >= N:
        return None
    s = inverse_mod_n(k) * (int.from_bytes(digest, "big") + r * private_key) % N
    if r == 0 or s == 0:
        return None
    if s > HALF_N:
        return r, N - s, (y_r & 1) ^ 1
    return r, s, y_r & 1


def recover_public_key(digest: bytes, r: int, s: int, recovery_bit):
    """The signer's public key for r, s in [1, N); ValueError when r names
    no curve point of that parity or the key would be infinity."""
    r_point = lift_x(r, recovery_bit)
    if r_point is None:
        raise ValueError("signature point is not on the curve")
    z = int.from_bytes(digest, "big")
    r_inv = inverse_mod_n(r)
    point = double_mult_base((-z * r_inv) % N, (s * r_inv) % N, r_point)
    if point is None:
        raise ValueError("recovered the point at infinity")
    return point
