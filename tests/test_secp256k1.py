"""secp256k1 group math and recoverable ECDSA.

Both backends are tested through the calls of the backend contract (see
`sealedbid.crypto`): `scalar_mult_base` and `double_mult_base` give point
addition as `double_mult_base(a, 1, Q) = a*G + Q` and point multiplication
as `double_mult_base(0, b, Q) = b*Q`, `lift_x` gives the points of a given
x, and `inverse_mod_n` inverts scalars.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sealedbid._core import _purepy
from sealedbid.crypto import secp256k1
from sealedbid.errors import KeyMaterialError, SignatureError

N = secp256k1.N
P = secp256k1.P

# well-known address vectors for the first few private keys
ADDRESS_VECTORS = [
    (1, "7e5f4552091a69125d5dfcb7b8c2659029395bdf"),
    (2, "2b5ad5c4795c026514f8317c7a215e218dccd6cf"),
    (3, "6813eb9362372eef6200f3b1dbc3f819671cba69"),
]


def test_kernel_compiles_without_warnings(compile_kernel, tmp_path):
    # dead code, such as a helper no call reaches any more, fails here
    proc = compile_kernel(tmp_path / "_speedups.so", "-Wall", "-Werror")
    assert proc.returncode == 0, proc.stderr


def test_generator_constants_agree(backend):
    # the backend reduces by the same N and works in the same field as P
    g = backend.scalar_mult_base(1)
    assert secp256k1.is_on_curve(g)
    assert backend.scalar_mult_base(N + 1) == g
    assert backend.double_mult_base(N - 1, 2, g) == g


def test_is_on_curve():
    g = secp256k1.public_key(1)
    assert secp256k1.is_on_curve(g)
    assert secp256k1.is_on_curve((g[0], P - g[1]))
    assert not secp256k1.is_on_curve(None)
    assert not secp256k1.is_on_curve((g[0], g[1] + 1))
    assert not secp256k1.is_on_curve((g[0] + P, g[1]))
    assert not secp256k1.is_on_curve((g[0], g[1] - P))


def test_address_vectors(backend):
    from sealedbid.crypto import keccak_256
    for priv, expected in ADDRESS_VECTORS:
        x, y = backend.scalar_mult_base(priv)
        addr = keccak_256(x.to_bytes(32, "big") + y.to_bytes(32, "big"))[-20:]
        assert addr.hex() == expected


def test_group_laws(backend):
    rng = random.Random(5)
    for _ in range(25):
        a = rng.randrange(1, N)
        b = rng.randrange(1, N)
        pa = backend.scalar_mult_base(a)
        pb = backend.scalar_mult_base(b)
        # a*G + pb is the sum of pa and pb
        assert backend.double_mult_base(a, 1, pb) == backend.scalar_mult_base((a + b) % N)
        # b * pa
        assert backend.double_mult_base(0, b, pa) == backend.scalar_mult_base(a * b % N)
        assert backend.double_mult_base(a, b, pb) == \
            backend.scalar_mult_base((a + b * b) % N)


def test_infinity_edges(backend):
    g = backend.scalar_mult_base(1)
    assert backend.scalar_mult_base(N) is None
    assert backend.double_mult_base(0, 7, None) is None
    assert backend.double_mult_base(1, 1, (g[0], P - g[1])) is None
    assert backend.double_mult_base(0, 1, g) == g
    assert backend.scalar_mult_base(N - 1) == (g[0], P - g[1])
    assert backend.double_mult_base(0, 0, g) is None


def test_backend_equivalence_random_scalars(compiled_kernel):
    pure, compiled = _purepy, compiled_kernel
    rng = random.Random(99)
    for _ in range(150):
        a = rng.randrange(1, N)
        b = rng.randrange(1, N)
        pa = pure.scalar_mult_base(a)
        assert pa == compiled.scalar_mult_base(a)
        assert pure.double_mult_base(0, b, pa) == compiled.double_mult_base(0, b, pa)
        assert pure.double_mult_base(a, b, pa) == compiled.double_mult_base(a, b, pa)


def test_base_table_cells_match_the_reference(compiled_kernel):
    # one scalar per cell of the 64 x 15 table of d * 16^i * G
    for i in range(64):
        for d in range(1, 16):
            k = d << (4 * i)
            assert compiled_kernel.scalar_mult_base(k) == _purepy.scalar_mult_base(k), (i, d)


@pytest.mark.parametrize("k", [0, N, N - 1, N + 1, ((1 << 256) - 1) % N],
                         ids=["zero", "N", "N-1", "N+1", "all-f mod N"])
def test_edge_scalars_match_the_reference(compiled_kernel, k):
    assert compiled_kernel.scalar_mult_base(k) == _purepy.scalar_mult_base(k)
    g = _purepy.scalar_mult_base(1)
    assert compiled_kernel.double_mult_base(k, k, g) == _purepy.double_mult_base(k, k, g)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.integers(min_value=0, max_value=P - 1),
                   st.integers(min_value=P - 64, max_value=P - 1),
                   st.integers(min_value=0, max_value=64)),
       odd=st.booleans())
def test_lift_x_matches_the_reference(compiled_kernel, x, odd):
    point = compiled_kernel.lift_x(x, odd)
    assert point == _purepy.lift_x(x, odd)
    if point is not None:
        assert point[0] == x
        assert secp256k1.is_on_curve(point)
        assert point[1] & 1 == odd


def test_recovery_rejects_an_r_off_the_curve(backend, monkeypatch):
    monkeypatch.setattr(secp256k1, "backend", backend)
    digest = b"\x44" * 32
    r, s, bit = secp256k1.sign_recoverable(digest, 31337)
    assert secp256k1.recover_public_key(digest, r, s, bit) == secp256k1.public_key(31337)
    # the smallest x whose x^3 + 7 is a non-residue
    r = next(x for x in range(1, 100) if _purepy.lift_x(x, 0) is None)
    with pytest.raises(SignatureError, match="signature point is not on the curve"):
        secp256k1.recover_public_key(digest, r, s, bit)


def test_sign_recover_identity_bulk():
    rng = random.Random(7)
    for _ in range(60):
        priv = rng.randrange(1, N)
        digest = rng.randbytes(32)
        r, s, bit = secp256k1.sign_recoverable(digest, priv)
        assert 1 <= r < N and 1 <= s <= N // 2 and bit in (0, 1)
        recovered = secp256k1.recover_public_key(digest, r, s, bit)
        assert recovered == secp256k1.public_key(priv)


@settings(max_examples=60, deadline=None)
@given(priv=st.integers(min_value=1, max_value=N - 1),
       digest=st.binary(min_size=32, max_size=32))
def test_sign_recover_property(priv, digest):
    r, s, bit = secp256k1.sign_recoverable(digest, priv)
    assert secp256k1.recover_public_key(digest, r, s, bit) == \
        secp256k1.public_key(priv)


def test_signatures_are_deterministic():
    digest = b"\x11" * 32
    assert secp256k1.sign_recoverable(digest, 12345) == \
        secp256k1.sign_recoverable(digest, 12345)


def test_high_s_rejected():
    digest = b"\x22" * 32
    r, s, bit = secp256k1.sign_recoverable(digest, 999)
    with pytest.raises(SignatureError):
        secp256k1.recover_public_key(digest, r, N - s, bit)


def test_recovery_input_validation():
    digest = b"\x33" * 32
    r, s, bit = secp256k1.sign_recoverable(digest, 4242)
    with pytest.raises(SignatureError):
        secp256k1.recover_public_key(digest, 0, s, bit)
    with pytest.raises(SignatureError):
        secp256k1.recover_public_key(digest, r, 0, bit)
    with pytest.raises(SignatureError):
        secp256k1.recover_public_key(digest, r, s, 5)
    with pytest.raises(SignatureError):
        secp256k1.recover_public_key(digest[:31], r, s, bit)


def test_private_key_range_checks():
    with pytest.raises(KeyMaterialError):
        secp256k1.public_key(0)
    with pytest.raises(KeyMaterialError):
        secp256k1.public_key(N)
    with pytest.raises(KeyMaterialError):
        secp256k1.sign_recoverable(b"\x00" * 32, N + 5)


def test_point_from_bytes_rejects_off_curve():
    good = secp256k1.public_key(7)
    round_tripped = secp256k1.point_from_bytes(secp256k1.public_key_bytes(good))
    assert round_tripped == good
    bad = bytearray(secp256k1.public_key_bytes(good))
    bad[-1] ^= 1
    with pytest.raises(KeyMaterialError):
        secp256k1.point_from_bytes(bytes(bad))
    with pytest.raises(KeyMaterialError):
        secp256k1.point_from_bytes(b"\x01" * 63)


def test_generate_private_key_retries_out_of_range():
    draws = [N.to_bytes(32, "big"), (0).to_bytes(32, "big"),
             (42).to_bytes(32, "big")]
    calls = iter(draws)

    def rand(n):
        assert n == 32
        return next(calls)

    assert secp256k1.generate_private_key(rand) == 42


# -- GLV: the compiled double_mult_base splits each scalar k as k1 + k2*lambda

LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# the kernel's lattice basis (a1, b1), (a2, b2 = a1) and rounding constants
A1 = 0x3086D221A7D46BCDE86C90E49284EB15
MINUS_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3
A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
G1 = 0x3086D221A7D46BCDE86C90E49284EB153DAA8A1471E8CA7FE893209A45DBB031
G2 = 0xE4437ED6010E88286F547FA90ABFE4C4221208AC9DF506C61571B4AE8AC47F71


def glv_split(k):
    """The kernel's split of k into signed halves, k = k1 + k2*lambda (mod N)."""
    c1 = (k * G1 + (1 << 383)) >> 384
    c2 = (k * G2 + (1 << 383)) >> 384
    return k - c1 * A1 - c2 * A2, c1 * MINUS_B1 - c2 * A1


def test_glv_constants():
    g = _purepy.scalar_mult_base(1)
    assert LAMBDA != 1 and pow(LAMBDA, 3, N) == 1
    assert BETA != 1 and pow(BETA, 3, P) == 1
    assert _purepy.double_mult_base(0, LAMBDA, g) == (BETA * g[0] % P, g[1])
    # both basis vectors lie on the lattice i + j*lambda = 0 (mod N)
    assert (A1 - MINUS_B1 * LAMBDA) % N == 0
    assert (A2 + A1 * LAMBDA) % N == 0
    assert G1 == ((A1 << 384) + N // 2) // N and G2 == ((MINUS_B1 << 384) + N // 2) // N
    for k in (0, 1, N - 1, LAMBDA, 2 ** 128 + 1, 0xDEADBEEF << 200):
        k1, k2 = glv_split(k)
        assert (k1 + k2 * LAMBDA - k) % N == 0
        assert max(abs(k1), abs(k2)).bit_length() <= 128


def scalars_with_signs():
    """The first scalar from a fixed stream for each sign pattern of its two
    halves."""
    rng = random.Random(2024)
    found = {}
    while len(found) < 4:
        k = rng.randrange(N)
        found.setdefault(tuple(h < 0 for h in glv_split(k)), k)
    return [found[key] for key in sorted(found)]


GLV_SCALARS = [0, 1, N - 1, LAMBDA, N - LAMBDA, 2 ** 128 - 1, 2 ** 128, 2 ** 128 + 1,
               *scalars_with_signs()]
GLV_SCALAR_IDS = ["0", "1", "N-1", "lambda", "N-lambda", "2^128-1", "2^128", "2^128+1",
                  "k1+k2+", "k1+k2-", "k1-k2+", "k1-k2-"]


def glv_points():
    g = _purepy.scalar_mult_base(1)
    r = _purepy.scalar_mult_base(0xC0FFEE)
    return {"G": g, "-G": (g[0], P - g[1]), "lambda*R": (BETA * r[0] % P, r[1]),
            "R": r, "infinity": None}


def test_scalars_cover_every_sign_pattern():
    assert len(set(GLV_SCALARS)) == len(GLV_SCALARS) == len(GLV_SCALAR_IDS)
    assert {tuple(h < 0 for h in glv_split(k)) for k in GLV_SCALARS} == \
        {(a, b) for a in (False, True) for b in (False, True)}


@pytest.mark.parametrize("point", list(glv_points()))
@pytest.mark.parametrize("k", GLV_SCALARS, ids=GLV_SCALAR_IDS)
def test_double_mult_base_matches_the_reference_at_glv_boundaries(compiled_kernel, k, point):
    q = glv_points()[point]
    other = 0x1234567890ABCDEF ** 3 % N
    for u1, u2 in ((0, k), (k, 0), (k, k), (other, k), (k, other)):
        assert compiled_kernel.double_mult_base(u1, u2, q) == \
            _purepy.double_mult_base(u1, u2, q), (u1, u2)


def test_inverse_mod_n_matches_the_reference(backend):
    rng = random.Random(11)
    for k in [1, 2, N - 1, N + 1, -3, *(rng.randrange(1, N) for _ in range(200))]:
        inverse = backend.inverse_mod_n(k)
        assert inverse == pow(k, -1, N)
        assert 0 < inverse < N and inverse * k % N == 1


@pytest.mark.parametrize("k", [0, N, -N], ids=["0", "N", "-N"])
def test_inverse_mod_n_rejects_zero(backend, k):
    with pytest.raises(ValueError):
        backend.inverse_mod_n(k)

