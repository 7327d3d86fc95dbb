"""secp256k1 group math and recoverable ECDSA.

Both backends are tested through the calls of the backend contract (see
`sealedbid.crypto`): `scalar_mult_base` and `double_mult_base` give point
addition as `double_mult_base(a, 1, Q) = a*G + Q` and point multiplication
as `double_mult_base(0, b, Q) = b*Q`, `lift_x` gives the points of a given
x, `inverse_mod_n` inverts scalars, `sign_with_nonce` signs with a given
nonce and `recover_public_key` recovers in one call. The RFC 6979 nonces
come from `secp256k1.rfc6979_nonces`, for both backends.
"""

import hashlib
import itertools
import random
import re
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from sealedbid import crypto
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



# -- the backend contract

def contract_calls():
    """The calls `sealedbid.crypto` documents: those the package makes, then
    the building blocks both backends keep for these tests."""
    made, blocks = crypto.__doc__.split("building blocks")
    return (re.findall(r"^- `(\w+)\(", made, re.M),
            re.findall(r"^- `(\w+)\(", blocks, re.M))


def test_backend_exports_exactly_the_documented_calls(backend):
    made, blocks = contract_calls()
    assert made == ["keccak_256", "scalar_mult_base", "sign_with_nonce", "recover_public_key"]
    assert blocks == ["double_mult_base", "lift_x", "inverse_mod_n"]
    exported = {name for name in dir(backend)
                if not name.startswith("_") and callable(getattr(backend, name))}
    assert exported == set(made + blocks)
    assert backend.IMPLEMENTATION in ("compiled", "pure")


def test_the_package_makes_only_the_documented_calls():
    package = Path(crypto.__file__).resolve().parent.parent
    used = set()
    for path in package.rglob("*.py"):
        used.update(re.findall(r"\bbackend\.(\w+)", path.read_text(encoding="utf-8")))
    assert used - {"IMPLEMENTATION"} == set(contract_calls()[0])


# -- signing: one nonce generator, one backend call per nonce

# (key, digest) -> (r, s, recovery bit), pinned from the pure-Python
# reference's signing loop, so both backends answer to fixed values
SIGNATURE_KEYS = {"1": 1, "N-1": N - 1, "0xc0ffee": 0xC0FFEE, "2^255+19": 2 ** 255 + 19}
SIGNATURE_DIGESTS = {
    "0": bytes(32), "ff": b"\xff" * 32, "N": N.to_bytes(32, "big"),
    "N+1": (N + 1).to_bytes(32, "big"),
    "keccak(abc)": bytes.fromhex(
        "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
}
PINNED_SIGNATURES = [
    ('1', '0', 0xA0B37F8FBA683CC68F6574CD43B39F0343A50008BF6CCEA9D13231D9E7E2E1E4,
     0x11EDC8D307254296264AEBFC3DC76CD8B668373A072FD64665B50000E9FCCE52, 1),
    ('1', 'ff', 0x7CB38CC5712E9E11A767615F6080DBC111C9CDD613EB98999FD92A86BAFD4540,
     0x7923CA1F4D03471D2866F776EF8A6D3CAC099B427331AEB245AA9DAFEDDCF115, 0),
    ('1', 'N', 0xA0B37F8FBA683CC68F6574CD43B39F0343A50008BF6CCEA9D13231D9E7E2E1E4,
     0x11EDC8D307254296264AEBFC3DC76CD8B668373A072FD64665B50000E9FCCE52, 1),
    ('1', 'N+1', 0x6673FFAD2147741F04772B6F921F0BA6AF0C1E77FC439E65C36DEDF4092E8898,
     0x4C1A971652E0ADA880120EF8025E709FFF2080C4A39AAE068D12EED009B68C89, 1),
    ('1', 'keccak(abc)', 0xE6CBD687D6CDA3D7CF8E37214D3128A54196B42400AA1C246952A68346238856,
     0x1EEE2EC3D64CB26E0EDD6F86B19784552A39A351EA1779CDAD6717E820093242, 1),
    ('N-1', '0', 0x919026F3E239EA52CF530EB6D345DC2B56EF0928F1E9AD20D8F360284DC65048,
     0x14395E7137E2204F15B69239010F3C34FBB3C858A29B0D106B1FA65BC0047263, 0),
    ('N-1', 'ff', 0xA7F83B5963EAF5332C633327CC967BE8F4166D3F1E0B77F9761D8F4E42211E9A,
     0x58AAE31BE1EB1E496923BBE8CA5E843CFB89F4D986D61D4EDFD7D6FC3C9CF62C, 0),
    ('N-1', 'N', 0x919026F3E239EA52CF530EB6D345DC2B56EF0928F1E9AD20D8F360284DC65048,
     0x14395E7137E2204F15B69239010F3C34FBB3C858A29B0D106B1FA65BC0047263, 0),
    ('N-1', 'N+1', 0xEAA03E6C5CC815DD7CEE2E11460DF51A04BFD9B3169AA63F735C95DCF623C95D,
     0x192BF170E5284EFEFDB0D8CE148759A48ADA553BD929D3DEDA5451DECFA5C70E, 1),
    ('N-1', 'keccak(abc)', 0x85DE2D5E92B4E9030E5D9D1EFBF9E717CB411294A26061F15147905ED4F8369E,
     0x511CCE3678EBE4FD6B50CEDD9B905FD4BB3D1E633B9EED8E91B678255BE821D5, 1),
    ('0xc0ffee', '0', 0x5F7C39F262F9A1DDC12FB80F4723F0094250E88E75437D776E2A53F235229825,
     0x7349B23FA2443A2222DF70E05276D7ED0220BE10FF521729B232586781793A71, 1),
    ('0xc0ffee', 'ff', 0xF20CEC374232269F30F2B19068A42566592CA380544736AF276495C7862480BF,
     0x27928FB385ABB7B7335246E4065C8EBC2AF8CC7E2CF2554DA5B03286D7821835, 1),
    ('0xc0ffee', 'N', 0x5F7C39F262F9A1DDC12FB80F4723F0094250E88E75437D776E2A53F235229825,
     0x7349B23FA2443A2222DF70E05276D7ED0220BE10FF521729B232586781793A71, 1),
    ('0xc0ffee', 'N+1', 0xDA0AD62BC482E066A1913426DDB0F09AD84DE3AA01047BB1B5B5B0364C8DB390,
     0x068EEDB5394996F803F5FD5CE5198161334A11B067DEFEBE692C22E4F50D66CD, 0),
    ('0xc0ffee', 'keccak(abc)', 0xC0BB09C17614B89EE8931371EBBB48C9F9893A551FE87409CFC770B30A859FDF,
     0x37FC113A9634B3CE527AA74B87F1F5D99BFFC562A9C7BB108FA352C29AEE4D00, 1),
    ('2^255+19', '0', 0x0C63BB52BF2F76390B7658CB889713C9F2FB1CCE367592ADCCF72A2476A343EA,
     0x24D0955D472A60AAB272E01BB790C739A52F91DDD39EC61D256FE5FF7B793D9F, 1),
    ('2^255+19', 'ff', 0x72669E89074592B4D513A10551D0D4FB914E325DD1D534FE9CAB9F15070CCE43,
     0x1015F39D10E01074DB12FA2B7554A9EC550D1688BF67CE3B493CD130963A9671, 1),
    ('2^255+19', 'N', 0x0C63BB52BF2F76390B7658CB889713C9F2FB1CCE367592ADCCF72A2476A343EA,
     0x24D0955D472A60AAB272E01BB790C739A52F91DDD39EC61D256FE5FF7B793D9F, 1),
    ('2^255+19', 'N+1', 0xDBDB20FB0310BD1E1B43CDD4C474ED2CA580C1D9F5EA05C9DFE4A07D7DA44132,
     0x0C455E3E2CC925D3A2CECEC6082928F581CEA8F0124B7ECF171568FC1C173697, 0),
    ('2^255+19', 'keccak(abc)', 0xB4F5493BC2F6FC2012F74B0076B062BA6F2AC89C0D7D705EA29668B58F35DD61,
     0x6376310212FDDC7D205E240C4B27407DB5152A115F9AA3D5813126405C27B68A, 0),
]


@pytest.mark.parametrize("key, digest, r, s, bit", PINNED_SIGNATURES,
                         ids=["%s-%s" % row[:2] for row in PINNED_SIGNATURES])
def test_pinned_signatures(backend, monkeypatch, key, digest, r, s, bit):
    key, digest = SIGNATURE_KEYS[key], SIGNATURE_DIGESTS[digest]
    assert backend.recover_public_key(digest, r, s, bit) == backend.scalar_mult_base(key)
    monkeypatch.setattr(secp256k1, "backend", backend)
    assert secp256k1.sign_recoverable(digest, key) == (r, s, bit)


def test_the_published_rfc6979_vector(backend, monkeypatch):
    # the secp256k1 vector Bitcoin libraries publish: key 1, SHA-256 of
    # "Satoshi Nakamoto"
    monkeypatch.setattr(secp256k1, "backend", backend)
    digest = hashlib.sha256(b"Satoshi Nakamoto").digest()
    assert secp256k1.sign_recoverable(digest, 1) == (
        0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
        0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5, 1)


@settings(max_examples=100, deadline=None)
@given(key=st.one_of(st.integers(min_value=1, max_value=N - 1),
                     st.sampled_from([1, 2, N - 2, N - 1])),
       digest=st.binary(min_size=32, max_size=32))
def test_sign_recoverable_matches_the_reference(compiled_kernel, key, digest):
    k = next(secp256k1.rfc6979_nonces(digest, key))
    signature = compiled_kernel.sign_with_nonce(digest, key, k)
    assert signature == _purepy.sign_with_nonce(digest, key, k)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secp256k1, "backend", compiled_kernel)
        assert secp256k1.sign_recoverable(digest, key) == signature
    assert compiled_kernel.recover_public_key(digest, *signature) == \
        _purepy.scalar_mult_base(key)


@settings(max_examples=100, deadline=None)
@given(k=st.one_of(st.integers(min_value=0, max_value=(1 << 256) - 1),
                   st.sampled_from([0, 1, N - 1, N, N + 1, (1 << 256) - 1])),
       key=st.integers(min_value=1, max_value=N - 1),
       digest=st.binary(min_size=32, max_size=32))
def test_sign_with_nonce_matches_the_reference(compiled_kernel, k, key, digest):
    signature = compiled_kernel.sign_with_nonce(digest, key, k)
    assert signature == _purepy.sign_with_nonce(digest, key, k)
    assert (signature is None) == (not 1 <= k < N)


def test_first_nonces_are_pinned():
    # key 1, digest 0, pinned from the pure-Python backend's own generator
    # before the nonces moved into `secp256k1`, so the move changed no nonce
    assert list(itertools.islice(secp256k1.rfc6979_nonces(bytes(32), 1), 3)) == [
        0x010497D369B3D525CA15EC29C104A694210BB59FF6CABFC10AFE6DF0283896DF,
        0xA9B1A1A84A4C2F96B6158ED7A81404C50CB74373C22E8D9E02D0411D719ACAE2,
        0x440961852BB5677A94A39212B0276EDFE0AC86A12B044522406B2D6319D42B76,
    ]


@pytest.mark.parametrize("k", [0, N], ids=["0", "N"])
def test_sign_with_nonce_rejects_a_nonce_out_of_range(backend, k):
    assert backend.sign_with_nonce(b"\x55" * 32, 0xC0FFEE, k) is None


def test_sign_with_nonce_rejects_a_zero_s(backend):
    # z = -r*d (mod N) makes z + r*d, and so s, zero
    key, k = 0xC0FFEE, 0xBEEF
    r = backend.scalar_mult_base(k)[0]
    digest = (-r * key % N).to_bytes(32, "big")
    assert backend.sign_with_nonce(digest, key, k) is None
    assert backend.sign_with_nonce(digest, key, k + 1) is not None


class FirstNonceRejected:
    """A backend whose first `sign_with_nonce` answer is None."""

    def __init__(self, backend):
        self.backend = backend
        self.nonces = []

    def sign_with_nonce(self, digest, key, k):
        self.nonces.append(k)
        if len(self.nonces) == 1:
            return None
        return self.backend.sign_with_nonce(digest, key, k)


def test_a_rejected_nonce_signs_with_the_next(backend, monkeypatch):
    digest, key = b"\x66" * 32, 0xC0FFEE
    stub = FirstNonceRejected(backend)
    monkeypatch.setattr(secp256k1, "backend", stub)
    signature = secp256k1.sign_recoverable(digest, key)
    first, second = itertools.islice(secp256k1.rfc6979_nonces(digest, key), 2)
    assert stub.nonces == [first, second]
    assert signature == backend.sign_with_nonce(digest, key, second)
    assert signature != backend.sign_with_nonce(digest, key, first)
    assert backend.recover_public_key(digest, *signature) == backend.scalar_mult_base(key)


def recovery_outcome(backend, args):
    """The recovered point, or the message of the backend's ValueError."""
    try:
        return backend.recover_public_key(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def recovery_inputs(draw):
    """(digest, r, s, bit) in the ranges `secp256k1` admits: arbitrary ones,
    for about half of which r has no curve point, or a signature whose key
    is the point at infinity (R = k*G and z = s*k make s*R - z*G zero)."""
    s = draw(st.integers(min_value=1, max_value=N // 2))
    if draw(st.booleans()):
        return (draw(st.binary(min_size=32, max_size=32)),
                draw(st.integers(min_value=1, max_value=N - 1)), s,
                draw(st.integers(min_value=0, max_value=1)))
    k = draw(st.integers(min_value=1, max_value=N - 1))
    x, y = _purepy.scalar_mult_base(k)
    assume(x < N)
    return (s * k % N).to_bytes(32, "big"), x, s, y & 1


@settings(max_examples=150, deadline=None)
@given(args=recovery_inputs())
def test_recover_public_key_matches_the_reference(compiled_kernel, args):
    outcome = recovery_outcome(compiled_kernel, args)
    assert outcome == recovery_outcome(_purepy, args)
    assert outcome in ("signature point is not on the curve",
                       "recovered the point at infinity") or secp256k1.is_on_curve(outcome)


def test_recovery_rejects_the_point_at_infinity(backend, monkeypatch):
    monkeypatch.setattr(secp256k1, "backend", backend)
    k, s = 0xC0FFEE, 12345
    x, y = backend.scalar_mult_base(k)
    with pytest.raises(SignatureError, match="recovered the point at infinity"):
        secp256k1.recover_public_key((s * k % N).to_bytes(32, "big"), x, s, y & 1)


def structured_scalars():
    """Scalars whose bit patterns stress the divsteps of an inversion: powers
    of two and their neighbours, N - 2^k, and long runs of zeros and ones."""
    values = set()
    for k in range(256):
        values.update((1 << k, (1 << k) - 1, N - (1 << k)))
    for width in (32, 64, 128, 192, 255):
        for shift in (0, 1, 31, 64, 255 - width):
            values.add(((1 << width) - 1) << shift)
    values.update(int(pattern * 32, 16) for pattern in ("55", "aa", "f0", "0f", "ff00", "00ff"))
    return sorted(v % N for v in values if v % N)


def test_inverse_mod_n_on_structured_scalars(backend):
    for k in structured_scalars():
        assert backend.inverse_mod_n(k) == pow(k, -1, N), hex(k)


def test_scalar_mult_base_on_structured_scalars(compiled_kernel):
    # each result passes through an inversion mod p of the sum's Z
    for k in structured_scalars():
        assert compiled_kernel.scalar_mult_base(k) == _purepy.scalar_mult_base(k), hex(k)
