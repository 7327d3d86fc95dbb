"""Settlement transaction signing, serialization, and recovery."""

import random
import tracemalloc

import pytest

from sealedbid.crypto import secp256k1
from sealedbid.errors import CodecError, ConfigError, SignatureError
from sealedbid.transactions import (
    SignedTransaction,
    UnsignedTx,
    derive_address,
    recover_signer,
    sign_tx,
)

# canonical replay-protection example: chain 1, key 0x46...46,
# 1 ether to 0x35...35 at 20 gwei
KNOWN_KEY = 0x4646464646464646464646464646464646464646464646464646464646464646
KNOWN_TX = UnsignedTx(nonce=9, gas_price=20_000_000_000, gas_limit=21_000,
                      to=bytes.fromhex("35" * 20), value=10 ** 18,
                      data=b"", chain_id=1)
KNOWN_DIGEST = "daf5a779ae972f972197303d7b574746c7ef83eadac0f2791ad23db92e4c8e53"
KNOWN_RAW = (
    "f86c098504a817c800825208943535353535353535353535353535353535353535880"
    "de0b6b3a76400008025a028ef61340bd939bc2195fe537567866003e1a15d3c71ff63"
    "e1590620aa636276a067cbe9d8997f761aecb703304b3800ccf555c9f3dc64214b297"
    "fb1966a3b6d83"
)


def _random_key(rng):
    return rng.randrange(1, secp256k1.N)


def test_known_signing_digest():
    assert KNOWN_TX.signing_digest().hex() == KNOWN_DIGEST


def test_known_signed_payload_is_bit_exact():
    stx = sign_tx(KNOWN_TX, KNOWN_KEY)
    assert stx.raw().hex() == KNOWN_RAW
    assert stx.v == 37  # chain_id 1 -> 37/38


def test_known_payload_round_trip():
    stx = SignedTransaction.from_raw(bytes.fromhex(KNOWN_RAW))
    assert stx.chain_id == 1
    assert stx.nonce == 9
    assert stx.value == 10 ** 18
    assert stx.raw().hex() == KNOWN_RAW
    assert recover_signer(stx) == derive_address(secp256k1.public_key(KNOWN_KEY))


def test_from_raw_accepts_hex_strings():
    assert SignedTransaction.from_raw("0x" + KNOWN_RAW).raw().hex() == KNOWN_RAW


def test_address_derivation_vector():
    addr = derive_address(secp256k1.public_key(1))
    assert addr.hex() == "7e5f4552091a69125d5dfcb7b8c2659029395bdf"
    assert len(addr) == 20


def test_address_derivation_deterministic_and_injective():
    a1 = derive_address(secp256k1.public_key(1001))
    a2 = derive_address(secp256k1.public_key(1001))
    a3 = derive_address(secp256k1.public_key(1002))
    assert a1 == a2
    assert a1 != a3


def test_derive_address_rejects_off_curve():
    from sealedbid.errors import KeyMaterialError
    with pytest.raises(KeyMaterialError):
        derive_address((5, 7))


def test_sign_recover_identity_random():
    rng = random.Random(11)
    for _ in range(50):
        key = _random_key(rng)
        tx = UnsignedTx(nonce=rng.randrange(0, 100),
                        gas_price=rng.randrange(1, 10 ** 10),
                        gas_limit=21_000,
                        to=rng.randbytes(20),
                        value=rng.randrange(0, 10 ** 18),
                        data=rng.randbytes(rng.randrange(0, 40)),
                        chain_id=rng.randrange(1, 1000))
        stx = sign_tx(tx, key)
        assert recover_signer(stx) == derive_address(secp256k1.public_key(key))
        assert SignedTransaction.from_raw(stx.raw()) == stx


def test_same_tx_distinct_chains_distinct_signatures():
    tx1 = UnsignedTx(0, 1, 21_000, b"\x01" * 20, 5, b"", chain_id=1)
    tx2 = UnsignedTx(0, 1, 21_000, b"\x01" * 20, 5, b"", chain_id=2)
    s1 = sign_tx(tx1, 777)
    s2 = sign_tx(tx2, 777)
    assert (s1.r, s1.s) != (s2.r, s2.s)
    assert s1.chain_id == 1 and s2.chain_id == 2


def test_tampered_value_changes_recovered_signer():
    stx = sign_tx(KNOWN_TX, KNOWN_KEY)
    tampered = SignedTransaction(
        nonce=stx.nonce, gas_price=stx.gas_price, gas_limit=stx.gas_limit,
        to=stx.to, value=stx.value + 1, data=stx.data,
        v=stx.v, r=stx.r, s=stx.s)
    try:
        assert recover_signer(tampered) != recover_signer(stx)
    except SignatureError:
        pass  # failing to recover at all is also acceptable


def test_high_s_rejected_on_recovery():
    stx = sign_tx(KNOWN_TX, KNOWN_KEY)
    mangled = SignedTransaction(
        nonce=stx.nonce, gas_price=stx.gas_price, gas_limit=stx.gas_limit,
        to=stx.to, value=stx.value, data=stx.data,
        v=stx.v, r=stx.r, s=secp256k1.N - stx.s)
    with pytest.raises(SignatureError):
        recover_signer(mangled)


def test_pre_replay_protection_v_rejected():
    stx = sign_tx(KNOWN_TX, KNOWN_KEY)
    legacy = SignedTransaction(
        nonce=stx.nonce, gas_price=stx.gas_price, gas_limit=stx.gas_limit,
        to=stx.to, value=stx.value, data=stx.data,
        v=27, r=stx.r, s=stx.s)
    with pytest.raises(SignatureError):
        recover_signer(legacy)


def test_from_raw_validates_structure():
    with pytest.raises(CodecError):
        SignedTransaction.from_raw(b"\xc2\x05\x80")  # wrong arity
    stx = sign_tx(KNOWN_TX, KNOWN_KEY)
    raw = bytearray(stx.raw())
    with pytest.raises(CodecError):
        SignedTransaction.from_raw(bytes(raw[:-2]))  # truncated


@pytest.mark.parametrize("raw", [10**6, -2**200, None, 1.5, [b"\x80"]])
def test_from_raw_takes_only_hex_or_bytes(raw):
    # an int is refused before `bytes(N)` could build N zero bytes
    tracemalloc.start()
    try:
        with pytest.raises(CodecError, match="is hex or bytes"):
            SignedTransaction.from_raw(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_unsigned_tx_field_validation():
    with pytest.raises(ConfigError):
        UnsignedTx(-1, 1, 21_000, b"\x00" * 20, 0)
    with pytest.raises(ConfigError):
        UnsignedTx(0, 1, 21_000, b"\x00" * 19, 0)
    with pytest.raises(ConfigError):
        UnsignedTx(0, 1, 21_000, b"\x00" * 20, -5)


def test_integer_fields_encode_minimally():
    stx = sign_tx(UnsignedTx(0, 0, 21_000, b"\x09" * 20, 0, b"", 1), 5)
    raw = stx.raw()
    # nonce/gas_price/value are zero: each must appear as an empty string
    decoded = SignedTransaction.from_raw(raw)
    assert decoded.nonce == 0 and decoded.gas_price == 0 and decoded.value == 0
    assert raw == decoded.raw()
