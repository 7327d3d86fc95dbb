"""Emulated enclave: sealed-store fault paths, envelopes, attestation and the key scan."""

import pytest
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from sealedbid import enclave as enclave_module, events
from sealedbid.enclave import (
    AttestationReport,
    DeterministicStream,
    Enclave,
    Envelope,
    decrypt_envelope,
    encrypt_to_key,
    verify_attestation,
)
from sealedbid.errors import (
    EnvelopeAuthError,
    SealedStoreIntegrity,
    SealedStoreMissing,
    SealedStoreRollback,
)

LABEL = "auction/00000000/registry"


@pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
def test_a_seed_at_either_end_of_the_range_keeps_its_bytes(seed):
    assert DeterministicStream(seed).read(64) == \
        DeterministicStream(seed.to_bytes(16, "big", signed=True)).read(64)


def sealed(*values):
    enclave = Enclave(seed=7)
    for value in values:
        enclave.seal_put(LABEL, value)
    return enclave


def test_seal_round_trip_returns_latest_value():
    assert sealed(b"[]", b"[1]").seal_get(LABEL) == b"[1]"


def test_unknown_label_is_missing():
    with pytest.raises(SealedStoreMissing):
        sealed(b"[]").seal_get("auction/00000000/asset")


def test_tampered_entry_fails_integrity():
    enclave = sealed(b"[]")
    enclave.tamper_sealed_entry(LABEL, b"corrupted")
    with pytest.raises(SealedStoreIntegrity) as err:
        enclave.seal_get(LABEL)
    assert type(err.value) is SealedStoreIntegrity


def test_replayed_snapshot_is_a_rollback():
    enclave = sealed(b"[]")
    old = enclave.snapshot_sealed_entry(LABEL)
    enclave.seal_put(LABEL, b"[1]")
    enclave.inject_sealed_entry(LABEL, old)
    with pytest.raises(SealedStoreRollback):
        enclave.seal_get(LABEL)


def registered(enclave, ephemeral=bytes(range(32)), plaintext=b"claim"):
    """A request to `enclave`'s input key, opened: (request, reply key
    the bidder holds, reply key the enclave derived)."""
    request, bidder_key = encrypt_to_key(enclave.input_public_key, plaintext, ephemeral)
    opened, enclave_key = enclave.decrypt_input(request)
    assert opened == plaintext
    return request, bidder_key, enclave_key


def test_envelope_record_round_trip_and_authentication():
    enclave = Enclave(seed=7)
    request, reply_key, enclave_key = registered(enclave)
    assert enclave_key == reply_key
    envelope = enclave.encrypt_to(enclave_key, request, b"escrow")
    # the reply names the request's keys
    assert (envelope.recipient_public_key, envelope.sender_ephemeral) == \
        (enclave.input_public_key, request.sender_ephemeral)
    restored = Envelope.from_record(envelope.to_record())
    assert restored == envelope
    assert decrypt_envelope(reply_key, restored) == b"escrow"
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(bytes(32), restored)
    flipped = Envelope(envelope.recipient_public_key, envelope.sender_ephemeral,
                       bytes([envelope.ciphertext[0] ^ 1]) + envelope.ciphertext[1:])
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(reply_key, flipped)
    # the reply's keys are its AAD: naming another request fails
    moved = Envelope(envelope.recipient_public_key, bytes(32), envelope.ciphertext)
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(reply_key, moved)


def test_the_reply_key_is_not_the_request_key():
    enclave = Enclave(seed=7)
    request, reply_key, _ = registered(enclave)
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(reply_key, request)
    # both are HKDF-SHA256 of the one secret and salt, under their own info
    shared, salt = bytes(range(32, 64)), request.aad
    request_key, reply_key = enclave_module._envelope_keys(shared, salt)
    assert request_key != reply_key
    for info, key in ((b"sealedbid/envelope/v1", request_key),
                      (b"sealedbid/envelope-reply/v1", reply_key)):
        assert key == HKDF(algorithm=SHA256(), length=32, salt=salt,
                           info=info).derive(shared)


def test_one_registrations_reply_key_cannot_open_anothers_reply():
    enclave = Enclave(seed=7)
    _, first_key, _ = registered(enclave, bytes(range(32)))
    second, second_key, enclave_key = registered(enclave, bytes(range(1, 33)))
    assert first_key != second_key
    reply = enclave.encrypt_to(enclave_key, second, b"escrow")
    assert decrypt_envelope(second_key, reply) == b"escrow"
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(first_key, reply)


def test_the_input_key_accepts_each_request_once(monkeypatch):
    enclave = Enclave(seed=7)
    request, _, _ = registered(enclave)

    class NoAgreement:
        def exchange(self, peer):
            raise AssertionError("a replayed request reached the key agreement")

    monkeypatch.setattr(enclave, "_input_key", NoAgreement())
    with pytest.raises(EnvelopeAuthError, match="replays an accepted request"):
        enclave.decrypt_input(request)


def test_a_forged_request_does_not_use_up_its_ephemeral_key():
    enclave = Enclave(seed=7)
    request, _ = encrypt_to_key(enclave.input_public_key, b"claim", bytes(range(32)))
    forged = Envelope(request.recipient_public_key, request.sender_ephemeral,
                      bytes(len(request.ciphertext)))
    with pytest.raises(EnvelopeAuthError, match="failed authentication"):
        enclave.decrypt_input(forged)
    assert enclave.decrypt_input(request)[0] == b"claim"


def test_attestation_record_round_trip_verifies():
    enclave = Enclave(seed=7)
    report = AttestationReport.from_record(enclave.attest(b"payload").to_record())
    assert verify_attestation(report, enclave.code_hash, b"payload",
                              enclave.attestation_address)
    assert not verify_attestation(report, enclave.code_hash, b"other",
                                  enclave.attestation_address)


def key_scan_enclave():
    """An enclave with two escrow keys, and its private keys as hex."""
    enclave = Enclave(seed=7)
    enclave.generate_keypair()
    enclave.generate_keypair()
    exported = enclave.compromise()
    return enclave, {name: key.hex() for name, key in exported.items()}


def test_key_scan_counts_each_private_key():
    enclave, keys = key_scan_enclave()
    assert len(keys) == 4  # two escrow keys, the attestation and the input key
    for name, key in keys.items():
        assert enclave.scan_for_key_leaks(['{"note":"0x%s"}' % key]) == 1, name


def test_key_scan_counts_each_text_and_case():
    enclave, keys = key_scan_enclave()
    attestation = keys["attestation"]
    events = ["0x%s" % attestation.upper(), keys["input-encryption"]]
    audit = ["ff%sff%s" % (attestation, attestation)]
    # two keys in the events, one (twice) in the audit
    assert enclave.scan_for_key_leaks(events, audit) == 3


def test_key_scan_of_clean_text_is_zero():
    enclave, keys = key_scan_enclave()
    near = [key[:-1] + ("0" if key[-1] != "0" else "1") for key in keys.values()]
    assert enclave.scan_for_key_leaks([], [""], near, ['{"event":"Open"}']) == 0


def test_key_scan_builds_the_keys_word_table_once(monkeypatch):
    enclave, keys = key_scan_enclave()
    escrow = "ab" * 20
    event_lines = ['{"a":"0x%s","k":"%s"}' % (escrow, keys["attestation"])]
    audit_lines = ['{"q":"%s","r":"%s"}' % (keys["input-encryption"], escrow)]
    assert enclave.scan_for_key_leaks(event_lines, audit_lines) == 2
    built = []
    real = events._anchor_table

    def anchor_table(needles):
        built.append(set(needles))
        return real(needles)

    monkeypatch.setattr(events, "_anchor_table", anchor_table)
    assert enclave.scan_for_key_leaks(event_lines, audit_lines) == 2
    # the keys' table once, whatever the number of logs
    assert built == [set(keys.values())]
