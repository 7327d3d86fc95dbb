"""Emulated enclave: sealed-store fault paths, test-only hooks, envelopes."""

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from sealedbid.enclave import (
    AttestationReport,
    Enclave,
    Envelope,
    decrypt_envelope,
    verify_attestation,
)
from sealedbid.errors import (
    EnclaveModeError,
    EnvelopeAuthError,
    SealedStoreIntegrity,
    SealedStoreMissing,
    SealedStoreRollback,
)

LABEL = "auction/00000000/registry"


def sealed(*values):
    enclave = Enclave(mode="test", seed=7)
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


@pytest.mark.parametrize("hook,args", [
    ("tamper_sealed_entry", (LABEL, b"x")),
    ("snapshot_sealed_entry", (LABEL,)),
    ("inject_sealed_entry", (LABEL, None)),
    ("compromise", ()),
])
def test_fault_hooks_are_refused_in_production(hook, args):
    enclave = Enclave(mode="production")
    enclave.seal_put(LABEL, b"[]")
    with pytest.raises(EnclaveModeError):
        getattr(enclave, hook)(*args)
    assert enclave.seal_get(LABEL) == b"[]"
    assert not enclave.compromised


def test_envelope_record_round_trip_and_authentication():
    enclave = Enclave(mode="test", seed=7)
    recipient_private = bytes(range(32))
    recipient_public = X25519PrivateKey.from_private_bytes(
        recipient_private).public_key().public_bytes_raw()
    envelope = enclave.encrypt_to(recipient_public, b"escrow")
    restored = Envelope.from_record(envelope.to_record())
    assert restored == envelope
    assert decrypt_envelope(recipient_private, restored) == b"escrow"
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(bytes(32), restored)
    flipped = Envelope(envelope.recipient_public_key, envelope.sender_ephemeral,
                       bytes([envelope.ciphertext[0] ^ 1]) + envelope.ciphertext[1:])
    with pytest.raises(EnvelopeAuthError):
        decrypt_envelope(recipient_private, flipped)


def test_attestation_record_round_trip_verifies():
    enclave = Enclave(mode="test", seed=7)
    report = AttestationReport.from_record(enclave.attest(b"payload").to_record())
    assert verify_attestation(report, enclave.code_hash, b"payload",
                              enclave.attestation_address)
    assert not verify_attestation(report, enclave.code_hash, b"other",
                                  enclave.attestation_address)
