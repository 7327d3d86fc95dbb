"""Deterministic emulation of the confidential execution environment.

An Enclave owns signing keys (never exported), a tamper-evident sealed
store with rollback protection, a randomness stream seeded per run,
recipient-keyed output envelopes, and a software attestation stub that
binds a code identity to each emitted payload.

Envelope suite (build-time constant): X25519 ephemeral key agreement,
HKDF-SHA256, ChaCha20-Poly1305 with the key pair hashes as AAD. A fresh
ephemeral key is drawn from enclave randomness per envelope, so the
zero nonce is single-use.
"""

import hashlib
import hmac
import threading
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.hashes import SHA256
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from sealedbid.crypto import keccak_256, secp256k1
from sealedbid.errors import (
    ConfigError,
    EnvelopeAuthError,
    KeyMaterialError,
    SealedStoreIntegrity,
    SealedStoreMissing,
    SealedStoreRollback,
)
from sealedbid.events import HexNeedles, find_hex, unhx
from sealedbid.transactions import (
    SignedTransaction,
    UnsignedTx,
    derive_address,
    sign_tx,
)

# the code identity every attestation binds
CODE_HASH = keccak_256(b"sealedbid/auction-logic/v1")

_ENVELOPE_INFO = b"sealedbid/envelope/v1"


class DeterministicStream:
    """SHA-256 counter stream: reproducible bytes for a seeded enclave."""

    def __init__(self, seed):
        if isinstance(seed, int):
            if not -2**127 <= seed < 2**127:
                raise ConfigError("seed %d is outside the signed 128-bit range" % seed)
            seed = seed.to_bytes(16, "big", signed=True)
        self._state = hashlib.sha256(b"sealedbid/stream/" + bytes(seed)).digest()
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._state + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out


@dataclass(frozen=True)
class Envelope:
    """Recipient-keyed authenticated ciphertext emitted by the enclave."""

    recipient_public_key: bytes
    sender_ephemeral: bytes
    ciphertext: bytes

    def to_record(self) -> dict:
        return {
            "recipient_key": "0x" + self.recipient_public_key.hex(),
            "ephemeral_key": "0x" + self.sender_ephemeral.hex(),
            "ciphertext": "0x" + self.ciphertext.hex(),
        }

    @classmethod
    def from_record(cls, record: dict) -> "Envelope":
        return cls(unhx(record["recipient_key"]),
                   unhx(record["ephemeral_key"]),
                   unhx(record["ciphertext"]))


@dataclass(frozen=True)
class AttestationReport:
    code_hash: bytes
    output_digest: bytes
    report_signature: Tuple[int, int, int]  # (r, s, recovery_bit)

    def to_record(self) -> dict:
        r, s, bit = self.report_signature
        return {
            "code_hash": "0x" + self.code_hash.hex(),
            "output_digest": "0x" + self.output_digest.hex(),
            "signature": "0x" + (r.to_bytes(32, "big") + s.to_bytes(32, "big")
                                 + bytes([bit])).hex(),
        }

    @classmethod
    def from_record(cls, record: dict) -> "AttestationReport":
        sig = unhx(record["signature"])
        return cls(
            unhx(record["code_hash"]),
            unhx(record["output_digest"]),
            (int.from_bytes(sig[:32], "big"), int.from_bytes(sig[32:64], "big"),
             sig[64]),
        )


class _SealedEntry:
    __slots__ = ("version", "value", "mac")

    def __init__(self, version, value, mac):
        self.version = version
        self.value = value
        self.mac = mac


class Enclave:
    """All operations on one instance are serialized; keys never leave."""

    def __init__(self, seed: int):
        self.code_hash = CODE_HASH
        self._lock = threading.RLock()
        self._stream: Callable[[int], bytes] = DeterministicStream(seed).read
        self._seal_key = self._stream(32)
        self._sealed: Dict[str, _SealedEntry] = {}
        self._versions: Dict[str, int] = {}  # trusted monotonic counters
        self._keys: Dict[str, int] = {}
        self._key_count = 0
        # attestation identity, published for external verifiers
        self._attestation_key = secp256k1.generate_private_key(self._stream)
        self.attestation_address = derive_address(
            secp256k1.public_key(self._attestation_key))
        # encrypted-input identity (bidders encrypt registrations to this)
        self._input_key = X25519PrivateKey.from_private_bytes(self._stream(32))
        self.input_public_key = self._input_key.public_key().public_bytes_raw()

    # -- randomness ----------------------------------------------------------

    def random(self, n: int) -> bytes:
        if n < 0:
            raise ConfigError("cannot draw a negative number of bytes")
        with self._lock:
            return self._stream(n)

    # -- key registry ----------------------------------------------------------

    def generate_keypair(self) -> Tuple[str, bytes]:
        """New settlement keypair; returns (handle, address), never the key."""
        with self._lock:
            private_key = secp256k1.generate_private_key(self._stream)
            handle = "key-%04d" % self._key_count
            self._key_count += 1
            self._keys[handle] = private_key
            address = derive_address(secp256k1.public_key(private_key))
            return handle, address

    def sign_with(self, handle: str, tx: UnsignedTx) -> SignedTransaction:
        with self._lock:
            if handle not in self._keys:
                raise KeyMaterialError("unknown key handle %r" % handle)
            return sign_tx(tx, self._keys[handle])

    # -- sealed store ----------------------------------------------------------

    def _mac(self, label: str, version: int, value: bytes) -> bytes:
        message = label.encode() + b"\x00" + version.to_bytes(8, "big") + value
        return hmac.new(self._seal_key, message, hashlib.sha256).digest()

    def seal_put(self, label: str, value: bytes) -> None:
        with self._lock:
            version = self._versions.get(label, 0) + 1
            self._versions[label] = version
            self._sealed[label] = _SealedEntry(
                version, bytes(value), self._mac(label, version, bytes(value)))

    def seal_get(self, label: str) -> bytes:
        with self._lock:
            entry = self._sealed.get(label)
            if entry is None:
                raise SealedStoreMissing("no sealed entry %r" % label)
            if entry.version != self._versions.get(label):
                raise SealedStoreRollback(
                    "stale snapshot for %r (version %d, expected %d)"
                    % (label, entry.version, self._versions.get(label, 0)))
            if not hmac.compare_digest(
                    entry.mac, self._mac(label, entry.version, entry.value)):
                raise SealedStoreIntegrity("sealed entry %r fails MAC" % label)
            return entry.value

    # fault-injection hooks (the "host" mutating storage behind the enclave)

    def tamper_sealed_entry(self, label: str, new_value: bytes) -> None:
        with self._lock:
            entry = self._sealed[label]
            self._sealed[label] = _SealedEntry(entry.version, bytes(new_value),
                                               entry.mac)

    def snapshot_sealed_entry(self, label: str) -> _SealedEntry:
        with self._lock:
            return self._sealed[label]

    def inject_sealed_entry(self, label: str, snapshot: _SealedEntry) -> None:
        with self._lock:
            self._sealed[label] = snapshot

    # -- envelopes ---------------------------------------------------------------

    def encrypt_to(self, recipient_public_key: bytes, plaintext: bytes) -> Envelope:
        if not isinstance(recipient_public_key, (bytes, bytearray)) \
                or len(recipient_public_key) != 32:
            raise KeyMaterialError("recipient key must be 32 bytes")
        with self._lock:
            ephemeral_private_bytes = self._stream(32)
        return _seal_envelope(recipient_public_key, plaintext, ephemeral_private_bytes)

    def decrypt_input(self, envelope: Envelope) -> bytes:
        """Open an envelope addressed to the enclave's input key."""
        if envelope.recipient_public_key != self.input_public_key:
            raise EnvelopeAuthError("envelope is not addressed to this enclave")
        with self._lock:
            return _open_box(self._input_key, envelope)

    # -- attestation ---------------------------------------------------------------

    def attest(self, payload: bytes) -> AttestationReport:
        with self._lock:
            output_digest = keccak_256(bytes(payload))
            digest = keccak_256(self.code_hash + output_digest)
            signature = secp256k1.sign_recoverable(digest, self._attestation_key)
            return AttestationReport(self.code_hash, output_digest, signature)

    # -- breach switch ---------------------------------------------------------------

    def compromise(self) -> Dict[str, bytes]:
        """Full TEE breach for threat scenarios: exports every private key."""
        with self._lock:
            exported = {h: k.to_bytes(32, "big") for h, k in self._keys.items()}
            exported["attestation"] = self._attestation_key.to_bytes(32, "big")
            exported["input-encryption"] = self._input_key.private_bytes_raw()
            return exported

    def scan_for_key_leaks(self, *logs: Sequence[str]) -> int:
        """Count the enclave's private keys, as hex, in public logs.

        Each log is a list of lines. The count is the sum over the logs
        of how many keys occur in each log, lowercased. It runs inside the
        trust boundary, so no key material crosses it, and only the count
        comes out. Each log is read once (`find_hex`), however many keys
        there are, and no log is copied whole. The keys' word table is
        built once per scan.
        """
        with self._lock:
            material = [k.to_bytes(32, "big").hex() for k in self._keys.values()]
            material.append(self._attestation_key.to_bytes(32, "big").hex())
            material.append(self._input_key.private_bytes_raw().hex())
        keys = HexNeedles(material)
        return sum(len(find_hex(lines, keys)) for lines in logs)


def _seal_envelope(recipient_public_key: bytes, plaintext: bytes,
                   ephemeral_private_bytes: bytes) -> Envelope:
    """Encrypt `plaintext` to a recipient's X25519 key under the ephemeral
    key whose 32 private bytes are given."""
    recipient_pub = bytes(recipient_public_key)
    ephemeral = X25519PrivateKey.from_private_bytes(bytes(ephemeral_private_bytes))
    ephemeral_pub = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_pub))
    key = HKDF(algorithm=SHA256(), length=32,
               salt=ephemeral_pub + recipient_pub,
               info=_ENVELOPE_INFO).derive(shared)
    ciphertext = ChaCha20Poly1305(key).encrypt(b"\x00" * 12, bytes(plaintext),
                                               ephemeral_pub + recipient_pub)
    return Envelope(recipient_pub, ephemeral_pub, ciphertext)


def _open_box(private_key: X25519PrivateKey, envelope: Envelope) -> bytes:
    ephemeral = X25519PublicKey.from_public_bytes(envelope.sender_ephemeral)
    shared = private_key.exchange(ephemeral)
    key = HKDF(algorithm=SHA256(), length=32,
               salt=envelope.sender_ephemeral + envelope.recipient_public_key,
               info=_ENVELOPE_INFO).derive(shared)
    try:
        return ChaCha20Poly1305(key).decrypt(
            b"\x00" * 12, envelope.ciphertext,
            envelope.sender_ephemeral + envelope.recipient_public_key)
    except InvalidTag as exc:
        raise EnvelopeAuthError("envelope failed authentication") from exc


def encrypt_to_key(recipient_public_key: bytes, plaintext: bytes,
                   ephemeral_private_bytes: bytes) -> Envelope:
    """Sender-side sealing for parties outside an enclave (e.g. bidders
    encrypting registration payloads to the enclave's input key)."""
    if len(recipient_public_key) != 32:
        raise KeyMaterialError("recipient key must be 32 bytes")
    if len(ephemeral_private_bytes) != 32:
        raise KeyMaterialError("ephemeral key must be 32 bytes")
    return _seal_envelope(recipient_public_key, plaintext, ephemeral_private_bytes)


def decrypt_envelope(private_key: X25519PrivateKey, envelope: Envelope) -> bytes:
    """Recipient-side decryption (bidders run this outside the enclave)."""
    expected_pub = private_key.public_key().public_bytes_raw()
    if expected_pub != envelope.recipient_public_key:
        raise EnvelopeAuthError("envelope is addressed to a different key")
    return _open_box(private_key, envelope)


def verify_attestation(report: AttestationReport, expected_code_hash: bytes,
                       payload: bytes, attestation_address: bytes) -> bool:
    """True iff code hash, payload digest, and report signature all match."""
    if report.code_hash != expected_code_hash:
        return False
    output_digest = keccak_256(bytes(payload))
    if report.output_digest != output_digest:
        return False
    digest = keccak_256(report.code_hash + output_digest)
    r, s, bit = report.report_signature
    try:
        point = secp256k1.recover_public_key(digest, r, s, bit)
    except Exception:
        return False
    return derive_address(point) == attestation_address
