"""Deterministic emulation of the confidential execution environment.

An Enclave owns signing keys (never exported), a tamper-evident sealed
store with rollback protection, a randomness stream seeded per run,
encrypted registrations and their replies, and a software attestation
stub that binds a code identity to each emitted payload.

Envelope suite (build-time constant), after HPKE's bidirectional mode
(RFC 9180, section 9.8): one X25519 agreement between a bidder's fresh
ephemeral key and the enclave's input key keys both directions.
HKDF-SHA256 of the secret, salted with both public keys, gives the request
key (info `sealedbid/envelope/v1`) and the reply key
(`sealedbid/envelope-reply/v1`). Each seals one ChaCha20-Poly1305 message
under the zero nonce, with the request's two public keys, which the reply
also names, as AAD. The zero nonce stays single-use: the input key accepts
each ephemeral key once, once it authenticates, so a replayed request is
refused before anything is drawn or sealed.
"""

import hashlib
import hmac
import threading
from dataclasses import dataclass, replace
from typing import Callable, Dict, Sequence, Set, Tuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

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

_REQUEST_INFO = b"sealedbid/envelope/v1"
_REPLY_INFO = b"sealedbid/envelope-reply/v1"
_NONCE = b"\x00" * 12


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
    """A request to the enclave's input key, or the reply to one; both name
    the request's input and ephemeral public keys."""

    recipient_public_key: bytes
    sender_ephemeral: bytes
    ciphertext: bytes

    @property
    def aad(self) -> bytes:
        return self.sender_ephemeral + self.recipient_public_key

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
        self._accepted: Set[bytes] = set()  # request ephemerals already opened

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

    def decrypt_input(self, envelope: Envelope) -> Tuple[bytes, bytes]:
        """Open a request to the input key once: (plaintext, reply key)."""
        if envelope.recipient_public_key != self.input_public_key:
            raise EnvelopeAuthError("envelope is not addressed to this enclave")
        with self._lock:
            if envelope.sender_ephemeral in self._accepted:
                raise EnvelopeAuthError("envelope replays an accepted request")
            shared = self._input_key.exchange(
                X25519PublicKey.from_public_bytes(envelope.sender_ephemeral))
            request_key, reply_key = _envelope_keys(shared, envelope.aad)
            plaintext = _open(request_key, envelope)
            self._accepted.add(envelope.sender_ephemeral)
            return plaintext, reply_key

    def encrypt_to(self, reply_key: bytes, request: Envelope,
                   plaintext: bytes) -> Envelope:
        """The reply to `request`, sealed under the reply key `decrypt_input`
        gave for it: no key agreement and no draw."""
        sealed = ChaCha20Poly1305(reply_key).encrypt(_NONCE, bytes(plaintext), request.aad)
        return replace(request, ciphertext=sealed)

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


def _envelope_keys(shared: bytes, salt: bytes) -> Tuple[bytes, bytes]:
    """HKDF-SHA256 (RFC 5869, one 32-byte block each) of one X25519 secret:
    the (request, reply) keys."""
    prk = hmac.digest(salt, shared, "sha256")
    return (hmac.digest(prk, _REQUEST_INFO + b"\x01", "sha256"),
            hmac.digest(prk, _REPLY_INFO + b"\x01", "sha256"))


def _open(key: bytes, envelope: Envelope) -> bytes:
    try:
        return ChaCha20Poly1305(key).decrypt(_NONCE, envelope.ciphertext, envelope.aad)
    except InvalidTag as exc:
        raise EnvelopeAuthError("envelope failed authentication") from exc


def encrypt_to_key(recipient_public_key: bytes, plaintext: bytes,
                   ephemeral_private_bytes: bytes) -> Tuple[Envelope, bytes]:
    """Seal a request to the enclave's input key under the ephemeral key
    whose 32 private bytes are given (bidders run this outside the
    enclave); returns the envelope and the key that opens its reply."""
    if len(recipient_public_key) != 32:
        raise KeyMaterialError("recipient key must be 32 bytes")
    if len(ephemeral_private_bytes) != 32:
        raise KeyMaterialError("ephemeral key must be 32 bytes")
    recipient_pub = bytes(recipient_public_key)
    ephemeral = X25519PrivateKey.from_private_bytes(bytes(ephemeral_private_bytes))
    ephemeral_pub = ephemeral.public_key().public_bytes_raw()
    shared = ephemeral.exchange(X25519PublicKey.from_public_bytes(recipient_pub))
    request_key, reply_key = _envelope_keys(shared, ephemeral_pub + recipient_pub)
    ciphertext = ChaCha20Poly1305(request_key).encrypt(
        _NONCE, bytes(plaintext), ephemeral_pub + recipient_pub)
    return Envelope(recipient_pub, ephemeral_pub, ciphertext), reply_key


def decrypt_envelope(reply_key: bytes, envelope: Envelope) -> bytes:
    """Open the enclave's reply with the key `encrypt_to_key` returned
    (bidders run this outside the enclave)."""
    return _open(reply_key, envelope)


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
