"""Settlement transactions: signing, serialization, and signer recovery.

Legacy (pre-typed) transaction format with chain-id replay protection:
the signature covers rlp([nonce, gas_price, gas_limit, to, value, data,
chain_id, '', '']) and v encodes the chain id as chain_id*2 + 35 + parity.
All integer fields use minimal big-endian encoding; decoding enforces it.

A `SignedTransaction` is immutable, so its encodings and hashes are
memoised: `raw()` encodes it once, `tx_hash()` hashes it once and
`signing_digest()` is computed once (`sign_tx` stores the digest it
signed, so recovering the signer re-encodes nothing). `recover_signer`
recovers each transaction's sender once, as go-ethereum's per-transaction
sender cache does, so a transaction replayed by a reorg or submitted again
is not recovered again; only a recovery sets it, never `sign_tx`.
`from_raw` keeps its input bytes as the encoding, which strict decoding
makes identical to a re-encoding. Concurrent first calls may both compute
a value, but they store the same bytes, so no lock is needed.
"""

from dataclasses import dataclass

from sealedbid import rlp
from sealedbid.crypto import keccak_256, secp256k1
from sealedbid.errors import CodecError, ConfigError, KeyMaterialError, SignatureError

ADDRESS_LENGTH = 20


def derive_address(point: secp256k1.Point) -> bytes:
    """Last 20 bytes of keccak-256 over the 64-byte uncompressed encoding
    of a public key, given as its (x, y) point; raises KeyMaterialError
    for a point off the curve."""
    if not secp256k1.is_on_curve(point):
        raise KeyMaterialError("point is not on the curve")
    return keccak_256(secp256k1.public_key_bytes(point))[-ADDRESS_LENGTH:]


def _check_address(name: str, value: bytes) -> bytes:
    if not isinstance(value, (bytes, bytearray)) or len(value) != ADDRESS_LENGTH:
        raise ConfigError("%s must be a %d-byte address" % (name, ADDRESS_LENGTH))
    return bytes(value)


def _check_uint(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError("%s must be a non-negative integer" % name)
    return value


@dataclass(frozen=True)
class UnsignedTx:
    nonce: int
    gas_price: int
    gas_limit: int
    to: bytes
    value: int
    data: bytes = b""
    chain_id: int = 1

    def __post_init__(self):
        _check_uint("nonce", self.nonce)
        _check_uint("gas_price", self.gas_price)
        _check_uint("gas_limit", self.gas_limit)
        _check_address("to", self.to)
        _check_uint("value", self.value)
        _check_uint("chain_id", self.chain_id)
        if not isinstance(self.data, (bytes, bytearray)):
            raise ConfigError("data must be bytes")
        object.__setattr__(self, "to", bytes(self.to))
        object.__setattr__(self, "data", bytes(self.data))

    def signing_digest(self) -> bytes:
        preimage = rlp.encode([
            rlp.encode_int(self.nonce),
            rlp.encode_int(self.gas_price),
            rlp.encode_int(self.gas_limit),
            self.to,
            rlp.encode_int(self.value),
            self.data,
            rlp.encode_int(self.chain_id),
            b"",
            b"",
        ])
        return keccak_256(preimage)


@dataclass(frozen=True)
class SignedTransaction:
    nonce: int
    gas_price: int
    gas_limit: int
    to: bytes
    value: int
    data: bytes
    v: int
    r: int
    s: int

    @property
    def chain_id(self) -> int:
        return (self.v - 35) // 2

    @property
    def recovery_bit(self) -> int:
        return self.v - 35 - 2 * self.chain_id

    def unsigned(self) -> UnsignedTx:
        return UnsignedTx(self.nonce, self.gas_price, self.gas_limit, self.to,
                          self.value, self.data, self.chain_id)

    # the memoised values live in the instance dict, outside the dataclass
    # fields, so equality, hashing and repr still see only the fields
    def signing_digest(self) -> bytes:
        """The digest the signature covers, `unsigned().signing_digest()`."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = self.__dict__["_digest"] = self.unsigned().signing_digest()
        return digest

    def raw(self) -> bytes:
        raw = self.__dict__.get("_raw")
        if raw is None:
            raw = self.__dict__["_raw"] = rlp.encode([
                rlp.encode_int(self.nonce),
                rlp.encode_int(self.gas_price),
                rlp.encode_int(self.gas_limit),
                self.to,
                rlp.encode_int(self.value),
                self.data,
                rlp.encode_int(self.v),
                rlp.encode_int(self.r),
                rlp.encode_int(self.s),
            ])
        return raw

    def raw_hex(self) -> str:
        return "0x" + self.raw().hex()

    def tx_hash(self) -> bytes:
        digest = self.__dict__.get("_hash")
        if digest is None:
            digest = self.__dict__["_hash"] = keccak_256(self.raw())
        return digest

    @classmethod
    def from_raw(cls, raw: bytes) -> "SignedTransaction":
        if isinstance(raw, str):
            raw = bytes.fromhex(raw[2:] if raw.startswith("0x") else raw)
        elif not isinstance(raw, bytes):
            raise CodecError("a raw transaction is hex or bytes, not %s"
                             % type(raw).__name__)
        fields = rlp.decode(raw)
        if not isinstance(fields, list) or len(fields) != 9:
            raise CodecError("signed transaction must decode to 9 fields")
        for field in fields:
            if not isinstance(field, bytes):
                raise CodecError("transaction fields must be byte strings")
        to = fields[3]
        if len(to) != ADDRESS_LENGTH:
            raise CodecError("'to' field must be 20 bytes")
        v = rlp.decode_int(fields[6])
        if v < 35:
            raise CodecError("v=%d does not carry a chain id" % v)
        tx = cls(
            nonce=rlp.decode_int(fields[0]),
            gas_price=rlp.decode_int(fields[1]),
            gas_limit=rlp.decode_int(fields[2]),
            to=to,
            value=rlp.decode_int(fields[4]),
            data=fields[5],
            v=v,
            r=rlp.decode_int(fields[7]),
            s=rlp.decode_int(fields[8]),
        )
        tx.__dict__["_raw"] = bytes(raw)
        return tx


def sign_tx(tx: UnsignedTx, private_key: int) -> SignedTransaction:
    """Sign `tx` for its own chain id (EIP-155)."""
    digest = tx.signing_digest()
    r, s, recovery_bit = secp256k1.sign_recoverable(digest, private_key)
    signed = SignedTransaction(
        nonce=tx.nonce,
        gas_price=tx.gas_price,
        gas_limit=tx.gas_limit,
        to=tx.to,
        value=tx.value,
        data=tx.data,
        v=tx.chain_id * 2 + 35 + recovery_bit,
        r=r,
        s=s,
    )
    signed.__dict__["_digest"] = digest
    return signed


def recover_signer(stx: SignedTransaction) -> bytes:
    """Address whose key produced the signature, memoised on `stx`;
    raises SignatureError (each time: a failure is not memoised)."""
    sender = stx.__dict__.get("_sender")
    if sender is None:
        if stx.v < 35:
            raise SignatureError("v=%d does not carry a chain id" % stx.v)
        point = secp256k1.recover_public_key(stx.signing_digest(), stx.r, stx.s,
                                             stx.recovery_bit)
        sender = stx.__dict__["_sender"] = derive_address(point)
    return sender
