"""Exception hierarchy shared across the package."""


class SealedBidError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SealedBidError):
    """Invalid configuration: bad parameters, malformed scenario files, etc."""


class StateError(SealedBidError):
    """An operation was invoked in a lifecycle state that does not allow it."""


class CodecError(SealedBidError):
    """Malformed or non-canonical serialized data."""


class SignatureError(SealedBidError):
    """Signature is invalid, high-s, or cannot be recovered."""


class KeyMaterialError(SealedBidError):
    """Key bytes are malformed or a point is not on the curve."""


class ChainQueryError(SealedBidError):
    """A historical chain query referenced an unknown height or token."""


class QuorumFailure(SealedBidError):
    """Sampled endpoints did not reach the agreement threshold."""


class QuorumTimeout(QuorumFailure):
    """Every sampled endpoint withheld its response."""


class SealedStoreError(SealedBidError):
    """Base class for sealed-store access failures."""


class SealedStoreMissing(SealedStoreError):
    """Requested label has never been stored."""


class SealedStoreIntegrity(SealedStoreError):
    """Stored bytes do not authenticate: external tampering detected."""


class SealedStoreRollback(SealedStoreIntegrity):
    """A stale (previously valid) snapshot was injected for a label."""


class EnvelopeAuthError(SealedBidError):
    """Envelope decryption failed authentication (wrong key or tampering)."""


class RegistrationError(SealedBidError):
    """Bidder registration rejected (deadline passed, malformed payload)."""
