"""Exception types shared across the package."""


class ProtocolError(Exception):
    """Base class for everything this package raises on purpose."""


class WireError(ProtocolError, ValueError):
    """Malformed bytes: bad framing, wrong length, trailing garbage, or a
    point or scalar out of range. A ValueError too, as any malformed input
    is."""


class SessionError(ProtocolError):
    """A state machine was driven out of order or reused."""


class InvalidProofError(ProtocolError):
    """A proof of knowledge failed to verify where one is mandatory."""


class IssuerMisbehavior(ProtocolError):
    """The issuer's blinded response does not satisfy its check equation."""


class RngError(ProtocolError):
    """The randomness source kept returning unusable values."""
