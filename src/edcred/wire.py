"""Framing for protocol messages and recorded transcripts, and the reader
that every record of the package is parsed through.

Every message is  version(1) | type(1) | session_id(16) | body_len(4 BE) | body.
Decoding is strict: unknown version or type, short input and trailing bytes
are all WireError. The CHAL type is used in both directions, carrying the
issuer's challenge one way and the prover's response back; the recorded
direction keeps the two apart.
"""

from __future__ import annotations

from .curve import Point, Scalar
from .errors import WireError

WIRE_VERSION = 1

MSG_ISS1 = 0x01
MSG_ISS2 = 0x02
MSG_ISS3 = 0x03
MSG_CHAL = 0x04
MSG_PRESENT = 0x10
MSG_DISCLOSE = 0x11

_KNOWN_TYPES = {MSG_ISS1, MSG_ISS2, MSG_ISS3, MSG_CHAL, MSG_PRESENT, MSG_DISCLOSE}

SESSION_ID_LEN = 16
_HEADER_LEN = 1 + 1 + SESSION_ID_LEN + 4
_MAX_BODY = 1 << 20

ISSUER_TO_USER = 0
USER_TO_ISSUER = 1


def new_session_id(rng) -> bytes:
    """A fresh session id: SESSION_ID_LEN random bytes drawn from rng."""
    return rng.getrandbits(8 * SESSION_ID_LEN).to_bytes(SESSION_ID_LEN, "big")


class Reader:
    """Reads one record front to back: points and scalars of the curve
    (2w and w bytes), big-endian integers and raw fields. A record that
    ends early, or has bytes left at end(), is a WireError, and so is a
    point or scalar that Point.decode or Scalar.from_bytes refuses, or a
    value whose constructor refuses it (build)."""

    __slots__ = ("data", "pos", "curve")

    def __init__(self, data: bytes, curve=None):
        self.data = data
        self.pos = 0
        self.curve = curve

    def take(self, n: int) -> bytes:
        start = self.pos
        self.pos += n
        if self.pos > len(self.data):
            raise WireError("record ends early")
        return self.data[start : self.pos]

    def uint(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")

    def point(self) -> Point:
        return Point.decode(self.take(2 * self.curve.coord_bytes), self.curve)

    def scalar(self) -> Scalar:
        return Scalar.from_bytes(self.take(self.curve.coord_bytes), self.curve.q)

    def deployment(self, params) -> None:
        """Read a record's leading digest: a WireError unless params'."""
        if self.take(32) != params.digest():
            raise WireError("record was made under different parameters")

    def end(self) -> None:
        if self.pos != len(self.data):
            raise WireError("trailing bytes after record")

    def build(self, cls, *args):
        """cls(*args), a ValueError it raises reported as WireError: how
        every parser refuses a value its well-formed type cannot hold."""
        try:
            return cls(*args)
        except ValueError as exc:
            raise WireError(str(exc)) from None


class WireMessage:
    __slots__ = ("msg_type", "session_id", "body")

    def __init__(self, msg_type: int, session_id: bytes, body: bytes):
        if msg_type not in _KNOWN_TYPES:
            raise WireError(f"unknown message type 0x{msg_type:02x}")
        if len(session_id) != SESSION_ID_LEN:
            raise WireError(f"session id must be {SESSION_ID_LEN} bytes")
        if len(body) > _MAX_BODY:
            raise WireError("body too large")
        self.msg_type = msg_type
        self.session_id = session_id
        self.body = body

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.msg_type, self.session_id, self.body) == (
            other.msg_type, other.session_id, other.body)


def encode_message(msg: WireMessage) -> bytes:
    return (
        bytes((WIRE_VERSION, msg.msg_type))
        + msg.session_id
        + len(msg.body).to_bytes(4, "big")
        + msg.body
    )


def decode_message(data: bytes) -> WireMessage:
    r = Reader(data)
    version = r.uint(1)
    if version != WIRE_VERSION:
        raise WireError(f"unknown wire version {version}")
    msg_type, session_id, body_len = r.uint(1), r.take(SESSION_ID_LEN), r.uint(4)
    if body_len > _MAX_BODY:
        raise WireError("declared body too large")
    body = r.take(body_len)
    r.end()
    return WireMessage(msg_type, session_id, body)


def write_message(stream, msg: WireMessage) -> None:
    stream.write(encode_message(msg))
    stream.flush()


def read_message(stream) -> WireMessage | None:
    """Read one framed message from a blocking binary stream.

    Returns None on clean EOF before any byte; raises WireError on a
    partial frame.
    """
    header = stream.read(_HEADER_LEN)
    if not header:
        return None
    if len(header) < _HEADER_LEN:
        raise WireError("connection closed mid-header")
    body_len = int.from_bytes(header[-4:], "big")
    if body_len > _MAX_BODY:
        raise WireError("declared body too large")
    body = stream.read(body_len) if body_len else b""
    if len(body) < body_len:
        raise WireError("connection closed mid-body")
    return decode_message(header + body)


class TranscriptEntry:
    __slots__ = ("direction", "message")

    def __init__(self, direction: int, message: WireMessage):
        self.direction = direction  # ISSUER_TO_USER or USER_TO_ISSUER
        self.message = message


class Transcript:
    """Ordered record of one protocol run, replayable byte for byte."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries = []

    def record(self, direction: int, message: WireMessage) -> None:
        if direction not in (ISSUER_TO_USER, USER_TO_ISSUER):
            raise WireError("bad direction")
        self.entries.append(TranscriptEntry(direction, message))

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def messages(self, direction: int) -> list:
        return [e.message for e in self.entries if e.direction == direction]

    def to_bytes(self) -> bytes:
        out = []
        for e in self.entries:
            encoded = encode_message(e.message)
            out.append(bytes((e.direction,)) + len(encoded).to_bytes(4, "big") + encoded)
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Transcript":
        t = cls()
        r = Reader(data)
        while r.pos < len(data):
            direction = r.uint(1)
            t.record(direction, decode_message(r.take(r.uint(4))))
        return t
