"""Issuance driven over wire messages.

Both parties are sans-io engines: feed a message in, get the reply out.
The same engines run in-process, over a socket pair or over a unix socket;
whatever carries the bytes records a Transcript on the way through.

Message flow, with CHAL only present for the interactive proof:

    issuer                          user
      ISS1 {R'}             ->
                            <-      ISS2 {h', P_0, proof or A}
      CHAL {c}              ->
                            <-      CHAL {response}
      ISS3 {s'}             ->

Each engine's session is one generator that reads like this diagram: it
yields the message it sends, receives the next, checks its type and runs
the issuance step. It returns its last message, ISS3 at the issuer and
None at the user once ISS3 checks out, which sets engine.done. A refusal
raised inside, a message out of order included, ends the session: the
engine answers every later message with SessionError. Only a message
carrying another session's id is refused before the generator sees it,
with WireError, and leaves the session running. issuance.IssuerSession
still allows a retry (a request sign refuses leaves its nonce live); it
is the engine that gives up.

The issuer's view of a session is exactly the messages above: the
unblinded triple (R, s, h) never crosses the wire, which the transcript
tests pin down by scanning these bytes.
"""

from __future__ import annotations

from inspect import GEN_CREATED, GEN_SUSPENDED, getgeneratorstate

from .curve import Point, Scalar
from .errors import ProtocolError, SessionError, WireError
from .issuance import (
    IssuanceRequest,
    issuer_start,
    user_blind,
    user_pk_respond,
    user_unblind,
)
from .params import IssuerKey, SystemParams
from .schnorr import SchnorrTranscript
from .wire import (
    ISSUER_TO_USER,
    MSG_CHAL,
    MSG_ISS1,
    MSG_ISS2,
    MSG_ISS3,
    Reader,
    Transcript,
    USER_TO_ISSUER,
    WireMessage,
    new_session_id,
    read_message,
    write_message,
)

_FLAG_INTERACTIVE = 0x01


def issuance_context(params: SystemParams, session_id: bytes) -> bytes:
    """Context for the non-interactive issuance proof: deployment, session
    and message type."""
    return b"ISSUE:" + params.digest() + session_id


# -- ISS2 body ---------------------------------------------------------------

def encode_request(req: IssuanceRequest, params: SystemParams) -> bytes:
    """flags(1) | h'(w) | count(2) | P_0 | proof, or the proof commitment A
    under the interactive flag. P_0 is the only commitment sent, so count
    is always 1 and decode_request refuses any other value."""
    w = params.curve.coord_bytes
    flags = _FLAG_INTERACTIVE if req.pk_commitment is not None else 0
    parts = [bytes((flags,)), req.h_bar.to_bytes(w), b"\x00\x01", req.commitment0.encode()]
    if req.pk_commitment is not None:
        parts.append(req.pk_commitment.encode())
    else:
        parts.append(req.proof.to_bytes())
    return b"".join(parts)


def decode_request(body: bytes, params: SystemParams) -> IssuanceRequest:
    r = Reader(body, params.curve)
    flags = r.uint(1)
    if flags & ~_FLAG_INTERACTIVE:
        raise WireError(f"unknown flags 0x{flags:02x}")
    h_bar = r.scalar()
    count = r.uint(2)
    if count != 1:
        raise WireError(f"{count} commitments, expected 1")
    commitment0 = r.point()
    if flags & _FLAG_INTERACTIVE:
        proof, pk_commitment = None, r.point()
    else:
        proof, pk_commitment = SchnorrTranscript.read(r, commitment0), None
    r.end()
    return r.build(IssuanceRequest, h_bar, commitment0, proof, pk_commitment)


def _scalar_body(v: Scalar, params: SystemParams) -> bytes:
    return v.to_bytes(params.curve.coord_bytes)


def _body_scalar(body: bytes, params: SystemParams) -> Scalar:
    r = Reader(body, params.curve)
    v = r.scalar()
    r.end()
    return v


# -- engines -----------------------------------------------------------------

def _expect(msg: WireMessage, msg_type: int) -> bytes:
    if msg.msg_type != msg_type:
        raise SessionError(
            f"unexpected message type 0x{msg.msg_type:02x}, expected 0x{msg_type:02x}"
        )
    return msg.body


def _advance(engine, msg: WireMessage):
    """Send msg into engine's session; returns the message it yields next,
    or the one it returns with, and then marks the engine done."""
    if getgeneratorstate(engine._flow) != GEN_SUSPENDED:
        raise SessionError("session is not open, or is over")
    try:
        return engine._flow.send(msg)
    except StopIteration as end:
        engine.done = True
        return end.value


class IssuerEngine:
    """Issuer side of one session, driven by incoming messages."""

    def __init__(self, params: SystemParams, key: IssuerKey, rng):
        self.session_id = new_session_id(rng)
        self.done = False
        self._flow = self._session(params, key, rng)

    def _session(self, params, key, rng):
        session, r_bar = issuer_start(key, params, rng)
        msg = yield WireMessage(MSG_ISS1, self.session_id, r_bar.encode())
        request = decode_request(_expect(msg, MSG_ISS2), params)
        if request.pk_commitment is None:
            s_bar = session.sign(request, context=issuance_context(params, self.session_id))
        else:
            c = session.issue_challenge(rng)
            msg = yield WireMessage(MSG_CHAL, self.session_id, _scalar_body(c, params))
            response = _body_scalar(_expect(msg, MSG_CHAL), params)
            s_bar = session.sign(request, pk_response=response)
        return WireMessage(MSG_ISS3, self.session_id, _scalar_body(s_bar, params))

    def open(self) -> WireMessage:
        if getgeneratorstate(self._flow) != GEN_CREATED:
            raise SessionError("engine already opened")
        return next(self._flow)

    def handle(self, msg: WireMessage) -> WireMessage:
        if msg.session_id != self.session_id:
            raise WireError("message carries a different session id")
        return _advance(self, msg)


class UserEngine:
    """User side of one session; .credential is set once ISS3 checks out."""

    def __init__(self, params: SystemParams, attrs, rng, *, interactive: bool = False):
        self.session_id = None
        self.credential = None
        self.done = False
        self._flow = self._session(params, attrs, rng, interactive)
        next(self._flow)

    def _session(self, params, attrs, rng, interactive):
        msg = yield
        body = _expect(msg, MSG_ISS1)
        self.session_id = msg.session_id
        context = issuance_context(params, self.session_id)
        blind, request = user_blind(Point.decode(body, params.curve), attrs, params, rng,
                                    interactive=interactive, context=context)
        msg = yield WireMessage(MSG_ISS2, self.session_id, encode_request(request, params))
        if interactive:
            c = _body_scalar(_expect(msg, MSG_CHAL), params)
            response = user_pk_respond(blind, c)
            msg = yield WireMessage(MSG_CHAL, self.session_id, _scalar_body(response, params))
        s_bar = _body_scalar(_expect(msg, MSG_ISS3), params)
        self.credential = user_unblind(blind, s_bar, params)

    def handle(self, msg: WireMessage) -> WireMessage | None:
        if self.session_id is not None and msg.session_id != self.session_id:
            raise WireError("message carries a different session id")
        return _advance(self, msg)


# -- drivers -----------------------------------------------------------------

_STEP_NAMES = {MSG_ISS1: "ISS1", MSG_ISS2: "ISS2", MSG_ISS3: "ISS3", MSG_CHAL: "CHAL"}


def _handle_step(engine, msg):
    label = _STEP_NAMES.get(msg.msg_type, "?")
    try:
        return engine.handle(msg)
    except ProtocolError as exc:
        raise type(exc)(f"step {label}: {exc}") from exc


def run_issuance(
    params: SystemParams,
    key: IssuerKey,
    attrs,
    issuer_rng,
    user_rng,
    *,
    interactive: bool = False,
):
    """Drive one full issuance in-process. Returns (credential, transcript).

    Aborts surface as the underlying error with the failing step named in
    the message.
    """
    issuer = IssuerEngine(params, key, issuer_rng)
    user = UserEngine(params, attrs, user_rng, interactive=interactive)
    transcript = Transcript()
    msg = issuer.open()
    transcript.record(ISSUER_TO_USER, msg)
    while True:
        reply = _handle_step(user, msg)
        if reply is None:
            break
        transcript.record(USER_TO_ISSUER, reply)
        msg = _handle_step(issuer, reply)
        transcript.record(ISSUER_TO_USER, msg)
    return user.credential, transcript


def _pump(conn, engine, first, inbound: int) -> Transcript:
    """Run engine's side of one session over conn and return its
    transcript: send first, if any, then answer each message read, which
    travels in direction inbound, until the engine is done."""
    outbound = USER_TO_ISSUER if inbound == ISSUER_TO_USER else ISSUER_TO_USER
    stream = conn.makefile("rwb")
    transcript = Transcript()
    msg = first
    try:
        while True:
            if msg is not None:
                write_message(stream, msg)
                transcript.record(outbound, msg)
            if engine.done:
                return transcript
            msg = read_message(stream)
            if msg is None:
                raise WireError("peer closed the connection mid-session")
            transcript.record(inbound, msg)
            msg = _handle_step(engine, msg)
    finally:
        stream.close()


def serve_issuance(conn, params: SystemParams, key: IssuerKey, rng) -> Transcript:
    """Run the issuer side over a connected socket, one session."""
    engine = IssuerEngine(params, key, rng)
    return _pump(conn, engine, engine.open(), USER_TO_ISSUER)


def request_issuance(conn, params: SystemParams, attrs, rng, *, interactive: bool = False):
    """Run the user side over a connected socket. Returns (credential,
    transcript)."""
    engine = UserEngine(params, attrs, rng, interactive=interactive)
    # the session sets engine.credential, so run it first
    transcript = _pump(conn, engine, None, ISSUER_TO_USER)
    return engine.credential, transcript
