"""Engine-level protocol runs: in process, over sockets, under replay."""

import socket
import threading
from collections import deque

import pytest

from edcred.credential import check_equation, signature_of
from edcred.curve import Scalar
from edcred.errors import InvalidProofError, SessionError, WireError
from edcred.hashing import attr_to_scalar
from edcred.protocol import (
    IssuerEngine,
    UserEngine,
    decode_request,
    encode_request,
    request_issuance,
    run_issuance,
    serve_issuance,
)
from edcred.wire import MSG_CHAL, MSG_ISS2, MSG_ISS3, WireMessage

from conftest import make_rng


class RecordingRandom:
    """Wraps an rng and logs every value drawn, for exact replay."""

    def __init__(self, inner):
        self._inner = inner
        self.log = []

    def randrange(self, *args):
        v = self._inner.randrange(*args)
        self.log.append(v)
        return v

    def getrandbits(self, k):
        v = self._inner.getrandbits(k)
        self.log.append(v)
        return v


class ReplayRandom:
    """Feeds back a RecordingRandom log, value for value."""

    def __init__(self, log):
        self._values = deque(log)

    def _next(self):
        if not self._values:
            raise SessionError("replay log exhausted")
        return self._values.popleft()

    def randrange(self, *args):
        return self._next()

    def getrandbits(self, k):
        return self._next()


def attrs_for(params, rng, n=3):
    return [params.curve.random_nonzero(rng)] + [
        attr_to_scalar(f"p:{i}", params.curve) for i in range(1, n)
    ]


def test_run_issuance_happy_path(toy_deploy):
    params, key = toy_deploy
    rng_i, rng_u = make_rng("runi"), make_rng("runu")
    cred, transcript = run_issuance(params, key, attrs_for(params, rng_u), rng_i, rng_u)
    assert check_equation(signature_of(cred), params)
    assert len(transcript) == 3  # offer, request, response


def test_run_issuance_interactive(toy_deploy):
    params, key = toy_deploy
    rng_i, rng_u = make_rng("inti"), make_rng("intu")
    cred, transcript = run_issuance(
        params, key, attrs_for(params, rng_u), rng_i, rng_u, interactive=True
    )
    assert check_equation(signature_of(cred), params)
    assert len(transcript) == 5  # extra challenge round


def test_issuer_never_sees_unblinded_signature(toy_deploy):
    """The wire bytes the issuer receives must not contain R, s or h."""
    params, key = toy_deploy
    rng_i, rng_u = make_rng("privi"), make_rng("privu")
    cred, transcript = run_issuance(params, key, attrs_for(params, rng_u), rng_i, rng_u)
    w = params.curve.coord_bytes
    seen_by_issuer = b"".join(m.body for m in transcript.messages(1))
    for secret in (
        cred.r_point.encode(),
        cred.s.to_bytes(w),
        cred.h.to_bytes(w),
    ):
        assert secret not in seen_by_issuer


def test_request_codec_roundtrip(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("codec")
    from edcred.issuance import issuer_start, user_blind

    _, r_bar = issuer_start(key, params, rng)
    _, req = user_blind(r_bar, attrs_for(params, rng), params, rng, context=b"x")
    body = encode_request(req, params)
    again = decode_request(body, params)
    assert again.h_bar == req.h_bar
    assert again.commitment0 == req.commitment0
    assert again.proof == req.proof
    with pytest.raises(WireError):
        decode_request(body[:-1], params)
    with pytest.raises(WireError):
        decode_request(body + b"\x00", params)


def test_request_decode_refuses_other_layouts(toy_deploy):
    # ISS2 carries P_0 and nothing else: a second commitment, none at all,
    # or a flag bit other than the interactive one is malformed, even
    # where the lengths add up
    params, key = toy_deploy
    rng = make_rng("codec-strict")
    from edcred.issuance import issuer_start, user_blind

    _, r_bar = issuer_start(key, params, rng)
    attrs = attrs_for(params, rng)
    _, req = user_blind(r_bar, attrs, params, rng)
    body = encode_request(req, params)
    w = params.curve.coord_bytes
    head, rest = body[: 1 + w], body[3 + 3 * w :]
    count, p0 = body[1 + w : 3 + w], body[3 + w : 3 + 3 * w]
    assert count == b"\x00\x01" and p0 == req.commitment0.encode()
    p1 = (attrs[1] * params.curve.base).encode()
    two = head + b"\x00\x02" + p0 + p1 + rest
    none = head + b"\x00\x00" + rest
    flagged = bytes((body[0] | 0x02,)) + body[1:]
    for bad in (two, none, flagged):
        with pytest.raises(WireError):
            decode_request(bad, params)


@pytest.mark.parametrize("interactive", [False, True])
def test_request_decode_refuses_a_zero_blinded_hash(toy_deploy, interactive):
    # h' = 0 would have the issuer answer with its bare nonce k: no
    # request holds it, so its bytes are malformed, refused as read
    params, key = toy_deploy
    rng = make_rng(f"codec-zero-h:{interactive}")
    from edcred.issuance import issuer_start, user_blind

    _, r_bar = issuer_start(key, params, rng)
    _, req = user_blind(r_bar, attrs_for(params, rng), params, rng, interactive=interactive)
    body = encode_request(req, params)
    w = params.curve.coord_bytes
    decode_request(body, params)
    with pytest.raises(WireError, match="blinded hash is zero"):
        decode_request(body[:1] + bytes(w) + body[1 + w:], params)


def test_engines_enforce_session_id(toy_deploy):
    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("sidi"))
    offer = issuer.open()
    user = UserEngine(params, attrs_for(params, make_rng("sidu")), make_rng("sidu"))
    request = user.handle(offer)
    forged = WireMessage(request.msg_type, b"F" * 16, request.body)
    with pytest.raises(WireError):
        issuer.handle(forged)


def test_engines_enforce_state_order(toy_deploy):
    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("state"))
    offer = issuer.open()
    with pytest.raises(SessionError):
        issuer.handle(offer)  # ISS1 back at the issuer
    user = UserEngine(params, attrs_for(params, make_rng("stateu")), make_rng("stateu"))
    with pytest.raises(SessionError):
        user.handle(WireMessage(MSG_ISS3, issuer.session_id, b""))  # response before offer


def test_user_engine_enforces_session_id_and_order(toy_deploy):
    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("usidi"))
    user = UserEngine(params, attrs_for(params, make_rng("usidu")), make_rng("usidu"))
    response = issuer.handle(user.handle(issuer.open()))
    with pytest.raises(WireError):
        user.handle(WireMessage(response.msg_type, b"F" * 16, response.body))
    with pytest.raises(SessionError):
        user.handle(WireMessage(MSG_CHAL, user.session_id, response.body))  # no challenge pending
    assert user.credential is None


def test_issuer_engine_opens_once(toy_deploy):
    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("reopen"))
    issuer.open()
    with pytest.raises(SessionError):
        issuer.open()


def engine_pair(params, key, label, interactive):
    issuer = IssuerEngine(params, key, make_rng(f"{label}:i"))
    rng_u = make_rng(f"{label}:u")
    return issuer, UserEngine(params, attrs_for(params, rng_u), rng_u, interactive=interactive)


def scalar_message(params, msg_type, session_id):
    # a well-formed body, so that only the message's place in the flow is wrong
    return WireMessage(msg_type, session_id, params.curve.scalar(1).to_bytes(params.curve.coord_bytes))


@pytest.mark.parametrize("interactive", [False, True])
def test_engines_refuse_a_message_before_its_turn(toy_deploy, interactive):
    params, key = toy_deploy
    # the issuer before open, and CHAL before ISS2
    issuer, user = engine_pair(params, key, "early", interactive)
    request = user.handle(issuer.open())
    issuer2, _ = engine_pair(params, key, "early2", interactive)
    with pytest.raises(SessionError):
        issuer2.handle(WireMessage(MSG_ISS2, issuer2.session_id, request.body))
    with pytest.raises(SessionError):
        issuer.handle(scalar_message(params, MSG_CHAL, issuer.session_id))
    # the user: CHAL before the offer
    _, user = engine_pair(params, key, "early3", interactive)
    with pytest.raises(SessionError):
        user.handle(scalar_message(params, MSG_CHAL, issuer.session_id))
    assert user.credential is None and not user.done


def test_issuer_refuses_a_second_request_while_its_challenge_is_out(toy_deploy):
    params, key = toy_deploy
    issuer, user = engine_pair(params, key, "twice", True)
    request = user.handle(issuer.open())
    assert issuer.handle(request).msg_type == MSG_CHAL
    with pytest.raises(SessionError):
        issuer.handle(request)
    assert not issuer.done


def test_user_refuses_a_response_while_a_challenge_is_pending(toy_deploy):
    params, key = toy_deploy
    issuer, user = engine_pair(params, key, "pending", True)
    user.handle(issuer.open())
    with pytest.raises(SessionError):
        user.handle(scalar_message(params, MSG_ISS3, issuer.session_id))
    assert user.credential is None and not user.done


@pytest.mark.parametrize("interactive", [False, True])
def test_engines_refuse_every_message_once_done(toy_deploy, interactive):
    params, key = toy_deploy
    issuer, user = engine_pair(params, key, "done", interactive)
    msg = issuer.open()
    sent = [msg]
    while (reply := user.handle(msg)) is not None:
        sent.append(reply)
        msg = issuer.handle(reply)
        sent.append(msg)
    assert issuer.done and user.done and user.credential is not None
    with pytest.raises(SessionError):
        issuer.open()
    for msg in sent:
        for engine in (issuer, user):
            with pytest.raises(SessionError):
                engine.handle(msg)
    assert user.credential is not None


def test_a_refused_request_ends_the_issuer_session(toy_deploy):
    # the engine gives up on the first refusal: the honest request that
    # follows a forged one is refused as well, and nothing is signed,
    # though the IssuerSession underneath would still sign it
    from edcred.issuance import IssuanceRequest
    from edcred.schnorr import SchnorrTranscript

    params, key = toy_deploy
    issuer, user = engine_pair(params, key, "forged-first", False)
    request = user.handle(issuer.open())
    req = decode_request(request.body, params)
    bad = SchnorrTranscript(
        req.proof.commitment, req.proof.challenge, req.proof.response + 1, req.proof.statement
    )
    forged_req = IssuanceRequest(h_bar=req.h_bar, commitment0=req.commitment0, proof=bad)
    forged = WireMessage(MSG_ISS2, issuer.session_id, encode_request(forged_req, params))
    with pytest.raises(InvalidProofError):
        issuer.handle(forged)
    with pytest.raises(SessionError):
        issuer.handle(request)
    assert key._nonce[1] is not None  # the session's nonce was never taken
    assert not issuer.done


def test_peer_closing_mid_session_is_a_wire_error(toy_deploy):
    params, _ = toy_deploy
    left, right = socket.socketpair()
    left.close()
    rng = make_rng("closed")
    with right, pytest.raises(WireError, match="closed the connection mid-session"):
        request_issuance(right, params, attrs_for(params, rng), rng)


def test_tampered_blinded_hash_caught_at_unblind(toy_deploy):
    # the issuer signs whatever h' it is handed, blindly; the user's
    # response check is where a transit tamper surfaces, tagged with
    # the step that tripped
    from edcred.errors import IssuerMisbehavior
    from edcred.issuance import IssuanceRequest
    from edcred.protocol import _handle_step

    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("tampi"))
    user = UserEngine(params, attrs_for(params, make_rng("tampu")), make_rng("tampu"))
    request = user.handle(issuer.open())
    req = decode_request(request.body, params)
    wrong = Scalar((req.h_bar.v % (params.curve.q - 1)) + 1, params.curve.q)
    forged_req = IssuanceRequest(h_bar=wrong, commitment0=req.commitment0, proof=req.proof)
    forged = WireMessage(MSG_ISS2, issuer.session_id, encode_request(forged_req, params))
    response = issuer.handle(forged)  # blind: no way to notice
    with pytest.raises(IssuerMisbehavior) as exc:
        _handle_step(user, response)
    assert "step ISS3" in str(exc.value)


def test_tampered_proof_rejected_by_issuer(toy_deploy):
    from edcred.issuance import IssuanceRequest
    from edcred.schnorr import SchnorrTranscript

    params, key = toy_deploy
    issuer = IssuerEngine(params, key, make_rng("proofi"))
    user = UserEngine(params, attrs_for(params, make_rng("proofu")), make_rng("proofu"))
    request = user.handle(issuer.open())
    req = decode_request(request.body, params)
    bad = SchnorrTranscript(
        req.proof.commitment, req.proof.challenge, req.proof.response + 1, req.proof.statement
    )
    forged_req = IssuanceRequest(h_bar=req.h_bar, commitment0=req.commitment0, proof=bad)
    forged = WireMessage(MSG_ISS2, issuer.session_id, encode_request(forged_req, params))
    with pytest.raises(InvalidProofError):
        issuer.handle(forged)


def test_socket_issuance(toy_deploy):
    params, key = toy_deploy
    left, right = socket.socketpair()
    result = {}

    def issuer_side():
        with left:
            result["transcript"] = serve_issuance(left, params, key, make_rng("socki"))

    thread = threading.Thread(target=issuer_side)
    thread.start()
    rng_u = make_rng("socku")
    with right:
        cred, user_transcript = request_issuance(right, params, attrs_for(params, rng_u), rng_u)
    thread.join(timeout=10)
    assert check_equation(signature_of(cred), params)
    issuer_seen = [m.msg_type for m in result["transcript"].messages(1)]
    user_seen = [m.msg_type for m in user_transcript.messages(1)]
    assert issuer_seen == user_seen == [MSG_ISS2]


def test_socket_issuance_interactive(toy_deploy):
    params, key = toy_deploy
    left, right = socket.socketpair()
    holder = {}

    def issuer_side():
        with left:
            holder["t"] = serve_issuance(left, params, key, make_rng("isocki"))

    thread = threading.Thread(target=issuer_side)
    thread.start()
    rng_u = make_rng("isocku")
    with right:
        cred, _ = request_issuance(
            right, params, attrs_for(params, rng_u), rng_u, interactive=True
        )
    thread.join(timeout=10)
    assert check_equation(signature_of(cred), params)


def test_recorded_run_replays_identically(toy_deploy):
    params, key = toy_deploy
    rec_i = RecordingRandom(make_rng("repi"))
    rec_u = RecordingRandom(make_rng("repu"))
    attrs = attrs_for(params, make_rng("repa"))
    cred1, t1 = run_issuance(params, key, attrs, rec_i, rec_u)

    cred2, t2 = run_issuance(
        params, key, attrs, ReplayRandom(rec_i.log), ReplayRandom(rec_u.log)
    )
    assert cred1 == cred2
    assert t1.to_bytes() == t2.to_bytes()


def test_replay_exhaustion_is_loud(toy_deploy):
    params, key = toy_deploy
    with pytest.raises(SessionError):
        run_issuance(
            params, key, attrs_for(params, make_rng("exh")),
            ReplayRandom([5]), ReplayRandom([6, 7]),
        )


def test_distinct_sessions_have_distinct_ids(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("ids")
    ids = {IssuerEngine(params, key, rng).session_id for _ in range(20)}
    assert len(ids) == 20
