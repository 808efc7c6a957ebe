"""Blind issuance: the four-move dance and its failure modes."""

import sys
import threading
import time

import pytest

from edcred.credential import (
    check_equation,
    make_presentation,
    signature_of,
    verify_credential,
    verify_presentation,
)
from edcred.curve import OpCounter, Point, Scalar
from edcred.errors import InvalidProofError, IssuerMisbehavior, SessionError, WireError
from edcred.hashing import attr_to_scalar, hash_block
from edcred.issuance import (
    Credential,
    IssuanceRequest,
    IssuerSession,
    issuer_start,
    sign_response,
    user_blind,
    user_pk_respond,
    user_unblind,
)
from edcred.params import SystemParams

from conftest import make_rng


def sample_attrs(params, rng, n=3):
    c = params.curve
    return [c.random_nonzero(rng)] + [
        attr_to_scalar(f"attr:{i}", c) for i in range(1, n)
    ]


def run_full(params, key, attrs, rng, **kw):
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng, **kw)
    s_bar = session.sign(request)
    return user_unblind(state, s_bar, params)


class Feed:
    """rng whose first draws are scripted, the rest delegated."""

    def __init__(self, values, fallback):
        self.values = list(values)
        self.fallback = fallback

    def randrange(self, *a):
        if self.values:
            return self.values.pop(0)
        return self.fallback.randrange(*a)

    def getrandbits(self, k):
        return self.fallback.getrandbits(k)


def test_sign_response_worked_example():
    q = 11
    s = sign_response(Scalar(2, q), Scalar(3, q), Scalar(4, q))
    assert s == Scalar((2 * 3 + 4) % q, q) == Scalar(10, q)


def test_issuance_produces_verifying_credential(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("happy")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    assert check_equation(signature_of(cred), params)
    assert cred.h == hash_block([m * params.curve.base for m in cred.attrs], cred.r_point)


def test_issuance_on_production_curve(prod_deploy):
    params, key = prod_deploy
    rng = make_rng("prodhappy")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    assert check_equation(signature_of(cred), params)


def test_unblinding_algebra_with_scripted_randomness(toy_deploy):
    # draws of 1 and 1, each hedged with m_0 into its own alpha and beta:
    # R = alpha*R' + beta*P, h' = h/alpha, s = alpha*s' + beta
    params, key = toy_deploy
    rng = make_rng("scripted")
    session, r_bar = issuer_start(key, params, rng)
    attrs = sample_attrs(params, rng)
    state, request = user_blind(r_bar, attrs, params, Feed([1, 1], rng))
    alpha, beta = state.alpha, state.beta
    assert alpha != beta
    again, _ = user_blind(r_bar, attrs, params, Feed([1, 1], rng))
    assert (again.alpha, again.beta) == (alpha, beta)
    assert request.h_bar * alpha == state.h
    s_bar = session.sign(request)
    cred = user_unblind(state, s_bar, params)
    assert cred.r_point == alpha * r_bar + beta * params.curve.base
    assert cred.s == alpha * s_bar + beta
    assert cred.h == state.h
    assert check_equation(signature_of(cred), params)


def test_strict_request_carries_only_master_commitment(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("strict")
    attrs = sample_attrs(params, rng, n=5)
    _, r_bar = issuer_start(key, params, rng)
    _, request = user_blind(r_bar, attrs, params, rng)
    assert request.commitment0 == attrs[0] * params.curve.base
    # the request's bytes do not depend on how many attributes there are
    from edcred.protocol import encode_request

    _, single = user_blind(r_bar, attrs[:1], params, rng)
    assert len(encode_request(request, params)) == len(encode_request(single, params))


def test_blinded_hash_hides_h(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("hidden")
    _, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, sample_attrs(params, rng), params, rng)
    assert request.h_bar == state.h * state.alpha.inverse()
    if state.alpha.v != 1:
        assert request.h_bar != state.h


def test_interactive_round(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("interactive")
    session, r_bar = issuer_start(key, params, rng)
    attrs = sample_attrs(params, rng)
    state, request = user_blind(r_bar, attrs, params, rng, interactive=True)
    assert request.proof is None and request.pk_commitment is not None
    challenge = session.issue_challenge(rng)
    response = user_pk_respond(state, challenge)
    s_bar = session.sign(request, pk_response=response)
    cred = user_unblind(state, s_bar, params)
    assert check_equation(signature_of(cred), params)


def test_interactive_nonce_consumed(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("consumed")
    session, r_bar = issuer_start(key, params, rng)
    state, _ = user_blind(r_bar, sample_attrs(params, rng), params, rng, interactive=True)
    user_pk_respond(state, session.issue_challenge(rng))
    with pytest.raises(SessionError):
        user_pk_respond(state, params.curve.scalar(5))


def test_session_never_signs_twice(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("twice")
    session, r_bar = issuer_start(key, params, rng)
    _, request = user_blind(r_bar, sample_attrs(params, rng), params, rng)
    session.sign(request)
    assert key._nonce == (None, None)  # nonce taken and wiped
    with pytest.raises(SessionError):
        session.sign(request)
    with pytest.raises(SessionError):
        session.issue_challenge(rng)


def test_challenge_only_once(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("onechal")
    session, _ = issuer_start(key, params, rng)
    session.issue_challenge(rng)
    with pytest.raises(SessionError):
        session.issue_challenge(rng)


def test_a_later_session_wipes_the_earlier_nonce(toy_deploy):
    # one live nonce per key: a second issuer_start on the key leaves the
    # first session unable to challenge or sign, and the second signs
    params, key = toy_deploy
    rng = make_rng("later")
    first, r_first = issuer_start(key, params, rng)
    _, request = user_blind(r_first, sample_attrs(params, rng), params, rng)
    second, r_second = issuer_start(key, params, rng)
    with pytest.raises(SessionError):
        first.sign(request)
    with pytest.raises(SessionError):
        first.issue_challenge(rng)
    state, request = user_blind(r_second, sample_attrs(params, rng), params, rng)
    cred = user_unblind(state, second.sign(request), params)
    assert check_equation(signature_of(cred), params)


def test_concurrent_sessions_sign_only_with_their_own_nonce(toy_deploy, monkeypatch):
    """Threads starting and signing sessions on one key. A pause after
    each liveness check widens the window in which another thread's start
    could swap the key's nonce under a signing session; every response a
    session gets must still pass its own check equation."""
    params, key = toy_deploy
    signed, failures = [], []
    check_live = IssuerSession._check_live

    def pausing_check_live(session):
        check_live(session)
        time.sleep(1e-4)

    monkeypatch.setattr(IssuerSession, "_check_live", pausing_check_live)

    def worker(w):
        rng = make_rng(f"race:{w}")
        for _ in range(40):
            session, r_bar = issuer_start(key, params, rng)
            state, request = user_blind(r_bar, sample_attrs(params, rng), params, rng)
            try:
                s_bar = session.sign(request)
            except SessionError:
                continue
            try:
                user_unblind(state, s_bar, params)
            except IssuerMisbehavior as exc:
                failures.append(exc)
            signed.append(s_bar)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert signed and not failures


def test_request_refuses_a_proof_about_another_point(toy_deploy):
    # a proof about any point but P_0 says nothing of the master secret:
    # no request can carry one, so no session is ever handed one
    params, key = toy_deploy
    rng = make_rng("wrongstmt")
    _, r_bar = issuer_start(key, params, rng)
    attrs = sample_attrs(params, rng)
    _, request = user_blind(r_bar, attrs, params, rng)
    other = 99 * params.curve.base
    with pytest.raises(ValueError, match="proof is not about the master commitment"):
        IssuanceRequest(h_bar=request.h_bar, commitment0=other, proof=request.proof)


def test_sign_rejects_proof_for_unknown_secret(toy_deploy):
    # proving knowledge of a DIFFERENT discrete log than the commitment
    from edcred.schnorr import fs_prove, pk_commit

    params, key = toy_deploy
    rng = make_rng("nosecret")
    session, r_bar = issuer_start(key, params, rng)
    attrs = sample_attrs(params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    lie = fs_prove(attrs[0] + 1, request.commitment0,
                   *pk_commit(params.curve, attrs[0] + 1, rng), b"")
    forged = IssuanceRequest(h_bar=request.h_bar, commitment0=request.commitment0, proof=lie)
    with pytest.raises(InvalidProofError):
        session.sign(forged)


def test_sign_rejects_malformed_requests(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("malformed")
    c = params.curve
    session, r_bar = issuer_start(key, params, rng)
    _, good = user_blind(r_bar, sample_attrs(params, rng), params, rng)
    # no request holds a zero h', an h' that is no scalar mod q, or a
    # commitment that is no point
    cases = [
        (Scalar(0, c.q), good.commitment0, "blinded hash is zero"),
        (5, good.commitment0, "blinded hash is not a scalar mod q"),
        (Scalar(5, c.q + 2), good.commitment0, "blinded hash is not a scalar mod q"),
        (good.h_bar, None, "commitment is not a point"),
    ]
    for h_bar, p0, reason in cases:
        with pytest.raises(ValueError, match=reason):
            IssuanceRequest(h_bar=h_bar, commitment0=p0, proof=good.proof)
    # one without a proof is well-formed, and sign refuses it
    with pytest.raises(InvalidProofError, match="no proof"):
        session.sign(IssuanceRequest(h_bar=good.h_bar, commitment0=good.commitment0))
    # the session survives rejected requests and still signs a good one
    assert session.sign(good) is not None


def test_sign_refuses_a_request_of_another_curve(toy_deploy, prod_deploy):
    """A well-formed request whose proof verifies, made on curve1174, is
    refused by a toy-curve session when it signs (ValueError), and the
    session's nonce stays live for a good request."""
    params, key = toy_deploy
    prod = prod_deploy[0]
    rng = make_rng("othercurve")
    session, r_bar = issuer_start(key, params, rng)
    _, foreign = user_blind(prod.curve.base, sample_attrs(prod, rng), prod, rng)
    with pytest.raises(ValueError, match="different groups"):
        session.sign(foreign)
    _, good = user_blind(r_bar, sample_attrs(params, rng), params, rng)
    assert session.sign(good) is not None


def test_unblind_detects_issuer_misbehavior(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("misbehave")
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, sample_attrs(params, rng), params, rng)
    s_bar = session.sign(request)
    with pytest.raises(IssuerMisbehavior):
        user_unblind(state, s_bar + 1, params)
    # and the honest response still goes through afterwards
    cred = user_unblind(state, s_bar, params)
    assert check_equation(signature_of(cred), params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_unblind_check_is_exact(deploy, request):
    """An issuer nonce R' = k*P + (0, p-1) answered with s' = h'*x + k
    leaves an error of order two: IssuerMisbehavior, where R' = k*P goes
    through. One projective sum booked as 2 Ms + 1 Ap with no inversion,
    Ppub on the chain or on its comb."""
    params, key = request.getfixturevalue(deploy)
    c = params.curve
    rng = make_rng(f"unblind-exact:{deploy}")
    two = Point(0, c.p - 1, c)
    for p_pub in (Point(params.p_pub.x, params.p_pub.y, c),
                  Point(params.p_pub.x, params.p_pub.y, c).precompute()):
        user = SystemParams(c, p_pub, params.k)
        for torsion in (False, True):
            k = c.random_nonzero(rng)
            r_bar = k * c.base + two if torsion else k * c.base
            state, req = user_blind(r_bar, sample_attrs(params, rng), user, rng)
            s_bar = sign_response(req.h_bar, key.x, k)
            with OpCounter() as ops:
                if torsion:
                    with pytest.raises(IssuerMisbehavior):
                        user_unblind(state, s_bar, user)
                else:
                    cred = user_unblind(state, s_bar, user)
            assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2, 1, 0)
        assert check_equation(signature_of(cred), user)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_user_blind_pays_two_inversions(deploy, request):
    """R = alpha*R' + beta*P and the n commitments are one batch of sums
    with one return to affine form: one inversion for that batch and one
    for the proof nonce, with n + 3 Ms and 1 Ap booked as before."""
    params, key = request.getfixturevalue(deploy)
    rng = make_rng(f"blindinv:{deploy}")
    for n in (1, 4, 8):
        for interactive in (False, True):
            _, r_bar = issuer_start(key, params, rng)
            with OpCounter() as ops:
                state, _ = user_blind(r_bar, sample_attrs(params, rng, n), params, rng,
                                      interactive=interactive)
            assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (n + 3, 1, 2)
            assert state.r_point == state.alpha * r_bar + state.beta * params.curve.base


def test_user_blind_input_validation(toy_deploy):
    params, _ = toy_deploy
    rng = make_rng("inputs")
    c = params.curve
    with pytest.raises(ValueError):
        user_blind(c.base, [], params, rng)
    with pytest.raises(ValueError):
        user_blind(c.base, [Scalar(0, c.q)], params, rng)
    with pytest.raises(ValueError):
        user_blind(c.base, [Scalar(1, 7)], params, rng)
    with pytest.raises(ValueError):
        user_blind(c.base, [c.scalar(1)] * 65, params, rng)


def test_credential_bytes_roundtrip(toy_deploy, prod_deploy):
    for params, key in (toy_deploy, prod_deploy):
        rng = make_rng(f"credio:{params.curve.name}")
        cred = run_full(params, key, sample_attrs(params, rng), rng)
        data = cred.to_bytes(params)
        again = Credential.from_bytes(data, params)
        assert again == cred
        assert check_equation(signature_of(again), params)


def test_credential_bytes_rejections(toy_deploy, prod_deploy):
    params, key = toy_deploy
    rng = make_rng("credbad")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    data = cred.to_bytes(params)
    with pytest.raises(ValueError):
        Credential.from_bytes(b"XXXX" + data[4:], params)  # magic
    with pytest.raises(ValueError):
        Credential.from_bytes(data, prod_deploy[0])  # foreign deployment
    with pytest.raises(ValueError):
        Credential.from_bytes(data[:-1], params)  # truncated
    with pytest.raises(ValueError):
        Credential.from_bytes(data + b"\x00", params)  # trailing junk


def test_credential_with_a_zero_attribute_or_h_refused_at_parse(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("credzero")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    w = params.curve.coord_bytes
    data = cred.to_bytes(params)
    # no credential with either can be built, so each is written as zero
    # into the bytes: the third attribute, after the magic, digest and
    # count, and h, the record's last field
    at = 4 + 32 + 2 + 2 * w
    for data, reason in ((data[:at] + bytes(w) + data[at + w:], "attribute 2 is zero"),
                         (data[:-w] + bytes(w), "h = 0")):
        with pytest.raises(WireError, match=reason):
            Credential.from_bytes(data, params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_credential_is_well_formed_by_construction(deploy, request):
    """A credential holds 1 to 64 attributes, each a nonzero scalar mod q,
    and h != 0: any other value raises ValueError when built, and the
    same values read from a credential file raise WireError."""
    params, key = request.getfixturevalue(deploy)
    c = params.curve
    rng = make_rng(f"credrules:{deploy}")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    zero, w = c.scalar(0), c.coord_bytes

    def record(attrs, h):
        return b"".join([Credential.MAGIC, params.digest(), len(attrs).to_bytes(2, "big"),
                         *(m.to_bytes(w) for m in attrs), cred.r_point.encode(),
                         cred.s.to_bytes(w), h.to_bytes(w)])

    assert record(cred.attrs, cred.h) == cred.to_bytes(params)
    many = tuple(c.random_nonzero(rng) for _ in range(65))
    for attrs, h, reason in (((), cred.h, "attribute count"),
                             (many, cred.h, "attribute count"),
                             (cred.attrs + (zero,), cred.h, "attribute 3 is zero"),
                             (cred.attrs, zero, "h = 0")):
        with pytest.raises(ValueError, match=reason):
            Credential(attrs, cred.r_point, cred.s, h)
        with pytest.raises(WireError, match=reason):
            Credential.from_bytes(record(attrs, h), params)
    # values no credential file can carry: its scalars are all mod q
    for other in (5, Scalar(5, c.q + 2)):
        with pytest.raises(ValueError, match="attribute 1 is not a scalar mod q"):
            Credential((cred.attrs[0], other), cred.r_point, cred.s, cred.h)
    assert Credential(many[:64], cred.r_point, cred.s, cred.h).attrs == many[:64]


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_credential_is_immutable_once_built(deploy, request):
    """Setting or deleting any field of an issued credential raises
    AttributeError and leaves it as it was: it still verifies and still
    presents. A credential whose attrs could be set to () afterwards
    skipped check_attrs, and make_presentation raised IndexError on it."""
    params, key = request.getfixturevalue(deploy)
    rng = make_rng(f"frozen:{deploy}")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    fields = (cred.attrs, cred.r_point, cred.s, cred.h)
    for name, value in (("attrs", ()), ("r_point", params.curve.base), ("s", cred.s + 1),
                        ("h", params.curve.scalar(0)), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(cred, name, value)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(cred, name)
    assert (cred.attrs, cred.r_point, cred.s, cred.h) == fields
    assert verify_credential(cred, params)
    token = make_presentation(cred, params, rng)
    assert verify_presentation(token, params)


def test_credential_equality_is_field_by_field(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("credeq")
    cred = run_full(params, key, sample_attrs(params, rng), rng)
    fields = (cred.attrs, cred.r_point, cred.s, cred.h)
    assert Credential(*fields) == cred and not Credential(*fields) != cred
    changed = [
        Credential(cred.attrs[:-1] + (cred.attrs[-1] + 1,), cred.r_point, cred.s, cred.h),
        Credential(cred.attrs, cred.r_point + params.curve.base, cred.s, cred.h),
        Credential(cred.attrs, cred.r_point, cred.s + 1, cred.h),
        Credential(cred.attrs, cred.r_point, cred.s, cred.h + 1),
    ]
    for other in changed:
        assert other != cred and not other == cred
    assert cred != fields and fields != cred  # never equal to a tuple


def test_issuance_request_defaults(toy_deploy):
    c = toy_deploy[0].curve
    request = IssuanceRequest(c.scalar(5), c.base)
    assert request.h_bar == c.scalar(5) and request.commitment0 == c.base
    assert request.proof is None and request.pk_commitment is None
