"""Randomized showings: unlinkable triples that keep verifying."""

import ast
import hashlib
import os
from dataclasses import replace

import pytest

import edcred
from edcred.credential import (
    PresentationSignature,
    PresentationToken,
    check_equation,
    make_presentation,
    presentation_context,
    randomize,
    signature_of,
    verify_presentation,
)
from edcred.curve import OpCounter, Point, Scalar
from edcred.disclosure import present
from edcred.errors import WireError
from edcred.hashing import attr_to_scalar
from edcred.issuance import issuer_start, user_blind, user_unblind
from edcred.params import SystemParams
from edcred.protocol import run_issuance
from edcred.schnorr import SchnorrTranscript, fs_prove, fs_verify, pk_commit

from conftest import make_rng


@pytest.fixture(scope="module")
def toy_cred(toy_deploy):
    params, key = toy_deploy
    rng = make_rng("cred:toy")
    attrs = [params.curve.random_nonzero(rng)] + [
        attr_to_scalar(f"a{i}", params.curve) for i in range(1, 4)
    ]
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    return user_unblind(state, session.sign(request), params)


def test_randomize_still_verifies(toy_deploy, toy_cred):
    params, _ = toy_deploy
    rng = make_rng("rand")
    sig = signature_of(toy_cred)
    for _ in range(50):
        fresh = randomize(sig, params, rng)
        assert check_equation(fresh, params)
        assert fresh.h == sig.h
        assert (fresh.r_point, fresh.s) != (sig.r_point, sig.s)


def test_randomize_explicit_r_is_exact(toy_deploy, toy_cred):
    params, _ = toy_deploy
    c = params.curve
    sig = signature_of(toy_cred)
    r = c.scalar(42)
    fresh = randomize(sig, params, r=r)
    assert fresh.r_point == sig.r_point + r * c.base
    assert fresh.s == sig.s + r


def test_randomize_composes_additively(toy_deploy, toy_cred):
    params, _ = toy_deploy
    c = params.curve
    sig = signature_of(toy_cred)
    r1, r2 = c.scalar(17), c.scalar(29)
    twice = randomize(randomize(sig, params, r=r1), params, r=r2)
    once = randomize(sig, params, r=r1 + r2)
    assert twice == once


def test_randomize_requires_some_randomness(toy_deploy, toy_cred):
    params, _ = toy_deploy
    with pytest.raises(ValueError):
        randomize(signature_of(toy_cred), params)


def test_verify_presentation_includes_master_proof(toy_deploy, toy_cred):
    # each half fails on its own: a broken triple with a proof that is
    # valid for its context, and an intact triple with a broken proof
    params, _ = toy_deploy
    rng = make_rng("vsig")
    token = make_presentation(toy_cred, params, rng, fresh=True)
    assert verify_presentation(token, params)
    sig, p0, sid = token.sig, token.commitment0, token.session_id
    broken = PresentationSignature(sig.r_point, sig.s + 1, sig.h)
    m0 = toy_cred.attrs[0]
    reproved = fs_prove(m0, p0, *pk_commit(params.curve, m0, rng),
                        presentation_context(params, sid, broken))
    assert not verify_presentation(PresentationToken(broken, p0, reproved, sid), params)
    proof = token.proof
    bad = SchnorrTranscript(proof.commitment, proof.challenge, proof.response + 1, p0)
    assert not verify_presentation(PresentationToken(sig, p0, bad, sid), params)


def test_check_equation_rejects_degenerate(toy_deploy, toy_cred):
    # no triple with h = 0 can be built, so none reaches the check
    params, _ = toy_deploy
    sig = signature_of(toy_cred)
    with pytest.raises(ValueError, match="h = 0"):
        PresentationSignature(sig.r_point, sig.s, Scalar(0, params.curve.q))
    assert not check_equation(PresentationSignature(sig.r_point, sig.s + 1, sig.h), params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_check_equation_is_exact(deploy, request):
    """R = rho*P + (0, p-1) with s = h*x + rho leaves an error of order two,
    which is refused, and R = rho*P is accepted: one projective sum booked
    as 2 Ms + 1 Ap with no inversion, Ppub on the chain or on its comb.
    A term -R is an addition even when R has a comb table, whose multiple
    (q - 1)*R would drop R's torsion."""
    params, key = request.getfixturevalue(deploy)
    c = params.curve
    rng = make_rng(f"exact:{deploy}")
    two = Point(0, c.p - 1, c)
    for p_pub in (Point(params.p_pub.x, params.p_pub.y, c),
                  Point(params.p_pub.x, params.p_pub.y, c).precompute()):
        verifier = SystemParams(c, p_pub, params.k)
        rho, h = c.random_nonzero(rng), c.random_nonzero(rng)
        s = h * key.x + rho
        with_table = (rho * c.base + two).precompute()
        for r_point, ok in ((rho * c.base, True), (rho * c.base + two, False), (with_table, False)):
            with OpCounter() as ops:
                assert check_equation(PresentationSignature(r_point, s, h), verifier) is ok
            assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2, 1, 0)


def test_credential_module_owns_the_one_exact_signature_check():
    # the credential, its triple's bytes and the triple's exact check live
    # in credential.py, which imports nothing from the issuance layer;
    # curve.py and credential.py are the only modules that write
    # cofactored=False, so a second exact signature check fails here
    pkg = os.path.dirname(edcred.__file__)
    exact = set()
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name)) as fh:
            text = fh.read()
        if "cofactored=False" in text:
            exact.add(name)
        if name == "credential.py":
            imported = []
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ImportFrom):
                    imported += [node.module or ""] + [a.name for a in node.names]
                elif isinstance(node, ast.Import):
                    imported += [a.name for a in node.names]
            assert not [m for m in imported if "issuance" in m.split(".")], imported
    assert exact == {"curve.py", "credential.py"}


def test_presentation_roundtrip(toy_deploy, toy_cred):
    params, _ = toy_deploy
    rng = make_rng("present")
    token = make_presentation(toy_cred, params, rng, fresh=True)
    assert verify_presentation(token, params)
    data = token.to_bytes(params)
    again = PresentationToken.from_bytes(data, params, token.session_id)
    assert verify_presentation(again, params)
    assert again.sig == token.sig


def test_presentation_fresh_is_unlinkable_in_r(toy_deploy, toy_cred):
    params, _ = toy_deploy
    rng = make_rng("unlink")
    t1 = make_presentation(toy_cred, params, rng, fresh=True)
    t2 = make_presentation(toy_cred, params, rng, fresh=True)
    assert t1.sig.r_point != t2.sig.r_point and t1.sig.s != t2.sig.s
    assert t1.sig.h == t2.sig.h  # h stays; noted as a linkability residue
    stale = make_presentation(toy_cred, params, rng, fresh=False)
    assert stale.sig == signature_of(toy_cred)


def test_presentation_binds_session(toy_deploy, toy_cred):
    params, _ = toy_deploy
    token = make_presentation(toy_cred, params, make_rng("session"), fresh=True)
    # the session id is the first draw from the holder's rng
    assert token.session_id == make_rng("session").getrandbits(128).to_bytes(16, "big")
    ctx = presentation_context(params, token.session_id, token.sig)
    assert token.session_id in ctx and params.digest() in ctx


def test_presentation_wrong_session_rejected_production(prod_deploy):
    # session swap flips the proof context; statistical, so production curve
    params, key = prod_deploy
    rng = make_rng("swap")
    attrs = [params.curve.random_nonzero(rng), attr_to_scalar("x", params.curve)]
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    cred = user_unblind(state, session.sign(request), params)
    token = make_presentation(cred, params, rng, fresh=True)
    assert verify_presentation(token, params)
    other = bytes(b ^ 1 for b in token.session_id)
    moved = PresentationToken(token.sig, token.commitment0, token.proof, other)
    assert not verify_presentation(moved, params)


def test_replaced_fields_are_rejected(prod_deploy):
    # perfbench's tamper runs rebuild these three records with
    # dataclasses.replace, so they stay dataclasses, and each such edit
    # must be a reject
    params, key = prod_deploy
    rng = make_rng("replace")
    attrs = [params.curve.random_nonzero(rng), attr_to_scalar("x", params.curve)]
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    cred = user_unblind(state, session.sign(request), params)
    token = make_presentation(cred, params, rng, fresh=True)
    assert verify_presentation(token, params)
    sig, proof, base = token.sig, token.proof, params.curve.base
    moved = token.commitment0 + base
    tampered = [
        replace(token, sig=replace(sig, s=sig.s + 1)),
        replace(token, sig=replace(sig, h=sig.h + 1)),
        replace(token, sig=replace(sig, r_point=sig.r_point + base)),
        replace(token, commitment0=moved, proof=replace(proof, statement=moved)),
        replace(token, proof=replace(proof, response=proof.response + 1)),
        replace(token, session_id=b"M" * 16),
    ]
    for bad in tampered:
        assert not verify_presentation(bad, params)
    assert check_equation(sig, params) and not check_equation(replace(sig, s=sig.s + 1), params)
    assert fs_verify(request.proof, b"")
    assert not fs_verify(replace(request.proof, response=request.proof.response + 1), b"")


def test_presentation_token_decode_rejections(toy_deploy, toy_cred):
    params, _ = toy_deploy
    rng = make_rng("tokio")
    token = make_presentation(toy_cred, params, rng, fresh=True)
    data = token.to_bytes(params)
    with pytest.raises(ValueError):
        PresentationToken.from_bytes(data[:-1], params, token.session_id)
    with pytest.raises(ValueError):
        PresentationToken.from_bytes(b"\x00" * 32 + data[32:], params, token.session_id)


def test_presentation_with_zero_h_refused_at_parse(toy_deploy, toy_cred):
    params, _ = toy_deploy
    rng = make_rng("tokzero")
    token = make_presentation(toy_cred, params, rng, fresh=True)
    with pytest.raises(ValueError, match="h = 0"):
        replace(token.sig, h=params.curve.scalar(0))
    # h, the triple's last field, written as zero into the bytes
    w = params.curve.coord_bytes
    data = token.to_bytes(params)
    bad = data[:32 + 3 * w] + bytes(w) + data[32 + 4 * w:]
    with pytest.raises(WireError, match="h = 0"):
        PresentationToken.from_bytes(bad, params, token.session_id)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_holder_steps_pay_one_inversion(deploy, request):
    """A show takes m_0*P, its proof nonce's w*P and, when fresh, R + r*P
    as one batch, and a randomization R + r*P as one sum: one inversion
    each, booked as 3 Ms + 1 Ap (2 Ms unfresh) and 1 Ms + 1 Ap."""
    params, key = request.getfixturevalue(deploy)
    rng = make_rng(f"show-inv:{deploy}")
    cred, _ = run_issuance(params, key, [params.curve.random_nonzero(rng) for _ in range(4)], rng, rng)
    for fresh, booked in ((True, (3, 1)), (False, (2, 0))):
        with OpCounter() as ops:
            token = make_presentation(cred, params, rng, fresh=fresh)
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (*booked, 1)
        assert verify_presentation(token, params)
        assert (token.sig == signature_of(cred)) is not fresh
    with OpCounter() as ops:
        sig = randomize(signature_of(cred), params, rng)
    assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (1, 1, 1)
    assert check_equation(sig, params)


# SHA-256 of session id + token bytes for fixed seeds. How a holder step
# batches its multiples moves no rng draw and no byte; hedging each secret
# draw with its secret changed the bytes once, and the draws not at all.
HOLDER_DIGESTS = {
    ("toy", "fresh"): "f340e26309bd30eb893e9bdc2d400d8ca04a0a02bd1bdd1c9da873b0f6bc62fc",
    ("toy", "unfresh"): "22aa16d899dbb25845e6a7beabc105189767cb6f050ac27b4ab6a905a893dab2",
    ("toy", "hidden"): "c1bb161b6db7dabb4f393b2e6b94bb11d7e121fc48b0d628f3fb16b46aa05229",
    ("prod", "fresh"): "25b291f91e1c08d8054928e2566f20a3b8b3b7a8d3450c0da0749be36a480947",
    ("prod", "unfresh"): "aba3d64cb343fca284f67d9c2fee85612f7120ea078c298f2134397fe46e48e5",
    ("prod", "hidden"): "31577b5168ed2c371ee36dca36dcd2fe629b13b5b5facd02598fc06eb0665682",
}


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_holder_tokens_match_known_answers(name, request):
    """make_presentation, fresh and not, and present(cred, []) in process,
    on a credential issued from fixed seeds: the bytes the criterion 10
    digests do not reach."""
    params, key = request.getfixturevalue(f"{name}_deploy")
    c = params.curve
    rng = make_rng(f"kat:{name}")
    attrs = [c.random_nonzero(rng)] + [attr_to_scalar(f"a{i}", c) for i in range(1, 4)]
    cred, _ = run_issuance(params, key, attrs, rng, rng)
    makers = {
        "fresh": lambda r: make_presentation(cred, params, r, fresh=True),
        "unfresh": lambda r: make_presentation(cred, params, r, fresh=False),
        "hidden": lambda r: present(cred, [], params, r),
    }
    for label, make in makers.items():
        token = make(make_rng(f"kat:{name}:{label}"))
        digest = hashlib.sha256(token.session_id + token.to_bytes(params)).hexdigest()
        assert digest == HOLDER_DIGESTS[name, label], label
