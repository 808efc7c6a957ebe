"""Selective disclosure: reveal some attributes, prove the rest in place."""

import itertools

import pytest

from edcred.curve import Scalar
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.errors import WireError
from edcred.hashing import attr_to_scalar
from edcred.issuance import issuer_start, user_blind, user_unblind
from edcred.schnorr import SchnorrTranscript

from conftest import make_rng


def issue(params, key, n, label, rng=None):
    rng = rng or make_rng(f"disc:{label}")
    attrs = [params.curve.random_nonzero(rng)] + [
        attr_to_scalar(f"{label}:{i}", params.curve) for i in range(1, n)
    ]
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    return user_unblind(state, session.sign(request), params), rng


def bump_response(token, i):
    """token with hidden index i's proof response moved by one; the shared
    challenge does not hash responses, so only the proof check sees it."""
    t = token.proofs[i]
    proofs = {**token.proofs,
              i: SchnorrTranscript(t.commitment, t.challenge, t.response + 1, t.statement)}
    return DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        token.disclosed, token.hidden_points, proofs, token.session_id)


def test_every_partition_verifies(toy_deploy):
    # all subsets of the disclosable indices of a 4-attribute credential
    params, key = toy_deploy
    cred, rng = issue(params, key, 4, "partition")
    for k in range(4):
        for subset in itertools.combinations(range(1, 4), k):
            token = present(cred, list(subset), params, rng)
            assert verify_disclosure(token, params), f"partition {subset}"
            assert set(token.disclosed_indices()) == set(subset)
            assert 0 in token.hidden_indices()


def test_disclosed_values_are_the_attributes(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 4, "values")
    token = present(cred, [1, 3], params, rng)
    assert token.disclosed == {1: cred.attrs[1], 3: cred.attrs[3]}
    assert set(token.hidden_points) == {0, 2}
    assert token.hidden_points[2] == cred.attrs[2] * params.curve.base


def test_master_secret_never_disclosable(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "master")
    with pytest.raises(ValueError):
        present(cred, [0], params, rng)
    with pytest.raises(ValueError):
        present(cred, [3], params, rng)  # out of range
    with pytest.raises(ValueError):
        present(cred, [-1], params, rng)


def test_token_bytes_roundtrip(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 5, "wire")
    token = present(cred, [2, 4], params, rng)
    data = token.to_bytes(params)
    again = DisclosureToken.from_bytes(data, params, token.session_id)
    assert again == token
    assert verify_disclosure(again, params)


def test_token_decode_rejections(toy_deploy, prod_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "badwire")
    token = present(cred, [1], params, rng)
    data = token.to_bytes(params)
    with pytest.raises(WireError):
        DisclosureToken.from_bytes(data[:-1], params, token.session_id)
    with pytest.raises(WireError):
        DisclosureToken.from_bytes(data + b"\x00", params, token.session_id)
    with pytest.raises(WireError):
        DisclosureToken.from_bytes(data, prod_deploy[0], token.session_id)


def test_mutated_tokens_rejected_production(prod_deploy):
    """Swapped values and moved points must die on the recomputed hash
    product. Statistical rejection, so the full-size curve."""
    params, key = prod_deploy
    cred, rng = issue(params, key, 4, "mutate")
    token = present(cred, [1, 2], params, rng)
    assert verify_disclosure(token, params)
    c = params.curve

    lied = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        {1: token.disclosed[1] + 1, 2: token.disclosed[2]},
        token.hidden_points, token.proofs, token.session_id)
    assert not verify_disclosure(lied, params)

    moved = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        token.disclosed,
        {0: token.hidden_points[0] + c.base, 3: token.hidden_points[3]},
        token.proofs, token.session_id)
    assert not verify_disclosure(moved, params)

    resigned = DisclosureToken(
        token.sig_r, token.sig_s + 1, token.sig_h, token.n_attrs,
        token.disclosed, token.hidden_points, token.proofs, token.session_id)
    assert not verify_disclosure(resigned, params)

    resession = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        token.disclosed, token.hidden_points, token.proofs, b"Z" * 16)
    assert not verify_disclosure(resession, params)

    for i in token.hidden_indices():
        assert not verify_disclosure(bump_response(token, i), params)


def test_bumped_hidden_response_rejected_toy(toy_deploy):
    # one bad proof in the batch always shows, even with 131 possible weights
    params, key = toy_deploy
    cred, rng = issue(params, key, 5, "bump")
    for k in range(4):
        for subset in itertools.combinations(range(1, 5), k):
            token = present(cred, list(subset), params, rng)
            assert verify_disclosure(token, params)
            for i in token.hidden_indices():
                assert not verify_disclosure(bump_response(token, i), params), (subset, i)


def test_partition_audit_rejects_overlap_and_gaps(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "audit")
    token = present(cred, [1], params, rng)

    overlap = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        {**token.disclosed, 2: cred.attrs[2]},  # 2 both disclosed and hidden
        token.hidden_points, token.proofs, token.session_id)
    assert not verify_disclosure(overlap, params)

    no_master = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        token.disclosed,
        {2: token.hidden_points[2]},  # index 0 dropped
        {2: token.proofs[2]}, token.session_id)
    assert not verify_disclosure(no_master, params)

    orphan_proof = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        token.disclosed, token.hidden_points,
        {0: token.proofs[0]},  # proof for 2 missing
        token.session_id)
    assert not verify_disclosure(orphan_proof, params)


def test_degenerate_fields_rejected(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "degen")
    token = present(cred, [1], params, rng)
    zero_h = DisclosureToken(
        token.sig_r, token.sig_s, Scalar(0, params.curve.q), token.n_attrs,
        token.disclosed, token.hidden_points, token.proofs, token.session_id)
    assert not verify_disclosure(zero_h, params)
    zero_attr = DisclosureToken(
        token.sig_r, token.sig_s, token.sig_h, token.n_attrs,
        {1: Scalar(0, params.curve.q)}, token.hidden_points, token.proofs,
        token.session_id)
    assert not verify_disclosure(zero_attr, params)


def test_disclosure_needs_issuance_r(toy_deploy):
    # the hash product commits to the issued R; a randomized signature
    # cannot carry a disclosure, by construction
    from edcred.credential import randomize, signature_of
    from edcred.issuance import Credential

    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "randmix")
    fresh = randomize(signature_of(cred), params, rng)
    moved = Credential(attrs=cred.attrs, r_point=fresh.r_point, s=fresh.s, h=fresh.h)
    token = present(moved, [1], params, rng)
    assert not verify_disclosure(token, params)


def test_all_hidden_token_is_smallest_valid(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 2, "allhid")
    token = present(cred, [], params, rng)
    assert token.disclosed == {}
    assert set(token.hidden_points) == {0, 1}
    assert verify_disclosure(token, params)
