"""Selective disclosure: reveal some attributes, prove the rest in place."""

import itertools
from dataclasses import replace

import pytest

from edcred.credential import PresentationSignature, check_equation
from edcred.curve import OpCounter, Point, Scalar
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.errors import WireError
from edcred.hashing import attr_to_scalar, challenge_scalar, hash_block
from edcred.issuance import issuer_start, user_blind, user_unblind
from edcred.params import _COMB_AT, SystemParams

from conftest import make_rng
from oracles import (
    disclosure_bytes,
    disclosure_context,
    disclosure_fields,
    reference_verify_disclosure,
)


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
    a, r = token.proofs[i]
    return replace(token, proofs={**token.proofs, i: (a, r + 1)})


def signed_token(params, attrs, r_point, s, disclose, rng, first=None):
    """A token on the signature (R, s) over attrs, its proofs made for its
    own body. first, if given, is (A, response from c) for index 0's proof
    in place of an honest one."""
    curve = params.curve
    points = [m * curve.base for m in attrs]
    hidden = [i for i in range(len(attrs)) if i not in disclose]
    h, session_id = hash_block(points, r_point), b"S" * 16
    disclosed = {i: attrs[i] for i in disclose}
    hidden_points = {i: points[i] for i in hidden}
    nonces = {i: curve.random_nonzero(rng) for i in hidden}
    commits = {i: nonces[i] * curve.base for i in hidden}
    if first is not None:
        commits[0] = first[0]
    fields = disclosure_fields(params, r_point, s, h, len(attrs), disclosed, hidden_points)
    c = challenge_scalar([commits[i] for i in hidden], [points[i] for i in hidden],
                         disclosure_context(params, session_id, fields), curve)
    proofs = {i: (commits[i], c * attrs[i] + nonces[i]) for i in hidden}
    if first is not None:
        proofs[0] = (first[0], first[1](c))
    return DisclosureToken(r_point, s, h, len(attrs), disclosed, hidden_points, proofs, c,
                           session_id)


def mutations(token, params, rng):
    """The token with each criterion-7 mutation, then with each hidden
    index's response bumped, each after the name of the field it edits."""
    c = params.curve
    bump = c.random_nonzero(rng)
    if token.disclosed:
        i = rng.choice(token.disclosed_indices())
        yield "disclosed", replace(token, disclosed={**token.disclosed, i: token.disclosed[i] + bump})
    moved = token.hidden_points[0] + bump.v * c.base
    yield "hidden_points", replace(token, hidden_points={**token.hidden_points, 0: moved})
    yield "sig_s", replace(token, sig_s=token.sig_s + bump)
    yield "sig_h", replace(token, sig_h=token.sig_h + bump)
    yield "session_id", replace(token, session_id=b"M" * 16)
    for i in token.hidden_indices():
        yield "response", bump_response(token, i)


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


def test_disclose_indices_checked_before_sorting(toy_deploy):
    """A non-int index is a ValueError even beside ints it cannot be
    sorted with, and a bool is no index, though True == 1."""
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "indices")
    for bad in ([1, "a"], ["a", 1], [True], [1, False], [1, 2.0], [None]):
        with pytest.raises(ValueError):
            present(cred, bad, params, rng)
    assert present(cred, (2, 1, 2), params, rng).disclosed_indices() == [1, 2]


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

    lied = replace(token, disclosed={1: token.disclosed[1] + 1, 2: token.disclosed[2]})
    assert not verify_disclosure(lied, params)

    moved = replace(token, hidden_points={0: token.hidden_points[0] + c.base,
                                          3: token.hidden_points[3]})
    assert not verify_disclosure(moved, params)

    resigned = replace(token, sig_s=token.sig_s + 1)
    assert not verify_disclosure(resigned, params)

    resession = replace(token, session_id=b"Z" * 16)
    assert not verify_disclosure(resession, params)

    for i in token.hidden_indices():
        assert not verify_disclosure(bump_response(token, i), params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_bumped_challenge_refused_before_the_equation(deploy, request):
    """A stored challenge off by one is refused when the recomputed one
    differs, in memory and after a round trip through the bytes: after the
    revealed m_i*P, at most one inversion, and before the cofactored
    equation, whose doubling chain every honest check runs."""
    params, key = request.getfixturevalue(deploy)
    cred, rng = issue(params, key, 5, f"bump-challenge:{deploy}")
    for subset in ([], [2], [1, 3, 4]):
        token = present(cred, subset, params, rng)
        with OpCounter() as ops:
            assert verify_disclosure(token, params)
        assert ops.inner_doubles > 0
        bumped = replace(token, challenge=token.challenge + 1)
        parsed = DisclosureToken.from_bytes(bumped.to_bytes(params), params, token.session_id)
        assert parsed == bumped
        for bad in (bumped, parsed):
            with OpCounter() as ops:
                assert not verify_disclosure(bad, params)
            assert (ops.inner_doubles, ops.inversions) == (0, min(len(subset), 1)), subset


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
    """A token whose indices are no partition of range(n), or whose proofs
    are not one per hidden index, cannot be built."""
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "audit")
    token = present(cred, [1], params, rng)

    # 2 both disclosed and hidden
    with pytest.raises(ValueError, match="partition"):
        replace(token, disclosed={**token.disclosed, 2: cred.attrs[2]})

    # 2 neither disclosed nor hidden
    with pytest.raises(ValueError, match="partition"):
        replace(token, hidden_points={0: token.hidden_points[0]}, proofs={0: token.proofs[0]})

    # index 0 dropped
    with pytest.raises(ValueError, match="partition"):
        replace(token, hidden_points={2: token.hidden_points[2]}, proofs={2: token.proofs[2]})

    # proof for 2 missing
    with pytest.raises(ValueError, match="one per hidden index"):
        replace(token, proofs={0: token.proofs[0]})


def test_degenerate_fields_rejected(toy_deploy):
    """h = 0 and a zero disclosed attribute cannot be built."""
    params, key = toy_deploy
    cred, rng = issue(params, key, 3, "degen")
    token = present(cred, [1], params, rng)
    with pytest.raises(ValueError, match="h = 0"):
        replace(token, sig_h=Scalar(0, params.curve.q))
    with pytest.raises(ValueError, match="zero disclosed attribute"):
        replace(token, disclosed={1: Scalar(0, params.curve.q)})


def test_attribute_count_over_the_cap_rejected(toy_deploy):
    """A token of 65 attributes whose signature the key really made, with
    index 64 disclosed so the hidden bitmap still fits: only the count
    rule refuses it, in memory and in its bytes. So does a count of 0."""
    params, key = toy_deploy
    curve = params.curve
    rng = make_rng("over-cap")
    attrs = [curve.random_nonzero(rng) for _ in range(65)]
    k = curve.random_nonzero(rng)
    r_point = k * curve.base
    h = hash_block([m * curve.base for m in attrs], r_point)
    assert check_equation(PresentationSignature(r_point, k + h * key.x, h), params)
    with pytest.raises(ValueError, match="attribute count"):
        signed_token(params, attrs, r_point, k + h * key.x, [64], rng)
    token = signed_token(params, attrs[:64], r_point, k + h * key.x, [63], rng)
    over = disclosure_bytes(token, params, n_attrs=65, disclosed={63: attrs[63], 64: attrs[64]})
    none = disclosure_bytes(token, params, n_attrs=0, disclosed={}, hidden_points={}, proofs={})
    for data in (over, none):
        with pytest.raises(WireError, match="attribute count"):
            DisclosureToken.from_bytes(data, params, token.session_id)
    with pytest.raises(ValueError, match="attribute count"):
        replace(token, n_attrs=0)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_zero_fields_refused_at_parse(deploy, request):
    """h = 0 and a zero disclosed attribute are parse errors in a token's
    bytes, as in a credential's; no token holding one can be built."""
    params, key = request.getfixturevalue(deploy)
    cred, rng = issue(params, key, 4, f"zeroparse:{deploy}")
    token = present(cred, [1, 3], params, rng)
    zero = Scalar(0, params.curve.q)
    assert disclosure_bytes(token, params) == token.to_bytes(params)
    assert DisclosureToken.from_bytes(token.to_bytes(params), params, token.session_id) == token
    for bad in ({"sig_h": zero},
                {"disclosed": {**token.disclosed, 1: zero}},
                {"disclosed": {**token.disclosed, 3: zero}}):
        with pytest.raises(ValueError, match="zero"):
            replace(token, **bad)
        with pytest.raises(WireError, match="zero"):
            DisclosureToken.from_bytes(disclosure_bytes(token, params, **bad), params,
                                       token.session_id)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_master_secret_revealed_refused(deploy, request):
    """A token that reveals m_0 cannot be built, and its bytes, whose
    hidden bitmap leaves bit 0 clear, are a WireError: revealing m_0
    hands the verifier the secret every later proof rests on."""
    params, key = request.getfixturevalue(deploy)
    cred, rng = issue(params, key, 4, f"reveal-m0:{deploy}")
    m0 = cred.attrs[0]
    for subset in ([], [2], [1, 2, 3]):
        token = present(cred, subset, params, rng)
        hidden = {i: pt for i, pt in token.hidden_points.items() if i}
        revealed = {"disclosed": {**token.disclosed, 0: m0}, "hidden_points": hidden,
                    "proofs": {i: token.proofs[i] for i in hidden}}
        with pytest.raises(ValueError, match="index 0"):
            replace(token, **revealed)
        data = disclosure_bytes(token, params, **revealed)
        assert data[32 + 4 * params.curve.coord_bytes + 9] & 1 == 0
        with pytest.raises(WireError, match="index 0"):
            DisclosureToken.from_bytes(data, params, token.session_id)


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


def keeps_challenge(token, params) -> bool:
    """Whether the challenge hashed over token's proofs and body is the one
    it carries."""
    hidden = token.hidden_indices()
    c = challenge_scalar([token.proofs[i][0] for i in hidden],
                         [token.hidden_points[i] for i in hidden],
                         token.body_prefix(params), params.curve)
    return c == token.challenge


def check_against_reference(token, params, rng, lucky=()):
    """Both verifiers accept token, agree on each mutation and refuse it,
    except that a mutation of a field named in lucky may instead keep the
    challenge the token carries. The toy test names the session id, which
    only the challenge binds: with q = 131 challenges, an edit to it keeps
    the challenge one time in q and leaves a valid token."""
    assert verify_disclosure(token, params) == reference_verify_disclosure(token, params) is True
    for field, bad in mutations(token, params, rng):
        verdict = verify_disclosure(bad, params)
        assert verdict == reference_verify_disclosure(bad, params), field
        assert verdict is False or (field in lucky and keeps_challenge(bad, params)), field


def test_verdict_equals_reference_toy(toy_deploy):
    params, key = toy_deploy
    cred, rng = issue(params, key, 4, "reference")
    for k in range(4):
        for subset in itertools.combinations(range(1, 4), k):
            check_against_reference(present(cred, list(subset), params, rng), params, rng,
                                    lucky=("session_id",))


def test_verdict_equals_reference_production(prod_deploy):
    params, key = prod_deploy
    cred, rng = issue(params, key, 8, "reference")
    for k in (0, 3, 7):
        subset = sorted(rng.sample(range(1, 8), k))
        check_against_reference(present(cred, subset, params, rng), params, rng)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_keyless_fold_forgery_rejected(deploy, request):
    """A token made without the issuer key whose signature error
    (s - rho)*P - h*Ppub is cancelled by its first proof's error. Checked
    with the signature and that proof both at weight 1, it would verify."""
    params, _ = request.getfixturevalue(deploy)
    c = params.curve
    rng = make_rng(f"fold:{deploy}")
    attrs = [c.random_nonzero(rng) for _ in range(2)]
    rho, a, s = (c.random_nonzero(rng) for _ in range(3))
    r_point = rho * c.base
    h = hash_block([m * c.base for m in attrs], r_point)
    first = (a * c.base - h * params.p_pub, lambda ch: rho + a + ch * attrs[0] - s)
    for disclose in ([], [1]):
        token = signed_token(params, attrs, r_point, s, disclose, rng, first)
        sig_err = s * c.base - h * params.p_pub - r_point
        commit, resp = token.proofs[0]
        proof_err = resp * c.base - commit - token.challenge * token.hidden_points[0]
        assert not sig_err.is_neutral() and (sig_err + proof_err).is_neutral()
        assert not verify_disclosure(token, params)
        assert not reference_verify_disclosure(token, params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_signature_torsion_policy(deploy, request):
    """With the issuer key, R = rho*P + (0, p-1) and s = h*x + rho leave a
    signature error of order two: the cofactored check accepts it, the
    exact equation does not, and s + 1 is refused."""
    params, key = request.getfixturevalue(deploy)
    c = params.curve
    rng = make_rng(f"sigtorsion:{deploy}")
    attrs = [c.random_nonzero(rng) for _ in range(3)]
    rho = c.random_nonzero(rng)
    r_point = rho * c.base + Point(0, c.p - 1, c)
    h = hash_block([m * c.base for m in attrs], r_point)
    s = h * key.x + rho
    for disclose in ([], [2]):
        token = signed_token(params, attrs, r_point, s, disclose, rng)
        assert verify_disclosure(token, params)
        assert not reference_verify_disclosure(token, params)
        off = signed_token(params, attrs, r_point, s + 1, disclose, rng)
        assert not verify_disclosure(off, params)


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_verify_books_split_equation_and_proofs(deploy, request):
    """3 Ms + 1 Ap for the signature's split form, 2 Ms + 1 Ap per hidden
    proof, one Ms per disclosed m_i*P, and one inversion, shared by those,
    when there are any."""
    params, key = request.getfixturevalue(deploy)
    cred, rng = issue(params, key, 6, f"book:{deploy}")
    # Ppub with its table, as a verifier has it after its first checks;
    # the build's inversion is pinned by test_public_key_table_at_nth_check
    params.p_pub.precompute()
    for subset in ([], [3], [1, 4, 5], [1, 2, 3, 4, 5]):
        token = present(cred, subset, params, rng)
        with OpCounter() as ops:
            assert verify_disclosure(token, params)
        r, h = len(subset), 6 - len(subset)
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (3 + r + 2 * h, h + 1, min(r, 1))


@pytest.mark.parametrize("deploy", ["toy_deploy", "prod_deploy"])
def test_present_pays_one_inversion(deploy, request):
    """The h hidden m_i*P and the h proof nonces' w_i*P are one batch of
    2h Ms with one inversion, whether none, some or all of indices
    1..n-1 are revealed."""
    params, key = request.getfixturevalue(deploy)
    cred, rng = issue(params, key, 5, f"present-inv:{deploy}")
    for subset in ([], [2], [1, 3], [1, 2, 3, 4]):
        with OpCounter() as ops:
            token = present(cred, subset, params, rng)
        h = 5 - len(subset)
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2 * h, 0, 1), subset
        assert verify_disclosure(token, params)


@pytest.mark.parametrize("check", ["verify_disclosure", "check_equation"])
def test_public_key_table_at_nth_check(check, prod_deploy):
    """A verifier that only checks tokens builds Ppub's comb table at its
    _COMB_AT-th check, counted by its SystemParams, which books the build's
    inversions, one per row; the checks before it build none."""
    params, key = prod_deploy
    cred, rng = issue(params, key, 4, "ppub-table")
    shown = present(cred, [2], params, rng)
    data = shown.to_bytes(params)
    verifier = SystemParams.parse_file(params.format_file())
    assert verifier.p_pub == params.p_pub and verifier.p_pub._table is None
    table = Point(params.p_pub.x, params.p_pub.y, params.curve).precompute()._table
    for i in range(1, _COMB_AT + 3):
        # a token parsed afresh for each check, as a verifier gets it
        token = DisclosureToken.from_bytes(data, verifier, shown.session_id)
        with OpCounter() as ops:
            if check == "verify_disclosure":
                assert verify_disclosure(token, verifier)
            else:
                sig = PresentationSignature(token.sig_r, token.sig_s, token.sig_h)
                assert check_equation(sig, verifier)
        # one inversion for the revealed m_2*P, one per row for the build
        revealed = int(check == "verify_disclosure")
        assert ops.inversions == revealed + (len(table) if i == _COMB_AT else 0), i
        assert verifier.p_pub._table == (table if i >= _COMB_AT else None)


def test_cached_token_rechecks_book_alike(prod_deploy):
    """Re-verifying one parsed token, n = 8 and all hidden, with Ppub's
    table built: every check books the same counts, inversions included,
    and no point of the token gets a table."""
    params, key = prod_deploy
    params.p_pub.precompute()
    cred, rng = issue(params, key, 8, "cached")
    shown = present(cred, [], params, rng)
    token = DisclosureToken.from_bytes(shown.to_bytes(params), params, shown.session_id)
    books = []
    for _ in range(40):
        with OpCounter() as ops:
            assert verify_disclosure(token, params)
        books.append(ops.as_dict())
    assert books == [books[0]] * 40
    points = [token.sig_r, *token.hidden_points.values(), *(a for a, _ in token.proofs.values())]
    assert len(points) == 1 + 8 + 8 and all(pt._table is None for pt in points)


def test_reduced_weights_shorten_the_chain(prod_deploy):
    """n = 8 with 3 revealed on curve1174, Ppub with its table: the token
    books what it did under (z_i, c*z_i) weights, 16 Ms + 6 Ap, and its
    one chain runs about 190 doublings, not about 250: weights of about 190
    bits on every A_i and Q_i, one doubling for each of their ten 3X
    tables, and three for the cofactor 4 that scales every scalar."""
    params, key = prod_deploy
    params.p_pub.precompute()
    cred, rng = issue(params, key, 8, "short-chain")
    for _ in range(10):
        token = present(cred, [1, 2, 3], params, rng)
        with OpCounter() as ops:
            assert verify_disclosure(token, params)
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (16, 6, 1)
        assert ops.inner_doubles <= 192 + 10 + 3
