"""Security arguments (blindness pairing, keyless simulation) and the
operation counts behind `edcred bench`."""

import pytest

from edcred.credential import check_equation, signature_of
from edcred.errors import WireError
from edcred.harness import opcount_bench, paper_issuance_ms, render_table
from edcred.hashing import attr_to_scalar, hash_points
from edcred.issuance import issuer_start, user_blind, user_unblind
from edcred.protocol import run_issuance
from edcred.wire import MSG_ISS3, WireMessage

from conftest import make_rng
from oracles import (
    IssuerView,
    attempt_master_binding,
    blindness_crosscheck,
    issuer_view_from_transcript,
    pair_blinding,
    simulate_issue,
)


def one_issuance(params, key, label, n=3):
    rng_i, rng_u = make_rng(f"{label}:i"), make_rng(f"{label}:u")
    attrs = [params.curve.random_nonzero(rng_u)] + [
        attr_to_scalar(f"{label}:{i}", params.curve) for i in range(1, n)
    ]
    cred, transcript = run_issuance(params, key, attrs, rng_i, rng_u)
    return cred, transcript


def test_issuer_view_extraction(toy_deploy):
    params, key = toy_deploy
    cred, transcript = one_issuance(params, key, "view")
    view = issuer_view_from_transcript(transcript, params)
    # the view satisfies the issuer-side equation
    assert view.s_bar * params.curve.base == view.h_bar * params.p_pub + view.r_bar


def test_matching_pair_is_consistent(toy_deploy):
    params, key = toy_deploy
    cred, transcript = one_issuance(params, key, "match")
    view = issuer_view_from_transcript(transcript, params)
    output = signature_of(cred)
    pairing = pair_blinding(view, output, params)
    assert pairing.consistent
    assert blindness_crosscheck(view, output, params)


def test_crossed_pairs_also_consistent(toy_deploy):
    """The blindness property: ANY valid view pairs with ANY valid output,
    so transcripts carry no information about which credential they made."""
    params, key = toy_deploy
    creds, views = [], []
    for i in range(6):
        cred, transcript = one_issuance(params, key, f"cross{i}")
        creds.append(cred)
        views.append(issuer_view_from_transcript(transcript, params))
    for view in views:
        for cred in creds:
            output = signature_of(cred)
            assert blindness_crosscheck(view, output, params)


def test_issuer_view_refuses_a_malformed_body(toy_deploy):
    params, key = toy_deploy
    _, transcript = one_issuance(params, key, "malformed-view")
    for entry in transcript:
        if entry.message.msg_type == MSG_ISS3:
            msg = entry.message
            entry.message = WireMessage(MSG_ISS3, msg.session_id, msg.body[:-1])
    with pytest.raises(WireError):
        issuer_view_from_transcript(transcript, params)


def test_pair_blinding_rejects_invalid_inputs(toy_deploy):
    params, key = toy_deploy
    cred, transcript = one_issuance(params, key, "invalid")
    view = issuer_view_from_transcript(transcript, params)
    bad_view = IssuerView(view.r_bar, view.h_bar, view.s_bar + 1)
    output = signature_of(cred)
    with pytest.raises(ValueError):
        pair_blinding(bad_view, output, params)
    bad_out = signature_of_triple(cred.r_point, cred.s + 1, cred.h)
    with pytest.raises(ValueError):
        pair_blinding(view, bad_out, params)


def test_simulated_triple_passes_equation(toy_deploy):
    params, _ = toy_deploy
    rng = make_rng("sim")
    for _ in range(30):
        h = params.curve.random_nonzero(rng)
        r_pt, s = simulate_issue(h, params, rng)
        assert check_equation(signature_of_triple(r_pt, s, h), params)


def signature_of_triple(r_pt, s, h):
    from edcred.credential import PresentationSignature

    return PresentationSignature(r_point=r_pt, s=s, h=h)


def test_simulated_triple_fails_master_binding(prod_deploy):
    """Keyless simulation makes verifying triples whose R was never built
    from a hash preimage, so H(P0, R) == h cannot be arranged."""
    params, _ = prod_deploy
    rng = make_rng("bind")
    for _ in range(20):
        h = params.curve.random_nonzero(rng)
        r_pt, s = simulate_issue(h, params, rng)
        assert check_equation(signature_of_triple(r_pt, s, h), params)
        assert not attempt_master_binding(h, r_pt, params, rng)


def test_honest_issuance_satisfies_master_binding(toy_deploy):
    # contrast case: a real credential with one attribute DOES bind
    params, key = toy_deploy
    rng = make_rng("honest")
    attrs = [params.curve.random_nonzero(rng)]
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    cred = user_unblind(state, session.sign(request), params)
    p0 = cred.attrs[0] * params.curve.base
    assert hash_points(p0, cred.r_point) == cred.h


def test_published_cost_formulas():
    assert paper_issuance_ms(1) == 7
    assert paper_issuance_ms(5) == 11
    assert [paper_issuance_ms(n + 1) - paper_issuance_ms(n) for n in range(1, 6)] == [1] * 5


def test_opcount_bench_shape(toy_deploy):
    params, key = toy_deploy
    rows = opcount_bench(3, params, key, make_rng("bench"))
    assert [r.protocol for r in rows] == ["issuance", "verification"]
    iss, ver = rows
    assert iss.n == 3 and ver.n == 3
    assert iss.measured_ms == 3 + 5  # one per attribute commitment
    assert iss.measured_ap == 2
    assert iss.pk_ms == 3 and iss.pk_ap == 1
    assert ver.measured_ms == 2 and ver.measured_ap == 1
    assert ver.pk_ms == 2 and ver.pk_ap == 1


def test_opcount_bench_repeat_consistency(toy_deploy):
    params, key = toy_deploy
    rows = opcount_bench(2, params, key, make_rng("rep"), repeat=3)
    assert len(rows) == 2  # repeats collapse when they agree
    for repeat in (0, -3):
        with pytest.raises(ValueError, match="repeat"):
            opcount_bench(2, params, key, make_rng("rep"), repeat=repeat)


def test_opcount_growth_is_one_per_attribute(toy_deploy):
    params, key = toy_deploy
    ms = []
    for n in (1, 2, 3, 4):
        rows = opcount_bench(n, params, key, make_rng(f"grow{n}"))
        ms.append(rows[0].measured_ms)
    assert [b - a for a, b in zip(ms, ms[1:])] == [1, 1, 1]


def test_render_table_layout(toy_deploy):
    params, key = toy_deploy
    rows = opcount_bench(2, params, key, make_rng("table"))
    text = render_table(rows)
    head = text.splitlines()[0].split()
    assert head == [
        "protocol", "n", "measured_Ms", "paper_Ms",
        "measured_Ap", "paper_Ap", "pk_Ms", "pk_Ap",
    ]
    assert "issuance" in text and "verification" in text
    assert "step breakdown" in text
