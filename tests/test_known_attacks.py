"""A ledger of the known attacks: each test reproduces one on curve1174
and asserts today's outcome.

Each names the ROADMAP item whose fix flips it. The change that lands a
fix inverts its test's assertion and says so in CHANGES.md, so that the
attacks that still work only get fewer. The attack constructions live in
tests/oracles.py.
"""

import random
from dataclasses import fields

import pytest

from edcred import setup
from edcred.credential import PresentationToken, make_presentation, verify_credential, verify_presentation
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.hashing import attr_to_scalar
from edcred.issuance import Credential
from edcred.protocol import run_issuance
from edcred.wire import MSG_DISCLOSE, MSG_PRESENT, WireMessage, decode_message, encode_message

from conftest import make_rng
from oracles import forge_presentation, guess_hidden, ros_forge

LABELS = ("age=30", "role=guest", "country=FR")


def issued(params, key, rng, m0=None):
    """A credential issued on LABELS, master secret m0 or a fresh one."""
    curve = params.curve
    m0 = m0 or curve.random_nonzero(rng)
    attrs = [m0] + [attr_to_scalar(label, curve) for label in LABELS]
    return run_issuance(params, key, attrs, rng, rng)[0]


def wire_round_trip(token, msg_type, cls, params):
    """token as a verifier gets it: framed, encoded and parsed back."""
    data = encode_message(WireMessage(msg_type, token.session_id, token.to_bytes(params)))
    msg = decode_message(data)
    return cls.from_bytes(msg.body, params, msg.session_id)


def test_forgery_1_keyless_presentation_verifies(prod_deploy):
    # flips with ROADMAP item 1: a full show that checks the hash binding
    params, _ = prod_deploy
    token = forge_presentation(params, make_rng("ledger:forgery1"))
    parsed = wire_round_trip(token, MSG_PRESENT, PresentationToken, params)
    assert verify_presentation(parsed, params)


def test_attribute_swap_verifies(prod_deploy):
    # flips with ROADMAP item 9: each attribute bound to its index. h is a
    # product of H(P_i, R), which no order changes
    params, key = prod_deploy
    cred = issued(params, key, make_rng("ledger:swap"))
    a = cred.attrs
    swapped = Credential(attrs=(a[0], a[2], a[1], a[3]), r_point=cred.r_point, s=cred.s, h=cred.h)
    assert swapped != cred and verify_credential(swapped, params)
    token = present(swapped, [1], params, make_rng("ledger:swap:token"))
    parsed = wire_round_trip(token, MSG_DISCLOSE, DisclosureToken, params)
    assert verify_disclosure(parsed, params)
    # index 1 reveals the label issued at index 2
    assert parsed.disclosed[1] == attr_to_scalar(LABELS[1], params.curve)


def test_hidden_attribute_recovered_from_a_guess_list(prod_deploy):
    # flips with ROADMAP item 11: salted attribute scalars. A hidden P_i is
    # m_i*P with m_i a hash of the label, so one multiple tests a guess
    params, key = prod_deploy
    cred = issued(params, key, make_rng("ledger:dictionary"))
    token = present(cred, [1], params, make_rng("ledger:dictionary:token"))
    parsed = wire_round_trip(token, MSG_DISCLOSE, DisclosureToken, params)
    assert verify_disclosure(parsed, params) and 2 in parsed.hidden_points
    guesses = ["role=admin", "role=guest", "role=user"]
    assert guess_hidden(parsed, 2, guesses, params) == "role=guest"


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_ros_only_the_last_session_on_a_key_signs(name):
    # flipped by ROADMAP item 6, one live nonce per issuer key: of bits(q)
    # sessions started on one key (249 on curve1174, 8 on the toy curve)
    # every one but the last is refused at sign, and the credential forged
    # from the open sessions' nonces does not verify
    params, key = setup(name, random.Random(f"ledger:ros:{name}"))
    curve = params.curve
    rng = make_rng(f"ledger:ros:{name}")
    m0 = curve.random_nonzero(rng)
    honest, other, forged = ((m0, attr_to_scalar(label, curve))
                             for label in ("role=guest", "role=user", "role=admin"))
    creds = ros_forge(key, params, honest, other, forged, rng)
    sessions = curve.q.bit_length()
    assert sessions == (8 if name == "toy" else 249)
    *refused, signed, forgery = creds
    assert refused == [None] * (sessions - 1)
    assert signed.attrs in (honest, other) and verify_credential(signed, params)
    assert forgery.attrs == forged
    assert not verify_credential(forgery, params)
    token = present(forgery, [1], params, rng)
    assert not verify_disclosure(wire_round_trip(token, MSG_DISCLOSE, DisclosureToken, params), params)


def shared_fields(a, b) -> list:
    """The names of the fields of two tokens of one class that hold equal
    values, per index for the dict fields."""
    out = []
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, dict):
            out += [f"{f.name}[{i}]" for i in sorted(x) if i in y and x[i] == y[i]]
        elif x == y:
            out.append(f.name)
    return out


def test_fields_two_showings_share(prod_deploy):
    # ROADMAP item 10: the PR that makes showings unlinkable empties these
    # lists. Today two showings of one credential repeat its triple, h
    # and every hidden commitment, and showings of two credentials of one
    # user repeat P_0
    params, key = prod_deploy
    rng = make_rng("ledger:linkable")
    cred = issued(params, key, rng)
    again = issued(params, key, rng, m0=cred.attrs[0])
    one, two = (present(cred, [1], params, rng) for _ in range(2))
    assert verify_disclosure(one, params) and verify_disclosure(two, params)
    assert shared_fields(one, two) == [
        "sig_r", "sig_s", "sig_h", "n_attrs", "disclosed[1]",
        "hidden_points[0]", "hidden_points[2]", "hidden_points[3]"]
    assert shared_fields(one, present(again, [1], params, rng)) == [
        "n_attrs", "disclosed[1]", "hidden_points[0]", "hidden_points[2]", "hidden_points[3]"]
    full = [make_presentation(c, params, rng) for c in (cred, cred, again)]
    assert shared_fields(full[0].sig, full[1].sig) == ["h"]
    assert shared_fields(full[0], full[1]) == ["commitment0"]
    assert shared_fields(full[0], full[2]) == ["commitment0"]
    assert all(verify_presentation(token, params) for token in full)
