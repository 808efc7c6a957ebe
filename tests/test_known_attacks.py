"""A ledger of the known attacks: each test reproduces one on curve1174
and asserts today's outcome.

Each names the ROADMAP item whose fix flips it. The change that lands a
fix inverts its test's assertion and says so in CHANGES.md, so that the
attacks that still work only get fewer. The attack constructions live in
tests/oracles.py.
"""

import os
import random
import threading
import time
from dataclasses import fields

import pytest

from edcred import setup
from edcred.cli import _rng, main
from edcred.credential import PresentationToken, make_presentation, verify_credential, verify_presentation
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.hashing import attr_to_scalar
from edcred.issuance import Credential, issuer_start, user_blind, user_unblind
from edcred.params import IssuerKey, SystemParams
from edcred.protocol import run_issuance
from edcred.wire import MSG_DISCLOSE, MSG_PRESENT, Transcript, WireMessage, decode_message, encode_message

from conftest import make_rng
from oracles import (
    forge_presentation,
    guess_hidden,
    issuer_view_from_transcript,
    key_from_a_guessed_seed,
    key_from_two_views,
    ros_forge,
    secrets_from_a_guessed_seed,
)

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


def served(deploy, attrs, dest):
    """One `edcred serve` session with `edcred issue --connect` as its
    peer; the transcript serve recorded."""
    dest.mkdir()
    sock, record = str(dest / "iss.sock"), dest / "serve.transcript"
    rc = {}

    def serve():
        rc["serve"] = main(["serve", "--params", str(deploy), "--listen", sock,
                            "--transcript", str(record)])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(200):
        if os.path.exists(sock):
            break
        time.sleep(0.05)
    rc["issue"] = main(["issue", "--params", str(deploy), "--attrs", str(attrs),
                        "--connect", sock, "--out", str(dest / "cred.bin")])
    thread.join(timeout=30)
    assert not thread.is_alive() and rc == {"serve": 0, "issue": 0}
    return Transcript.from_bytes(record.read_bytes())


def test_two_serve_sessions_on_one_key_give_no_key(prod_deploy, tmp_path):
    # flipped by ROADMAP item 17's serve step: two `serve --seed 7`
    # sessions on one key sent one R', and their transcripts gave
    # x = (s'_1 - s'_2) / (h'_1 - h'_2). serve now refuses a seed, before
    # it binds a socket, and draws each nonce from the system rng
    params, key = prod_deploy
    deploy = tmp_path / "deploy"
    deploy.mkdir()
    params.save(deploy / "params.txt")
    key.save(deploy / "issuer.key", params)
    sock, seeded = tmp_path / "seeded.sock", {}

    def serve_seeded():
        seeded["rc"] = main(["serve", "--params", str(deploy), "--listen", str(sock), "--seed", "7"])

    # a serve that took the seed would wait for a client: the join times out
    thread = threading.Thread(target=serve_seeded, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert seeded.get("rc") == 2 and not os.path.lexists(sock)
    views = []
    for i, labels in enumerate((LABELS, LABELS[:2])):
        attrs = tmp_path / f"attrs{i}.txt"
        attrs.write_text("master\n" + "\n".join(labels) + "\n")
        views.append(issuer_view_from_transcript(served(deploy, attrs, tmp_path / f"s{i}"), params))
    assert views[0].h_bar != views[1].h_bar and views[0].r_bar != views[1].r_bar
    assert key_from_two_views(*views) * params.curve.base != params.p_pub


def test_a_seeded_holder_token_gives_no_secret(prod_deploy):
    # flipped by ROADMAP item 17's source steps: a token made as
    # `present --disclose '' --seed 80` gave up m_0 and every hidden
    # attribute, and one made as `randomize --seed 79` gave up m_0, as
    # (r_i - w_i) / c from the nonces a guess over seeds 0..99 redrew. A
    # guess still finds the seed by the session id, but each nonce now
    # hashes the attribute it proves with its draw
    params, key = prod_deploy
    cred = issued(params, key, make_rng("ledger:seeded-holder"))
    base = params.curve.base
    shown = present(cred, [], params, _rng(80, "present"))
    full = make_presentation(cred, params, _rng(79, "present"), fresh=True)
    for token, points in ((shown, shown.hidden_points), (full, {0: full.commitment0})):
        found = secrets_from_a_guessed_seed(token, params, range(100))
        assert sorted(found) == sorted(points)
        assert not any(m * base == points[i] for i, m in found.items())
        assert found[0] != cred.attrs[0]


def test_one_seeded_issuance_gives_no_key(prod_deploy):
    # flipped by ROADMAP item 17's source steps: the issuer of
    # `issue --seed 78` gave up x as (s' - k) / h' from the nonce k that a
    # guess over seeds 0..99 redrew. k now hashes x with its draw
    params, key = prod_deploy
    attrs = [params.curve.random_nonzero(make_rng("ledger:seeded-issuer"))]
    _, transcript = run_issuance(params, key, attrs, _rng(78, "issuer"), _rng(78, "user"))
    x = key_from_a_guessed_seed(transcript, params, range(100))
    assert x * params.curve.base != params.p_pub


def deployed(prod_deploy, dest):
    """prod_deploy written as a deployment directory, as `edcred setup`
    writes one."""
    params, key = prod_deploy
    dest.mkdir()
    params.save(dest / "params.txt")
    key.save(dest / "issuer.key", params)
    return dest


def test_a_token_is_a_bearer_token(prod_deploy, tmp_path, capsys):
    # flips with ROADMAP item 20: a verifier that chooses the session id
    # as its challenge. Today the holder draws it, so one token file is
    # accepted by every `edcred verify` run, and by every verifier that
    # loads the deployment's params.txt
    deploy = deployed(prod_deploy, tmp_path / "deploy")
    attrs, cred, token = (tmp_path / name for name in ("attrs.txt", "cred.bin", "disc.tok"))
    attrs.write_text("master\n" + "\n".join(LABELS) + "\n")
    assert main(["issue", "--params", str(deploy), "--attrs", str(attrs), "--out", str(cred)]) == 0
    assert main(["present", "--params", str(deploy), "--cred", str(cred), "--disclose", "1",
                 "--out", str(token)]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(["verify", "--params", str(deploy), "--token", str(token)]) == 0
        assert capsys.readouterr().out == "accept\n"
    msg = decode_message(token.read_bytes())
    for _ in range(2):
        verifier = SystemParams.load(deploy / "params.txt")
        parsed = DisclosureToken.from_bytes(msg.body, verifier, msg.session_id)
        assert verify_disclosure(parsed, verifier)


def test_two_key_objects_on_one_key_file_both_sign(prod_deploy, tmp_path):
    # flips with ROADMAP item 21: one live nonce per key file. Today the
    # live nonce is per IssuerKey object, so two loads of one issuer.key
    # each hold a session open at once, and both sessions sign: the
    # concurrent setting in which ROS needs bits(q) + 1 of them
    params = prod_deploy[0]
    deploy = deployed(prod_deploy, tmp_path / "deploy")
    keys = [IssuerKey.load(deploy / "issuer.key", params) for _ in range(2)]
    rng = make_rng("ledger:key-file")
    opened = [issuer_start(key, params, rng) for key in keys]
    for session, r_bar in opened:
        attrs = [params.curve.random_nonzero(rng), attr_to_scalar(LABELS[0], params.curve)]
        state, request = user_blind(r_bar, attrs, params, rng)
        assert verify_credential(user_unblind(state, session.sign(request), params), params)
