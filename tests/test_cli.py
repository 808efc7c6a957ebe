"""The command line surface: files in, files out, exit codes honest."""

import hashlib
import os
import random
import socket
import stat
import subprocess
import sys
import threading
import time

from pathlib import Path

import pytest

import edcred
from edcred import cli
from edcred.cli import main
from edcred.credential import check_equation, signature_of, verify_credential
from edcred.curve import Point
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.hashing import hash_block
from edcred.issuance import Credential
from edcred.params import IssuerKey, SystemParams
from edcred.protocol import IssuerEngine, UserEngine
from edcred.wire import (
    MSG_DISCLOSE,
    MSG_ISS1,
    Transcript,
    WireMessage,
    decode_message,
    encode_message,
    read_message,
    write_message,
)

from oracles import disclosure_bytes, simulate_issue


@pytest.fixture
def deploy(tmp_path):
    out = tmp_path / "deploy"
    assert main(["setup", "--curve", "toy", "--out", str(out), "--seed", "11"]) == 0
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("master\nage:30\ncountry:FR\nrole:admin\n")
    return out, attrs


def issue(deploy, dest, seed="21", extra=()):
    out, attrs = deploy
    rc = main(["issue", "--params", str(out), "--attrs", str(attrs),
               "--out", str(dest), "--seed", seed, *extra])
    return rc


def test_setup_writes_loadable_deployment(deploy):
    out, _ = deploy
    assert (out / "params.txt").exists() and (out / "issuer.key").exists()
    params = SystemParams.load(out / "params.txt")
    assert params.curve.name == "toy1009"


def test_setup_same_seed_same_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["setup", "--curve", "toy", "--out", str(a), "--seed", "3"])
    main(["setup", "--curve", "toy", "--out", str(b), "--seed", "3"])
    assert (a / "params.txt").read_bytes() == (b / "params.txt").read_bytes()
    assert (a / "issuer.key").read_bytes() == (b / "issuer.key").read_bytes()


def test_issue_and_verify(deploy, tmp_path):
    out, _ = deploy
    cred_file = tmp_path / "cred.bin"
    assert issue(deploy, cred_file) == 0
    params = SystemParams.load(out / "params.txt")
    cred = Credential.from_bytes(cred_file.read_bytes(), params)
    assert check_equation(signature_of(cred), params)
    assert len(cred.attrs) == 4
    assert main(["verify", "--params", str(out), "--token", str(cred_file)]) == 0


def test_issue_reruns_byte_identical(deploy, tmp_path):
    c1, c2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
    assert issue(deploy, c1) == 0  # this run creates user.key
    assert issue(deploy, c2) == 0  # this one reuses it
    assert c1.read_bytes() == c2.read_bytes()
    assert (deploy[0] / "user.key").exists()


def test_secret_key_files_are_owner_only(tmp_path):
    out = tmp_path / "deploy"
    out.mkdir()
    # a key file already there with a wide mode is narrowed, not kept
    (out / "issuer.key").write_text("x=1\n")
    os.chmod(out / "issuer.key", 0o644)
    assert main(["setup", "--curve", "toy", "--out", str(out), "--seed", "11"]) == 0
    attrs = tmp_path / "attrs.txt"
    attrs.write_text("master\nage:30\n")
    issue_cmd = ["issue", "--params", str(out), "--attrs", str(attrs),
                 "--out", str(tmp_path / "c.bin"), "--seed", "21"]
    assert main(issue_cmd) == 0
    for name in ("issuer.key", "user.key"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o600, name
    # key files that are already there, read and not written, are narrowed
    # too
    for name in ("issuer.key", "user.key"):
        os.chmod(out / name, 0o644)
    assert main(issue_cmd) == 0
    for name in ("issuer.key", "user.key"):
        assert stat.S_IMODE(os.stat(out / name).st_mode) == 0o600, name


def test_issue_refuses_params_of_another_deployment(deploy, tmp_path, capsys):
    # params.txt and issuer.key must describe the same deployment
    out, _ = deploy
    other = tmp_path / "other"
    assert main(["setup", "--curve", "toy", "--out", str(other), "--seed", "12"]) == 0
    (out / "params.txt").write_bytes((other / "params.txt").read_bytes())
    cred_file = tmp_path / "c.bin"
    assert issue(deploy, cred_file) == 2
    assert "params differ" in capsys.readouterr().err
    assert not cred_file.exists()


def test_issue_refuses_an_out_of_range_issuer_secret(deploy, tmp_path, capsys):
    # x + q is the same secret mod q, but not the value setup wrote
    out, _ = deploy
    path = out / "issuer.key"
    text = path.read_text()
    x = int(text.rsplit("x=", 1)[1])
    path.write_text(text.replace(f"x={x}", f"x={x + edcred.toy_curve().q}"))
    cred_file = tmp_path / "c.bin"
    assert issue(deploy, cred_file) == 2
    assert "out of range" in capsys.readouterr().err
    assert not cred_file.exists()


def test_issue_records_transcript(deploy, tmp_path):
    t_file = tmp_path / "t.bin"
    assert issue(deploy, tmp_path / "c.bin", extra=["--transcript", str(t_file)]) == 0
    transcript = Transcript.from_bytes(t_file.read_bytes())
    assert len(transcript) == 3


def test_interactive_issue(deploy, tmp_path):
    out, _ = deploy
    cred_file = tmp_path / "ic.bin"
    assert issue(deploy, cred_file, extra=["--interactive"]) == 0
    assert main(["verify", "--params", str(out), "--token", str(cred_file)]) == 0


def test_randomize_and_verify(deploy, tmp_path):
    out, _ = deploy
    cred_file, token = tmp_path / "c.bin", tmp_path / "p.tok"
    issue(deploy, cred_file)
    assert main(["randomize", "--params", str(out), "--cred", str(cred_file),
                 "--out", str(token), "--seed", "31"]) == 0
    assert main(["verify", "--params", str(out), "--token", str(token)]) == 0


def test_present_and_verify(deploy, tmp_path):
    out, _ = deploy
    cred_file, token = tmp_path / "c.bin", tmp_path / "d.tok"
    issue(deploy, cred_file)
    assert main(["present", "--params", str(out), "--cred", str(cred_file),
                 "--disclose", "1,3", "--out", str(token), "--seed", "41"]) == 0
    assert main(["verify", "--params", str(out), "--token", str(token)]) == 0


def test_present_rejects_master_index(deploy, tmp_path):
    out, _ = deploy
    cred_file = tmp_path / "c.bin"
    issue(deploy, cred_file)
    rc = main(["present", "--params", str(out), "--cred", str(cred_file),
               "--disclose", "0", "--out", str(tmp_path / "x.tok"), "--seed", "1"])
    assert rc == 2


def test_verify_semantic_reject_is_exit_1(deploy, tmp_path, capsys):
    out, _ = deploy
    cred_file = tmp_path / "c.bin"
    issue(deploy, cred_file)
    params = SystemParams.load(out / "params.txt")
    cred = Credential.from_bytes(cred_file.read_bytes(), params)
    forged = Credential(attrs=cred.attrs, r_point=cred.r_point, s=cred.s + 1, h=cred.h)
    bad_file = tmp_path / "bad.bin"
    bad_file.write_bytes(forged.to_bytes(params))
    assert main(["verify", "--params", str(out), "--token", str(bad_file)]) == 1
    assert "reject" in capsys.readouterr().out


def test_verify_refuses_forged_raw_credential(tmp_path, capsys):
    # a triple made without the issuer key satisfies the curve equation,
    # and so does an issued triple filed with other attributes; as
    # credential files both must be refused, because h is not the hash of
    # their attributes under R
    out, attrs = tmp_path / "deploy", tmp_path / "attrs.txt"
    attrs.write_text("master\nage:30\n")
    assert main(["setup", "--curve", "prod", "--out", str(out), "--seed", "61"]) == 0
    cred_file = tmp_path / "c.bin"
    assert main(["issue", "--params", str(out), "--attrs", str(attrs),
                 "--out", str(cred_file), "--seed", "62"]) == 0
    assert main(["verify", "--params", str(out), "--token", str(cred_file)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "accept"

    params = SystemParams.load(out / "params.txt")
    cred = Credential.from_bytes(cred_file.read_bytes(), params)
    rng = random.Random("keyless")
    h = params.curve.random_nonzero(rng)
    r_point, s = simulate_issue(h, params, rng)
    keyless = Credential(attrs=cred.attrs, r_point=r_point, s=s, h=h)
    # the issued triple with an attribute it was not issued for
    relabelled = Credential(attrs=(cred.attrs[0], cred.attrs[1] + 1), r_point=cred.r_point,
                            s=cred.s, h=cred.h)
    for forged in (keyless, relabelled):
        assert check_equation(signature_of(forged), params)
        forged_file = tmp_path / "forged.bin"
        forged_file.write_bytes(forged.to_bytes(params))
        assert main(["verify", "--params", str(out), "--token", str(forged_file)]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "reject"


def test_verify_refuses_a_neutral_public_key(deploy, tmp_path, capsys):
    # with Ppub = (0, 1) the equation s*P == h*Ppub + R is s*P == R, so a
    # credential made with no issuer key, R = s*P and h its true binding,
    # would pass; the params file is malformed input, refused at load
    out, _ = deploy
    params = SystemParams.load(out / "params.txt")
    c = params.curve
    neutral = SystemParams.__new__(SystemParams)
    neutral.curve, neutral.p_pub, neutral.k = c, c.neutral(), params.k
    (out / "params.txt").write_text(neutral.format_file())
    rng = random.Random("neutral-ppub")
    attrs = (c.random_nonzero(rng), c.random_nonzero(rng))
    s = c.random_nonzero(rng)
    r_point = s * c.base
    h = hash_block(c.base.multiples(attrs), r_point)
    assert h.v != 0
    cred_file = tmp_path / "keyless.bin"
    cred_file.write_bytes(Credential(attrs=attrs, r_point=r_point, s=s, h=h).to_bytes(neutral))
    assert main(["verify", "--params", str(out), "--token", str(cred_file)]) == 2
    captured = capsys.readouterr()
    assert "accept" not in captured.out and "public key is neutral" in captured.err


@pytest.mark.parametrize("order", [2, 4])
def test_verify_refuses_a_public_key_of_small_order(prod_deploy, tmp_path, capsys, order):
    # on curve1174, with Ppub = (0, p-1) of order 2 the exact check drops
    # h*Ppub for every even h, so a credential made with no issuer key,
    # R = s*P and h its true binding, passes; with (1, 0) of order 4 as
    # well, the cofactored check of its disclosure token drops h*Ppub for
    # any h. The params file is malformed input, refused at load
    params, _ = prod_deploy
    c = params.curve
    small = SystemParams.__new__(SystemParams)
    small.curve, small.k, small._checks = c, params.k, 0
    small.p_pub = Point(0, c.p - 1, c) if order == 2 else Point(1, 0, c)
    out = tmp_path / "deploy"
    out.mkdir()
    (out / "params.txt").write_text(small.format_file())
    rng = random.Random(f"small-order-ppub:{order}")
    while True:
        attrs = (c.random_nonzero(rng), c.random_nonzero(rng))
        s = c.random_nonzero(rng)
        r_point = s * c.base
        h = hash_block(c.base.multiples(attrs), r_point)
        if h.v % 2 == 0:
            break
    cred = Credential(attrs=attrs, r_point=r_point, s=s, h=h)
    token = present(cred, [1], small, rng)
    assert verify_disclosure(token, small)
    files = {"disclosure.tok": encode_message(
        WireMessage(MSG_DISCLOSE, token.session_id, token.to_bytes(small)))}
    if order == 2:
        assert verify_credential(cred, small)
        files["keyless.bin"] = cred.to_bytes(small)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
        assert main(["verify", "--params", str(out), "--token", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert "accept" not in captured.out
        assert "public key is neutral or of small order" in captured.err


def test_verify_zero_token_field_is_exit_2(deploy, tmp_path, capsys):
    # a disclosure token with h = 0 is malformed input, as a credential
    # with h = 0 is: exit 2, not the reject code
    out, _ = deploy
    cred_file, token_file = tmp_path / "c.bin", tmp_path / "d.tok"
    issue(deploy, cred_file)
    assert main(["present", "--params", str(out), "--cred", str(cred_file),
                 "--disclose", "1", "--out", str(token_file), "--seed", "41"]) == 0
    params = SystemParams.load(out / "params.txt")
    msg = decode_message(token_file.read_bytes())
    token = DisclosureToken.from_bytes(msg.body, params, msg.session_id)
    bad = disclosure_bytes(token, params, sig_h=params.curve.scalar(0))
    token_file.write_bytes(encode_message(WireMessage(msg.msg_type, msg.session_id, bad)))
    capsys.readouterr()
    assert main(["verify", "--params", str(out), "--token", str(token_file)]) == 2
    assert "reject" not in capsys.readouterr().out


def test_verify_malformed_is_exit_2(deploy, tmp_path):
    out, _ = deploy
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is not a token")
    assert main(["verify", "--params", str(out), "--token", str(junk)]) == 2
    assert main(["verify", "--params", str(out), "--token", str(tmp_path / "absent")]) == 2


def test_verify_refuses_a_message_that_is_no_token(deploy, tmp_path, capsys):
    out, _ = deploy
    offer = tmp_path / "offer.bin"
    offer.write_bytes(encode_message(WireMessage(MSG_ISS1, b"S" * 16, b"nonce")))
    assert main(["verify", "--params", str(out), "--token", str(offer)]) == 2
    assert "not a token" in capsys.readouterr().err


def test_issue_refuses_an_empty_label_file(deploy, tmp_path, capsys):
    out, _ = deploy
    labels = tmp_path / "empty.txt"
    labels.write_text("# no labels\n\n")
    cred_file = tmp_path / "c.bin"
    assert main(["issue", "--params", str(out), "--attrs", str(labels),
                 "--out", str(cred_file), "--seed", "3"]) == 2
    assert "no labels" in capsys.readouterr().err
    assert not cred_file.exists()


def test_issue_from_a_misbehaving_issuer_is_exit_1(deploy, tmp_path, capsys):
    # an issuer that answers with s' + 1: the user's check refuses it, and
    # a refusal of the peer's protocol data exits 1, not 2
    out, attrs = deploy
    params = SystemParams.load(out / cli.PARAMS_FILE)
    key = IssuerKey.load(out / cli.ISSUER_KEY_FILE, params)
    sock = str(tmp_path / "iss.sock")
    cred_file = tmp_path / "c.bin"

    def bad_issuer(server):
        conn, _ = server.accept()
        with conn, conn.makefile("rwb") as stream:
            engine = IssuerEngine(params, key, random.Random(7))
            write_message(stream, engine.open())
            reply = engine.handle(read_message(stream))
            s_bar = params.curve.scalar(int.from_bytes(reply.body, "big")) + 1
            body = s_bar.to_bytes(len(reply.body))
            write_message(stream, WireMessage(reply.msg_type, reply.session_id, body))

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
        server.bind(sock)
        server.listen(1)
        thread = threading.Thread(target=bad_issuer, args=(server,), daemon=True)
        thread.start()
        rc = main(["issue", "--params", str(out), "--attrs", str(attrs),
                   "--connect", sock, "--out", str(cred_file), "--seed", "7"])
        thread.join(timeout=10)
    assert not thread.is_alive() and rc == 1
    assert "rejected" in capsys.readouterr().err
    assert not cred_file.exists()


@pytest.mark.parametrize("key, value", [
    ("p", 0), ("q", 1), ("cofactor", 0),
    ("k", 0), ("k", -1),
    ("cofactor", 1), ("cofactor", 2), ("cofactor", 3), ("cofactor", 1000),
    ("q", 1009), ("q", 2**70),
    ("Px", 2), ("Ppubx", 2),
])
def test_degenerate_params_file_is_exit_2(deploy, tmp_path, key, value):
    # a size that breaks the arithmetic, a k below 1, a cofactor and q
    # whose product is no group order for p (the toy curve's is 8 * 131), or
    # a base point or public key off the curve is malformed input: exit 2
    # and a message, not exit 0 or a traceback with exit 1, which means
    # reject. Real processes, so that a crash shows as the interpreter
    # reports it.
    out, attrs = deploy
    cred_file = tmp_path / "c.bin"
    assert issue(deploy, cred_file) == 0
    for name in ("params.txt", "issuer.key"):  # the key file repeats the params
        path = out / name
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line
                                for line in lines))
    commands = (
        ["issue", "--params", str(out), "--attrs", str(attrs), "--out", str(tmp_path / "c2.bin")],
        ["verify", "--params", str(out), "--token", str(cred_file)],
        ["present", "--params", str(out), "--cred", str(cred_file), "--disclose", "1",
         "--out", str(tmp_path / "d.tok")],
    )
    src = os.path.dirname(os.path.dirname(edcred.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in commands:
        result = subprocess.run([sys.executable, "-m", "edcred.cli", *argv, "--seed", "1"],
                                capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 2, (argv[0], result.stderr)
        assert "Traceback" not in result.stderr and "error:" in result.stderr
    assert not (tmp_path / "c2.bin").exists() and not (tmp_path / "d.tok").exists()


def test_usage_errors_are_exit_2(tmp_path, capsys):
    assert main(["frobnicate"]) == 2
    assert main(["setup", "--curve", "p256", "--out", str(tmp_path / "x")]) == 2
    assert main([]) == 2
    capsys.readouterr()
    for repeat in ("0", "-3"):
        assert main(["bench", "--attrs", "1", "--curve", "toy", "--repeat", repeat]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "repeat" in err


def test_socket_issuance_roundtrip(deploy, tmp_path):
    out, attrs = deploy
    sock = str(tmp_path / "iss.sock")
    cred_file = tmp_path / "sc.bin"
    server_rc = {}

    def serve():
        server_rc["rc"] = main(["serve", "--params", str(out), "--listen", sock])

    thread = threading.Thread(target=serve)
    thread.start()
    for _ in range(100):
        if os.path.exists(sock):
            break
        time.sleep(0.05)
    rc = main(["issue", "--params", str(out), "--attrs", str(attrs),
               "--connect", sock, "--out", str(cred_file), "--seed", "51"])
    thread.join(timeout=10)
    assert rc == 0 and server_rc["rc"] == 0
    assert main(["verify", "--params", str(out), "--token", str(cred_file)]) == 0


def test_serve_refuses_to_replace_a_file_that_is_no_socket(deploy, tmp_path, capsys):
    out, _ = deploy
    path = tmp_path / "notes.txt"
    path.write_text("keep me\n")
    result = {}

    def serve():
        result["rc"] = main(["serve", "--params", str(out), "--listen", str(path)])

    # a serve that took the path would wait for a client: the join times out
    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    thread.join(timeout=10)
    assert result.get("rc") == 2
    assert "not a socket" in capsys.readouterr().err
    assert path.read_text() == "keep me\n"


def test_serve_removes_its_socket_when_the_session_fails(deploy, tmp_path):
    out, _ = deploy
    sock = str(tmp_path / "iss.sock")
    # a socket left behind by an earlier run is replaced
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as stale:
        stale.bind(sock)
    assert stat.S_ISSOCK(os.lstat(sock).st_mode)
    result = {}

    def serve():
        result["rc"] = main(["serve", "--params", str(out), "--listen", sock])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    for _ in range(200):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            try:
                conn.connect(sock)
            except OSError:
                time.sleep(0.05)
                continue
            conn.sendall(b"\x00" * 16)  # no valid frame
            break
    thread.join(timeout=10)
    assert result.get("rc") == 2
    assert not os.path.lexists(sock)


def test_serve_exits_2_on_a_malformed_request(deploy, tmp_path, capsys):
    # an ISS2 whose h' is zero holds no request: a WireError as it is
    # read, so serve exits 2 (malformed input), not 1 (rejected)
    out, _ = deploy
    params = SystemParams.load(out / "params.txt")
    sock = str(tmp_path / "iss.sock")
    result = {}

    def serve():
        result["rc"] = main(["serve", "--params", str(out), "--listen", sock])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        for _ in range(200):
            try:
                conn.connect(sock)
                break
            except OSError:
                time.sleep(0.05)
        rng = random.Random("zero-h-request")
        user = UserEngine(params, [params.curve.random_nonzero(rng)], rng)
        w = params.curve.coord_bytes
        with conn.makefile("rwb") as stream:
            request = user.handle(read_message(stream))
            body = request.body[:1] + bytes(w) + request.body[1 + w:]
            write_message(stream, WireMessage(request.msg_type, request.session_id, body))
            thread.join(timeout=10)
    assert not thread.is_alive() and result.get("rc") == 2
    assert "blinded hash is zero" in capsys.readouterr().err


def test_serve_times_out_on_a_silent_peer(deploy, tmp_path, monkeypatch, capsys):
    # a peer that connects and sends nothing ends the session with exit 2
    out, _ = deploy
    monkeypatch.setattr(cli, "SESSION_TIMEOUT", 0.2)
    sock = str(tmp_path / "iss.sock")
    result = {}

    def serve():
        result["rc"] = main(["serve", "--params", str(out), "--listen", sock])

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
        for _ in range(200):
            try:
                conn.connect(sock)
                break
            except OSError:
                time.sleep(0.05)
        thread.join(timeout=10)
    assert not thread.is_alive() and result.get("rc") == 2
    assert "timed out" in capsys.readouterr().err
    assert not os.path.lexists(sock)


def test_issue_times_out_on_a_silent_issuer(deploy, tmp_path, monkeypatch, capsys):
    # an issuer that takes the connection and never sends its nonce
    out, attrs = deploy
    monkeypatch.setattr(cli, "SESSION_TIMEOUT", 0.2)
    sock = str(tmp_path / "iss.sock")
    cred_file = tmp_path / "c.bin"
    result = {}

    def issue():
        result["rc"] = main(["issue", "--params", str(out), "--attrs", str(attrs),
                             "--connect", sock, "--out", str(cred_file), "--seed", "1"])

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as server:
        server.bind(sock)
        server.listen(1)
        thread = threading.Thread(target=issue, daemon=True)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive() and result.get("rc") == 2
    assert "timed out" in capsys.readouterr().err
    assert not cred_file.exists()


def test_bench_prints_count_table(capsys):
    assert main(["bench", "--attrs", "1,2", "--curve", "toy", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].split()[:4] == ["protocol", "n", "measured_Ms", "paper_Ms"]
    assert "issuance" in text and "verification" in text


def test_readme_bench_blocks_are_the_command_output(capsys):
    # README's "Operation counts" prints the table and the step breakdown
    # of `edcred bench --attrs 1 --seed 1`; both must be what it prints
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Operation counts\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```\n")[1::2]
    assert len(blocks) == 2
    assert main(["bench", "--attrs", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for block in blocks:
        assert block in out


def test_console_entry_point(tmp_path):
    # one real process run, everything else drives main() in process
    result = subprocess.run(
        [sys.executable, "-m", "edcred.cli", "setup", "--curve", "toy",
         "--out", str(tmp_path / "d"), "--seed", "9"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "toy1009" in result.stdout


# SHA-256 of every artifact of a seeded run (setup 77, issue 78 plain and
# interactive, randomize 79, present 80 revealing index 2): the wire and
# file formats and the order of every random draw, pinned against fixed
# values rather than against a second run of the same code
GOLDEN = {
    "toy": {
        "deploy/params.txt": "f13a82733d32790069ae7c60dbbc032601551f30dc3715f1bf77eb078e4d2a92",
        "deploy/issuer.key": "1e752187dbda720db0a95fbf483f8d6674f431cb865eb8ba8380a0afad23be35",
        "deploy/user.key": "a1a63169b0de8bbdad77ada9906ff47b16b02afed28079cf7eaed9cd6d9beef7",
        "cred.bin": "334d660afac95b6de8a7722e7590d324e7d9277927187be0fa508ffc498fd55a",
        "t.bin": "b86da9e3391ab2584eb4d0c31cb1be4142336f027bef6b09b1ad9cd2c77f59b3",
        "ti.bin": "ffacdfe4e96cd9d8345b21e3a8e2f29cc0192277e2ea6c1d7143f44b287281f1",
        "p.tok": "4a9e758c3ef8248a038dd4ab18f6bfb25c4027b06fffdf9aa8728a64c5e015a4",
        "d.tok": "4a9cee204afd3e1ac141a325f1d64f5c8edc7cfbde5876271d82d525521f9c14",
    },
    "prod": {
        "deploy/params.txt": "cef1fbe984db823c483c14d512e28c506728ac6d47bbdfc32412e3809bb09e82",
        "deploy/issuer.key": "4f350aa4427b89e518ee5f787a363caff48fdb379c53b69576b1a7edaeaf6105",
        "deploy/user.key": "261b5e1ea3a9cf2bfd31f73dbd9f0d9310ce279d6d6dd08025c9c3ec877e2d4c",
        "cred.bin": "ad961d4dbaebad2e1d471ad7c92ca069cf9fb0d62d4382fb7340e58a8def306b",
        "t.bin": "359813aa501acef72d73c43145dc04b79f5ca9b16be8a7a8ab8f89924ba0bc14",
        "ti.bin": "b32b77b0cb1aeab962dc6b393105b745fced06f86dd653ba176609d5e55734bf",
        "p.tok": "5018f00f9d955e05e2e33656550a9e4919690a10016780826e373bdf580f11ab",
        "d.tok": "abcf4931fab1e2adbad7a599ea61bd1d31c47ecab8da944a9d649c8d3e37eaab",
    },
}


@pytest.mark.parametrize("curve", sorted(GOLDEN))
def test_seeded_artifacts_match_golden_digests(curve, tmp_path):
    deploy, attrs = tmp_path / "deploy", tmp_path / "attrs.txt"
    attrs.write_text("master\nage:30\ncountry:FR\n")
    issue_cmd = ["issue", "--params", str(deploy), "--attrs", str(attrs), "--seed", "78"]
    assert main(["setup", "--curve", curve, "--out", str(deploy), "--seed", "77"]) == 0
    assert main(issue_cmd + ["--out", str(tmp_path / "cred.bin"),
                             "--transcript", str(tmp_path / "t.bin")]) == 0
    assert main(issue_cmd + ["--interactive", "--out", str(tmp_path / "ci.bin"),
                             "--transcript", str(tmp_path / "ti.bin")]) == 0
    assert main(["randomize", "--params", str(deploy), "--cred", str(tmp_path / "cred.bin"),
                 "--out", str(tmp_path / "p.tok"), "--seed", "79"]) == 0
    assert main(["present", "--params", str(deploy), "--cred", str(tmp_path / "cred.bin"),
                 "--disclose", "2", "--out", str(tmp_path / "d.tok"), "--seed", "80"]) == 0
    # the interactive proof changes the transcript, not the credential
    assert (tmp_path / "ci.bin").read_bytes() == (tmp_path / "cred.bin").read_bytes()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN[curve]}
    assert digests == GOLDEN[curve]
