"""The command line surface: files in, files out, exit codes honest."""

import os
import subprocess
import sys
import threading
import time

import pytest

from edcred.cli import main
from edcred.credential import check_equation, signature_of
from edcred.issuance import Credential
from edcred.params import SystemParams
from edcred.wire import Transcript


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


def test_verify_malformed_is_exit_2(deploy, tmp_path):
    out, _ = deploy
    junk = tmp_path / "junk.bin"
    junk.write_bytes(b"this is not a token")
    assert main(["verify", "--params", str(out), "--token", str(junk)]) == 2
    assert main(["verify", "--params", str(out), "--token", str(tmp_path / "absent")]) == 2


def test_usage_errors_are_exit_2(tmp_path):
    assert main(["frobnicate"]) == 2
    assert main(["setup", "--curve", "p256", "--out", str(tmp_path / "x")]) == 2
    assert main([]) == 2


def test_socket_issuance_roundtrip(deploy, tmp_path):
    out, attrs = deploy
    sock = str(tmp_path / "iss.sock")
    cred_file = tmp_path / "sc.bin"
    server_rc = {}

    def serve():
        server_rc["rc"] = main(["serve", "--params", str(out), "--listen", sock, "--seed", "51"])

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


def test_bench_prints_count_table(capsys):
    assert main(["bench", "--attrs", "1,2", "--curve", "toy", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0].split()[:4] == ["protocol", "n", "measured_Ms", "paper_Ms"]
    assert "issuance" in text and "verification" in text


def test_console_entry_point(tmp_path):
    # one real process run, everything else drives main() in process
    result = subprocess.run(
        [sys.executable, "-m", "edcred.cli", "setup", "--curve", "toy",
         "--out", str(tmp_path / "d"), "--seed", "9"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert "toy1009" in result.stdout
