"""perfbench/spans.py and perfbench/child.py patch edcred by module
attribute: each name they wrap must still exist and still be called where
it is looked up."""

import argparse
import importlib.util
from pathlib import Path

from edcred import cli, credential, disclosure, issuance, protocol

from conftest import make_rng

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """perfbench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_instrumented_steps_record_their_proofs(toy_deploy):
    """A toy-curve issuance, show and disclosure under instrument(): every
    proof is a schnorr.prove span inside the step that made it, with the
    statements it proves, and uninstall puts every original back."""
    params, key = toy_deploy
    rng = make_rng("trace-targets")
    spans = load("spans")
    originals = (credential.fs_prove, disclosure.fs_prove_batch, issuance.pk_commit, issuance.fs_prove)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        attrs = [params.curve.random_nonzero(rng) for _ in range(4)]
        cred, _ = protocol.run_issuance(params, key, attrs, rng, rng)
        token = credential.make_presentation(cred, params, rng, fresh=True)
        assert credential.verify_presentation(token, params)
        shown = disclosure.present(cred, [2], params, rng)
        assert disclosure.verify_disclosure(shown, params)
    finally:
        tracer.uninstall()
    assert (credential.fs_prove, disclosure.fs_prove_batch, issuance.pk_commit,
            issuance.fs_prove) == originals

    assert len(tracer.threads) == 1
    records = tracer.threads[0]
    proofs = {}
    for name, _, _, parent, _, _, value in records:
        if name == "schnorr.prove":
            outer = records[parent][0] if parent >= 0 else None
            proofs.setdefault(outer, []).append(value)
    # user_blind commits with pk_commit and responds with fs_prove, one
    # statement each
    assert proofs == {
        "issuance.user_blind": [1, 1],
        "credential.make_presentation": [1],
        "disclosure.present": [3],
    }


def test_cli_patch_targets_are_what_the_parser_dispatches(monkeypatch):
    """child.py's traced run patches cli.cmd_<name> for each name in
    CLI_COMMANDS and then calls cli.main: each function must exist, and
    build_parser() must dispatch its subcommand to the module attribute as
    it stands when the parser is built."""
    commands = load("child").CLI_COMMANDS
    stand_ins = {}
    for name in commands:
        assert callable(getattr(cli, f"cmd_{name}"))
        stand_ins[name] = lambda args: 0
        monkeypatch.setattr(cli, f"cmd_{name}", stand_ins[name])
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {name: sub.choices[name].get_default("func") for name in commands} == stand_ins
