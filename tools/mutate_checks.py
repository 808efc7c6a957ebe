#!/usr/bin/env python3
"""Disable each accept-path guard in turn and report whether Tier-1 notices.

    python tools/mutate_checks.py            # every mutation below
    python tools/mutate_checks.py NAME ...   # the named ones

MUTATIONS lists one-line mutations (file, text, replacement): each turns
one guard of a verifier, the issuer, a record's constructor or a
deployment's load off, or makes a comb term count its scalar mod q, which
flips verdicts under a public key with a torsion part once its table is
built. For each, the tool copies this checkout's working tree (without .git) into a
temporary directory, replaces the text, which must occur exactly once in
its file, and runs Tier-1 there with -x, all but the test that pins
this list (below). A run that fails kills the mutation; one that passes
lets it survive, which means no test pins that guard. Exit status 0
when every mutation is killed, 1 otherwise.

A killed mutation stops at its first failing test; a survivor costs a
whole Tier-1 run, so a full pass takes minutes. Run it when a change
touches an accept path (CI's mutations job runs it on every pull
request), and move a guard's entry with the guard: Tier-1 pins that
each listed text occurs exactly once (tests/test_mutate_checks.py).
Uses only the stdlib and pytest.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 900  # a hang is a failure too: CI stops a hung job


class Mutation(NamedTuple):
    name: str
    file: str
    text: str
    replacement: str


MUTATIONS = [
    Mutation("schnorr: stored challenge", "src/edcred/schnorr.py",
             "if any(t.challenge != c for t in transcripts):", "if False:"),
    Mutation("schnorr: empty batch", "src/edcred/schnorr.py",
             "if not transcripts:", "if False:"),
    Mutation("schnorr: cofactored proof check", "src/edcred/schnorr.py",
             "cofactored=True)", "cofactored=False)"),
    Mutation("credential: exact signature check", "src/edcred/credential.py",
             "cofactored=False)", "cofactored=True)"),
    Mutation("issuer: h' = 0", "src/edcred/issuance.py",
             "if h_bar.v == 0:", "if False:"),
    Mutation("issuer: proof about P_0", "src/edcred/issuance.py",
             "if proof is not None and proof.statement != commitment0:", "if False:"),
    Mutation("issuer: live nonce", "src/edcred/issuance.py",
             "if self._key._nonce[0] is not self:", "if False:"),
    Mutation("params: small-order Ppub", "src/edcred/params.py",
             "if sum_is_neutral(curve, [(p_pub, 1)], ms=0, ap=0, cofactored=True):", "if False:"),
    Mutation("load: Ppub of order q", "src/edcred/params.py",
             "if not in_prime_subgroup(p_pub):", "if False:"),
    Mutation("load: base point of order q", "src/edcred/curve.py",
             "if not in_prime_subgroup(curve.base):", "if False:"),
    Mutation("signature: h = 0", "src/edcred/credential.py",
             "if h.v == 0:", "if False:"),
    Mutation("attributes: count", "src/edcred/credential.py",
             "if not 1 <= n <= MAX_ATTRIBUTES:", "if False:"),
    Mutation("attributes: zero", "src/edcred/credential.py",
             "if m.v == 0:", "if False:"),
    Mutation("credential: attribute rules", "src/edcred/credential.py",
             "attrs = check_attrs(attrs, r_point.curve.q)", "attrs = tuple(attrs)"),
    Mutation("credential: h = 0", "src/edcred/credential.py",
             "refuse_zero_h(h)", "None"),
    Mutation("token: attribute count", "src/edcred/disclosure.py",
             "check_count(n)", "None"),
    Mutation("token: index partition", "src/edcred/disclosure.py",
             "if sorted([*self.hidden_points, *self.disclosed]) != list(range(n)):", "if False:"),
    Mutation("token: m_0 stays hidden", "src/edcred/disclosure.py",
             "if 0 in self.disclosed:", "if False:"),
    Mutation("token: zero disclosed attribute", "src/edcred/disclosure.py",
             "if not all(self.disclosed.values()):", "if False:"),
    Mutation("token: one proof per hidden index", "src/edcred/disclosure.py",
             "if self.proofs.keys() != self.hidden_points.keys():", "if False:"),
    Mutation("comb: scalar mod the group order", "src/edcred/curve.py",
             "p, d, n = curve.p, curve.d, curve.cofactor * curve.q",
             "p, d, n = curve.p, curve.d, curve.q"),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")


def apply(tree: Path, m: Mutation) -> None:
    """Replace m.text in tree's copy of m.file, refusing unless it occurs
    exactly once."""
    path = tree / m.file
    text = path.read_text()
    if text.count(m.text) != 1:
        raise ValueError(f"{m.name}: {m.text!r} occurs {text.count(m.text)} times in {m.file}")
    path.write_text(text.replace(m.text, m.replacement))


def run_tier1(tree: Path) -> tuple[bool, str]:
    """(whether Tier-1 failed, its first failure or a note), run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # tests/test_mutate_checks.py pins each listed text in place, so it
    # fails on every mutated copy whatever the guard's own tests do
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-W", "error",
           "-p", "no:cacheprovider", "--continue-on-collection-errors",
           "--ignore", "tests/test_mutate_checks.py"]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return False, ""
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return True, failed[0] if failed else f"pytest exit {done.returncode}"


def main(argv: list[str]) -> int:
    unknown = set(argv) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutation: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTATIONS if not argv or m.name in argv]
    survived = 0
    for m in chosen:
        with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
            tree = Path(tmp) / "tree"
            shutil.copytree(ROOT, tree, ignore=_SKIP)
            apply(tree, m)
            t0 = time.monotonic()
            killed, detail = run_tier1(tree)
        survived += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:9} {m.name:36} {time.monotonic() - t0:6.1f} s  {detail}", flush=True)
    print(f"{len(chosen)} mutations: {len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
