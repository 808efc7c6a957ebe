"""The four closed-loop workloads, one client each, on curve1174.

Every workload draws its inputs from the run seed and hands the library
only those inputs. An operation returns an ``Op``: its wall time split by
role, whether its outcome was the expected one, and, for honest operations,
the group-operation counts the protocol prescribes (criterion 8 of the
acceptance suite), which the traced run compares against ``OpCounter``.

Why these four (also recorded in BENCHMARK.json):

* issue     - the only workload where the issuer signs and where the
              protocol and wire layers carry traffic. A session does
              n + 6 fixed-base and 2 variable-base multiplications, so its
              fixed-base share grows with n.
* show      - 6 of the 7 multiplications are on P or Ppub and there is
              almost no hashing: comb tables and joint two-term checks
              show here, batch proof verification does nothing.
* disclose  - the verifier does hidden + 1 variable-base multiplications
              and n point hashes while the holder's present is all
              fixed-base: batch verification and variable-base work show,
              fixed-base tables barely move the verifier.
* cli       - every command is a fresh process that imports edcred, loads
              params and key and precomputes ladders before any protocol
              work: the only workload where per-process set-up dominates.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import os
import queue
import random
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from edcred import credential, curve, disclosure, hashing, issuance, protocol, wire
from edcred.errors import WireError
from edcred.params import SystemParams

from spans import Tracer, clock

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60
TAMPER_EVERY = 8

# the speed probe: affine doublings on 251-bit integers, and the median
# time of the probe on a 2-vCPU Intel Xeon under CPython 3.11
PROBE_P = 2**251 - 9
PROBE_POINT = (2**250 - 12345, 2**249 + 6789)
PROBE_STEPS = 16
REFERENCE_PROBE_S = 0.0006


def speed_probe() -> float:
    """Seconds for PROBE_STEPS affine doublings: the formula of
    edcred.curve._dbl_xy written out here, so that no change to edcred
    moves it."""
    p = PROBE_P
    x, y = PROBE_POINT
    t0 = clock()
    for _ in range(PROBE_STEPS):
        xx = x * x % p
        yy = y * y % p
        a = (xx + yy) % p
        b = (2 - xx - yy) % p
        inv = pow(a * b % p, -1, p)
        x, y = 2 * x * y % p * (inv * b % p) % p, (yy - xx) % p * (inv * a % p) % p
    return clock() - t0


class Speed:
    """The host's speed against the reference, so that times measured
    while the host's CPU is slower or faster become comparable: probe()
    updates the factor (above 1: slower than the reference), scale()
    converts a time measured after that probe to reference speed. The
    factor is the median of the last few probes, so one probe delayed by
    a thread switch does not move it."""

    WINDOW = 5

    def __init__(self):
        self.factor = 1.0
        self.factors = []
        self._recent = collections.deque(maxlen=self.WINDOW)

    def probe(self) -> float:
        self._recent.append(speed_probe())
        self.factor = statistics.median(self._recent) / REFERENCE_PROBE_S
        self.factors.append(self.factor)
        return self.factor

    def scale(self, seconds: float) -> float:
        return seconds / self.factor


@dataclasses.dataclass
class Op:
    """One operation. op() records raw seconds; run.py converts them to
    reference speed with ``factor``, the speed probe taken just before."""

    latency: float
    holder: float | None = None
    verifier: float | None = None
    issuer: float | None = None
    ok: bool = True
    counts: tuple | None = None  # (Ms, Ap) the protocol prescribes, honest ops only
    measured: tuple | None = None  # (Ms, Ap, inner steps) from OpCounter, traced runs only
    error: str | None = None
    factor: float = 1.0
    checking: float = 0.0  # seconds of correctness checks inside op(), not in ops_per_s


def fixed_points(params):
    return [(params.curve.base.x, params.curve.base.y), (params.p_pub.x, params.p_pub.y)]


def counted(fn, *args, **kwargs):
    """Call fn under a fresh OpCounter; returns (result, (Ms, Ap, inner))."""
    with curve.OpCounter() as ctr:
        result = fn(*args, **kwargs)
    return result, (ctr.scalar_mults, ctr.point_adds, ctr.inner_adds + ctr.inner_doubles)


def issue_direct(params, key, attrs, issuer_rng, user_rng):
    """In-process issuance through the two engines, timing the issuer's.
    Returns (credential, issuer seconds)."""
    issuer = protocol.IssuerEngine(params, key, issuer_rng)
    user = protocol.UserEngine(params, attrs, user_rng)
    t0 = clock()
    msg = issuer.open()
    spent = clock() - t0
    while (reply := user.handle(msg)) is not None:
        t0 = clock()
        msg = issuer.handle(reply)
        spent += clock() - t0
    return user.credential, spent


def check_credential(cred, attrs, params) -> bool:
    """Parse the credential's bytes and check it as a relying party would:
    the attributes asked for, the check equation and the binding
    h == prod H(m_i * P, R)."""
    parsed = issuance.Credential.from_bytes(cred.to_bytes(params), params)
    if list(parsed.attrs) != list(attrs):
        return False
    if not credential.check_equation(credential.signature_of(parsed), params):
        return False
    q = params.curve.q
    h = 1
    for m in parsed.attrs:
        h = h * hashing.hash_points(m * params.curve.base, parsed.r_point).v % q
    return h == parsed.h.v


def random_attrs(curve_params, n, rng):
    return [curve_params.random_nonzero(rng) for _ in range(n)]


# -- tampering ---------------------------------------------------------------
#
# Field mutations of honest tokens of the kinds criterion 7 rejects: bump a
# scalar, move a point by P, change the session id. Each yields a token that
# still parses, so the verifier, not the parser, must refuse it.

def _bump(rng, params):
    return params.curve.random_nonzero(rng)


def _new_session(rng, session_id):
    while (sid := rng.getrandbits(128).to_bytes(16, "big")) == session_id:
        pass
    return sid


def tamper_presentation(token, params, rng) -> bytes:
    base = params.curve.base
    sig, proof, sid = token.sig, token.proof, token.session_id
    kind = rng.randrange(6)
    if kind == 0:
        sig = dataclasses.replace(sig, s=sig.s + _bump(rng, params))
    elif kind == 1:
        sig = dataclasses.replace(sig, h=sig.h + _bump(rng, params))
    elif kind == 2:
        sig = dataclasses.replace(sig, r_point=sig.r_point + base)
    elif kind == 3:
        moved = token.commitment0 + base
        token = dataclasses.replace(token, commitment0=moved)
        proof = dataclasses.replace(proof, statement=moved)
    elif kind == 4:
        proof = dataclasses.replace(proof, response=proof.response + _bump(rng, params))
    else:
        sid = _new_session(rng, sid)
    token = dataclasses.replace(token, sig=sig, proof=proof, session_id=sid)
    return wire.encode_message(wire.WireMessage(wire.MSG_PRESENT, sid, token.to_bytes(params)))


def tamper_disclosure(token, params, rng) -> bytes:
    disclosed, hidden = dict(token.disclosed), dict(token.hidden_points)
    fields = {}
    kinds = [1, 2, 3, 4] + ([0] if disclosed else [])
    kind = rng.choice(kinds)
    if kind == 0:
        i = rng.choice(sorted(disclosed))
        disclosed[i] = disclosed[i] + _bump(rng, params)
    elif kind == 1:
        i = rng.choice(sorted(hidden))
        hidden[i] = hidden[i] + params.curve.base
    elif kind == 2:
        fields["sig_s"] = token.sig_s + _bump(rng, params)
    elif kind == 3:
        fields["sig_h"] = token.sig_h + _bump(rng, params)
    else:
        fields["session_id"] = _new_session(rng, token.session_id)
    token = dataclasses.replace(token, disclosed=disclosed, hidden_points=hidden, **fields)
    return wire.encode_message(
        wire.WireMessage(wire.MSG_DISCLOSE, token.session_id, token.to_bytes(params))
    )


def verify_wire_token(data, params) -> bool:
    """The verifier's side: parse the framed bytes, then verify. A token
    that does not parse is a reject."""
    try:
        msg = wire.decode_message(data)
        if msg.msg_type == wire.MSG_PRESENT:
            token = credential.PresentationToken.from_bytes(msg.body, params, msg.session_id)
            return bool(credential.verify_presentation(token, params))
        token = disclosure.DisclosureToken.from_bytes(msg.body, params, msg.session_id)
        return bool(disclosure.verify_disclosure(token, params))
    except (WireError, ValueError):
        return False


def sweep(i, n):
    """The i-th of a golden-ratio sequence over 0..n-1. Every prefix visits
    each value about equally often, so runs that end after different
    numbers of operations still cover the same mix."""
    return int((i + 1) * 0.6180339887498949 % 1 * n)


def disclosure_counts(n, revealed):
    """Ms and Ap of present plus verify_disclosure on an honest token."""
    hidden = n - len(revealed)
    return 4 * hidden + len(revealed) + 3, hidden + 1


# -- workloads ---------------------------------------------------------------

class Workload:
    """One client, one operation at a time."""

    name = ""

    def __init__(self, seed, workdir: Path, speed: Speed):
        self.seed = seed
        self.workdir = workdir
        self.speed = speed
        self.params = self.key = None  # set by run.py, or by prepare for cli
        self.fixture_issuer = []  # issuer seconds of the fixture sessions, at reference speed

    def set_up_in_child(self):
        """One set-up in a fresh interpreter; returns its seconds at
        reference speed."""
        self.speed.probe()
        out = run_child(["setup", "--seed", str(self.seed)])
        return self.speed.scale(json.loads(out)["setup_s"])

    def prepare(self):
        """Fixtures; not timed."""

    def issue_fixtures(self, sizes, label):
        """Issue one credential per entry of sizes, in-process, and keep the
        issuer engine's time of each session. Workloads without issuance in
        their loop report these times as issuer_ms_p50; they issue once
        before and once after the loop, so the samples span the run."""
        rng = random.Random(f"{self.seed}:{self.name}:{label}")
        creds = []
        for n in sizes:
            self.speed.probe()
            cred, spent = issue_direct(self.params, self.key,
                                       random_attrs(self.params.curve, n, rng), rng, rng)
            creds.append(cred)
            self.fixture_issuer.append(self.speed.scale(spent))
        return creds

    def op(self, j, tracer) -> Op:
        raise NotImplementedError

    def check(self, ops, tracer):
        """Correctness checks that run after the measured loop."""

    def reference(self):
        """(Ms, Ap) of a fixed operation run twice; None unless both runs
        agree with each other and with the protocol's count."""
        raise NotImplementedError

    def close(self):
        pass


class IssueWorkload(Workload):
    """Serve/request issuance over a socketpair: issuer thread, user in the
    main thread. n cycles over SIZES; one session in four is interactive."""

    name = "issue"
    SIZES = (1, 2, 4, 8, 16)

    def prepare(self):
        # engine time per role, in every run; spans of the full trace come
        # on top of these in traced runs
        self.timer = Tracer()
        self.timer.patch(protocol.IssuerEngine, "open", "issuer")
        self.timer.patch(protocol.IssuerEngine, "handle", "issuer")
        self.timer.patch(protocol.UserEngine, "handle", "holder")
        self.tasks = queue.Queue()
        self.results = queue.Queue()
        self.sockets = socket.socketpair()
        self.thread = threading.Thread(target=self._serve, name="issuer", daemon=True)
        self.thread.start()

    def _serve(self):
        while (task := self.tasks.get()) is not None:
            j, conn, rng, tracers = task
            for t in tracers:
                t.begin(j, "issuer")
            error = None
            try:
                _, counts = counted(protocol.serve_issuance, conn, self.params, self.key, rng)
            except Exception as exc:  # recorded; the issuer keeps serving
                counts, error = None, f"issuer: {exc!r}"
                try:
                    conn.shutdown(socket.SHUT_RDWR)  # the user must not wait for a reply
                except OSError:
                    pass
            self.results.put((j, counts, error))

    def op(self, j, tracer):
        n = self.SIZES[j % len(self.SIZES)]
        interactive = j % 4 == 3
        rng = random.Random(f"{self.seed}:issue:user:{j}")
        attrs = random_attrs(self.params.curve, n, rng)
        issuer_rng = random.Random(f"{self.seed}:issue:issuer:{j}")
        tracers = [self.timer] + ([tracer] if tracer else [])
        for t in tracers:
            t.begin(j, "holder")
        user_conn, issuer_conn = self.sockets
        error = cred = counts = None
        t0 = clock()
        self.tasks.put((j, issuer_conn, issuer_rng, tracers))
        try:
            (cred, _), counts = counted(
                protocol.request_issuance, user_conn, self.params, attrs, rng,
                interactive=interactive,
            )
        except Exception as exc:  # a failed session is counted, not fatal
            error = f"user: {exc!r}"
            self._reset_connection()
        latency = clock() - t0
        _, issuer_counts, issuer_error = self.results.get(timeout=OP_TIMEOUT_S)
        error = error or issuer_error
        measured = None
        if counts and issuer_counts:
            measured = tuple(a + b for a, b in zip(counts, issuer_counts))
        verifier = 0.0
        if cred is not None and error is None:
            # the relying party's check, outside the latency and the rate
            if tracer:
                tracer.role("verifier")
            t0 = clock()
            if not check_credential(cred, attrs, self.params):
                error = "issued credential fails its check"
            verifier = clock() - t0
        return Op(latency=latency, verifier=verifier or None, ok=error is None,
                  counts=(n + 8, 3), measured=measured, error=error, checking=verifier)

    def _reset_connection(self):
        # the issuer may be blocked mid-session: closing our end ends it
        for s in self.sockets:
            s.close()
        self.sockets = socket.socketpair()

    def check(self, ops, tracer):
        role = role_times(self.timer)
        for j, op in ops.items():
            op.issuer = role.get((j, "issuer"), 0.0) / op.factor
            op.holder = role.get((j, "holder"), 0.0) / op.factor

    def reference(self):
        def cycle():
            rng = random.Random("reference:issue")
            total = [0, 0]
            for n in self.SIZES:
                attrs = random_attrs(self.params.curve, n, rng)
                _, (ms, ap, _) = counted(protocol.run_issuance, self.params, self.key,
                                         attrs, rng, rng)
                if (ms, ap) != (n + 8, 3):
                    return None
                total[0] += ms
                total[1] += ap
            return tuple(total)

        first, second = cycle(), cycle()
        return first if first == second else None

    def close(self):
        self.tasks.put(None)
        self.thread.join(timeout=OP_TIMEOUT_S)
        for s in self.sockets:
            s.close()
        self.timer.uninstall()


class ShowWorkload(Workload):
    """make_presentation(fresh=True) from a pool of 4-attribute
    credentials; the verifier parses the wire bytes and verifies."""

    name = "show"
    POOL = 8
    ATTRS = 4

    def prepare(self):
        self.pool = self.issue_fixtures([self.ATTRS] * self.POOL, "pool")

    def check(self, ops, tracer):
        self.issue_fixtures([self.ATTRS] * self.POOL, f"after:{min(ops)}")

    def op(self, j, tracer):
        cred = self.pool[j % self.POOL]
        rng = random.Random(f"{self.seed}:show:{j}")
        tampered = j % TAMPER_EVERY == TAMPER_EVERY - 1
        if tracer:
            tracer.begin(j, "holder")
        t0 = clock()
        token = credential.make_presentation(cred, self.params, rng, fresh=True)
        data = wire.encode_message(
            wire.WireMessage(wire.MSG_PRESENT, token.session_id, token.to_bytes(self.params))
        )
        holder = clock() - t0
        if tampered:
            if tracer:
                tracer.role("tamper")
            data = tamper_presentation(token, self.params, rng)
        if tracer:
            tracer.role("verifier")
        t0 = clock()
        accepted = verify_wire_token(data, self.params)
        verifier = clock() - t0
        return Op(latency=holder + verifier, holder=holder, verifier=verifier,
                  ok=accepted != tampered, counts=None if tampered else (7, 3),
                  error=None if accepted != tampered else f"tampered={tampered} accepted={accepted}")

    def reference(self):
        def show():
            token, (pms, pap, _) = counted(credential.make_presentation, self.pool[0],
                                           self.params, random.Random("reference:show"))
            ok, (ms, ap, _) = counted(credential.verify_presentation, token, self.params)
            return (pms + ms, pap + ap) if ok else None

        first, second = show(), show()
        return first if first == second and first == (7, 3) else None


class DiscloseWorkload(Workload):
    """present/verify_disclosure on credentials with n in SIZES. The number
    of revealed attributes sweeps 0..n-1 in the same order on every run, so
    runs cover the same mix of hidden counts; which indices are revealed is
    drawn from the seed."""

    name = "disclose"
    SIZES = (4, 8, 16)
    PER_SIZE = 3

    def prepare(self):
        creds = self.issue_fixtures(self.SIZES * self.PER_SIZE, "pool")
        self.pool = {n: [c for c in creds if len(c.attrs) == n] for n in self.SIZES}

    def check(self, ops, tracer):
        self.issue_fixtures(self.SIZES * self.PER_SIZE, f"after:{min(ops)}")

    def _revealed(self, j):
        n = self.SIZES[j % len(self.SIZES)]
        k = j // len(self.SIZES)
        rng = random.Random(f"{self.seed}:disclose:{j}")
        return n, k, sorted(rng.sample(range(1, n), sweep(k, n))), rng

    def op(self, j, tracer):
        n, k, revealed, rng = self._revealed(j)
        cred = self.pool[n][k % self.PER_SIZE]
        tampered = j % TAMPER_EVERY == TAMPER_EVERY - 1
        if tracer:
            tracer.begin(j, "holder")
        t0 = clock()
        token = disclosure.present(cred, revealed, self.params, rng)
        data = wire.encode_message(
            wire.WireMessage(wire.MSG_DISCLOSE, token.session_id, token.to_bytes(self.params))
        )
        holder = clock() - t0
        if tampered:
            if tracer:
                tracer.role("tamper")
            data = tamper_disclosure(token, self.params, rng)
        if tracer:
            tracer.role("verifier")
        t0 = clock()
        accepted = verify_wire_token(data, self.params)
        verifier = clock() - t0
        return Op(latency=holder + verifier, holder=holder, verifier=verifier,
                  ok=accepted != tampered,
                  counts=None if tampered else disclosure_counts(n, revealed),
                  error=None if accepted != tampered else f"tampered={tampered} accepted={accepted}")

    def reference(self):
        def disclose():
            cred = self.pool[8][0]
            token, (pms, pap, _) = counted(disclosure.present, cred, [1, 2, 3], self.params,
                                           random.Random("reference:disclose"))
            ok, (ms, ap, _) = counted(disclosure.verify_disclosure, token, self.params)
            return (pms + ms, pap + ap) if ok else None

        first, second = disclose(), disclose()
        return first if first == second and first == disclosure_counts(8, [1, 2, 3]) else None


class CliWorkload(Workload):
    """One edcred process at a time: issue, randomize, present, verify,
    against a params directory made by `edcred setup` in set-up. The verify
    step alternates between the randomized and the disclosure token, and
    one verify in four gets a tampered token and must exit 1."""

    name = "cli"
    LABELS = ("master", "age:30", "country:FR", "role:admin")
    STEPS = ("issue", "randomize", "present", "verify")

    def __init__(self, seed, workdir, speed):
        super().__init__(seed, workdir, speed)
        self.params_dir = workdir / "deploy"
        self.tokens = {"cred": workdir / "cred.bin", "show": workdir / "show.tok",
                       "disc": workdir / "disc.tok", "bad": workdir / "bad.tok"}
        self.attrs_file = workdir / "attrs.txt"

    def set_up_in_child(self):
        argv = ["setup", "--curve", "prod", "--out", str(self.params_dir),
                "--seed", str(self.seed)]
        self.speed.probe()
        t0 = clock()
        proc = run_cli(argv)
        elapsed = clock() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"edcred setup failed: {proc.stderr}")
        return self.speed.scale(elapsed)

    def prepare(self):
        if not (self.params_dir / "params.txt").exists():
            self.set_up_in_child()
        self.attrs_file.write_text("\n".join(self.LABELS) + "\n")
        self.params = SystemParams.load(self.params_dir / "params.txt")
        # the first issue draws the master secret into user.key
        self._command(["issue", "--params", str(self.params_dir), "--attrs",
                       str(self.attrs_file), "--out", str(self.tokens["cred"]), "--seed", "0"])
        self.issued = []  # (op id, credential bytes) for the post-run check
        self.fixed = fixed_points(self.params)
        user_key = curve.parse_kv((self.params_dir / "user.key").read_text(), required=("m0",))
        self.attrs = [self.params.curve.scalar(int(user_key["m0"]))] + [
            hashing.attr_to_scalar(label, self.params.curve) for label in self.LABELS[1:]
        ]

    def _command(self, argv, tracer=None, op=None, role=None):
        """Run one command; returns (seconds, exit code, counts, stderr)."""
        if tracer is None:
            t0 = clock()
            proc = run_cli(argv)
            return clock() - t0, proc.returncode, None, proc.stderr
        spans_file = self.workdir / "spans.json"
        child = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans_file),
                 "--fixed", json.dumps(self.fixed), "--"] + argv
        t0 = clock()
        proc = subprocess.run(child, env=child_env(), capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        elapsed = clock() - t0
        counts = None
        if spans_file.exists():
            record = json.loads(spans_file.read_text())
            spans_file.unlink()
            for rec in record["spans"]:
                rec[4], rec[5] = op, role
            tracer.threads.append(record["spans"])
            counts = tuple(record["counts"])
        return elapsed, proc.returncode, counts, proc.stderr

    def op(self, j, tracer):
        cycle, step = divmod(j, len(self.STEPS))
        step = self.STEPS[step]
        rng = random.Random(f"{self.seed}:cli:{j}")
        common = ["--params", str(self.params_dir), "--seed", str(rng.randrange(1 << 30))]
        expect, counts = 0, None
        if step == "issue":
            argv = ["issue", "--attrs", str(self.attrs_file), "--out", str(self.tokens["cred"])]
            counts = (len(self.LABELS) + 9, 3)  # n + 8, plus the key file's x*P check
        elif step == "randomize":
            argv = ["randomize", "--cred", str(self.tokens["cred"]), "--out", str(self.tokens["show"])]
            counts = (3, 1)
        elif step == "present":
            n = len(self.LABELS)
            revealed = sorted(rng.sample(range(1, n), sweep(cycle, n)))
            self.revealed = revealed
            argv = ["present", "--cred", str(self.tokens["cred"]), "--out", str(self.tokens["disc"]),
                    "--disclose", ",".join(map(str, revealed))]
            counts = (2 * (n - len(revealed)), 0)
        else:
            kind = "show" if cycle % 2 == 0 else "disc"
            target = self.tokens[kind]
            if cycle % 8 >= 6:
                target, expect = self.tokens["bad"], 1
                if tracer:
                    tracer.begin(j, "tamper")
                self._write_tampered(kind, rng)
            elif kind == "show":
                counts = (4, 2)
            else:
                n, revealed = len(self.LABELS), self.revealed
                ms, ap = disclosure_counts(n, revealed)
                counts = (ms - 2 * (n - len(revealed)), ap)
            argv = ["verify", "--token", str(target)]
        role = {"issue": "issuer", "verify": "verifier"}.get(step, "holder")
        elapsed, code, measured, stderr = self._command(argv[:1] + common + argv[1:], tracer,
                                                        j, role)
        if tracer and measured is None:
            measured = (-1, -1, 0)
        if step == "issue" and code == 0:
            self.issued.append((j, self.tokens["cred"].read_bytes()))
        op = Op(latency=elapsed, ok=code == expect, counts=counts if expect == 0 else None,
                measured=measured,
                error=None if code == expect else f"{step}: exit {code}, want {expect}: {stderr[-300:]}")
        setattr(op, role, elapsed)
        return op

    def _write_tampered(self, kind, rng):
        msg = wire.decode_message(self.tokens[kind].read_bytes())
        if kind == "show":
            token = credential.PresentationToken.from_bytes(msg.body, self.params, msg.session_id)
            data = tamper_presentation(token, self.params, rng)
        else:
            token = disclosure.DisclosureToken.from_bytes(msg.body, self.params, msg.session_id)
            data = tamper_disclosure(token, self.params, rng)
        self.tokens["bad"].write_bytes(data)

    def check(self, ops, tracer):
        for j, data in self.issued:
            if j not in ops:
                continue
            cred = issuance.Credential.from_bytes(data, self.params)
            if not check_credential(cred, self.attrs, self.params):
                ops[j].ok = False
                ops[j].error = "issued credential fails its check"
        self.issued = [item for item in self.issued if item[0] not in ops]

    def reference(self):
        scratch = Tracer()
        argv = ["issue", "--params", str(self.params_dir), "--attrs", str(self.attrs_file),
                "--out", str(self.workdir / "reference.bin"), "--seed", "1"]
        runs = [self._command(argv, scratch)[2] for _ in range(2)]
        if runs[0] is None or runs[0] != runs[1] or runs[0][:2] != (len(self.LABELS) + 9, 3):
            return None
        return runs[0][:2]


WORKLOADS = {w.name: w for w in (IssueWorkload, ShowWorkload, DiscloseWorkload, CliWorkload)}


# -- helpers shared with run.py ----------------------------------------------

def child_env():
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv):
    return subprocess.run([sys.executable, "-m", "edcred.cli"] + argv, env=child_env(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)


def run_child(argv) -> str:
    proc = subprocess.run([sys.executable, str(HERE / "child.py")] + argv, env=child_env(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[0]} failed: {proc.stderr}")
    return proc.stdout


def role_times(tracer):
    """Seconds per (op, role) from the top-level spans of a tracer."""
    out = {}
    for _, rec in tracer.spans():
        if rec[3] < 0:
            key = (rec[4], rec[0])
            out[key] = out.get(key, 0.0) + rec[2] - rec[1]
    return out
