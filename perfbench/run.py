"""edcred benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload issue|show|disclose|cli \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that has src/edcred. The workloads are
described in workloads.py and BENCHMARK.json.

With --trace 0 the run measures untraced for S seconds and reports the
end-to-end metrics. With --trace 1 it measures untraced for the first
third of S, then with every layer traced for the rest, and reports the
per-layer metrics plus the tracing overhead (traced against untraced
latency p50); the spans go to .perfbench/traces/ in the checkout.

Before the result, stdout carries one {"calibration": ...} line and a
human-readable table; the last line is the result object:
{"correct", "attempted", "failed", "metrics"}. A failed operation is
counted and the run goes on; `correct` is false if any operation failed or
an op-count gate did not hold.

Noise: the run pins no CPU, fixes no clock frequency and drops no cache.
The host's CPU speed drifts by a quarter and more over minutes, so a fixed
probe (workloads.Speed) runs before every timed sample, and end-to-end
times and rates are reported at the reference speed: each time divided by
the factor its probe measured. The human-readable table gives the range
of that factor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 7
CALIBRATION_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "issuer_ms_p50": "ms",
    "holder_ms_p50": "ms",
    "verifier_ms_p50": "ms",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values, pct):
    """Linear-interpolated percentile, as statistics.quantiles(method="inclusive")."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def time_process(argv) -> float:
    t0 = timeit.default_timer()
    subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
    return timeit.default_timer() - t0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibrate() -> dict:
    """Figures that let runs on different machines or days be compared."""
    startup = [time_process([sys.executable, "-c", "pass"]) for _ in range(CALIBRATION_REPEATS)]
    bare = [time_process([sys.executable, "-S", "-c", "pass"]) for _ in range(CALIBRATION_REPEATS)]
    p = 2**251 - 9
    rng = random.Random(0)
    env = {"a": rng.randrange(p), "b": rng.randrange(p), "p": p}
    mulmod = min(timeit.repeat("a * b % p", globals=env, number=20000, repeat=3)) / 20000
    inverse = min(timeit.repeat("pow(a, -1, p)", globals=env, number=1000, repeat=3)) / 1000
    return {
        "python_startup_ms": 1000 * statistics.median(startup),
        "python_startup_no_site_ms": 1000 * statistics.median(bare),
        "mulmod_251_ns": 1e9 * mulmod,
        "inverse_251_us": 1e6 * inverse,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
        "limits": "no CPU pinning, no frequency control, no cache dropping: "
                  "noise is handled by medians over repeated runs",
    }


def measure(workload, seconds, tracer, first_op):
    """Closed loop: the next operation starts when the last one ended.

    A speed probe runs before every operation; the operation's times are
    converted to reference speed with the factor of that probe. Returns
    the ops and the loop's wall time at reference speed, less the probes
    and the correctness checks made inside operations.
    """
    from edcred.curve import OpCounter
    from spans import clock

    speed = workload.speed
    ops = {}
    j = first_op
    wall = 0.0
    deadline = clock() + seconds
    while clock() < deadline:
        speed.probe()
        t0 = clock()
        if tracer is None:
            op = workload.op(j, None)
        else:
            with OpCounter() as ctr:
                op = workload.op(j, tracer)
            if op.measured is None:
                op.measured = (ctr.scalar_mults, ctr.point_adds,
                               ctr.inner_adds + ctr.inner_doubles)
            tracer.begin(None)
        wall += speed.scale(clock() - t0 - op.checking)
        op.factor = speed.factor
        for role in ("latency", "holder", "verifier", "issuer"):
            if getattr(op, role) is not None:
                setattr(op, role, speed.scale(getattr(op, role)))
        ops[j] = op
        j += 1
    workload.check(ops, tracer)
    return ops, wall


def end_to_end(workload, ops, wall, setup_samples, peak_rss_mb) -> dict:
    """The end-to-end metrics; every time and rate is at reference speed."""
    latencies = [op.latency for op in ops.values()]

    def p50(role):
        values = [getattr(op, role) for op in ops.values() if getattr(op, role) is not None]
        if role == "issuer" and not values:
            values = workload.fixture_issuer  # sessions that issued the shown credentials
        return 1000 * statistics.median(values)

    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(ops) / wall,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * percentile(latencies, 90),
        "issuer_ms_p50": p50("issuer"),
        "holder_ms_p50": p50("holder"),
        "verifier_ms_p50": p50("verifier"),
        "success_ratio": sum(op.ok for op in ops.values()) / len(ops),
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def gate_failures(ops) -> list:
    """Honest operations whose OpCounter totals differ from the protocol's."""
    return [j for j, op in ops.items()
            if op.counts is not None and op.measured is not None
            and tuple(op.measured[:2]) != tuple(op.counts)]


def write_spans(tracer, path):
    from spans import SPAN_FIELDS

    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for thread, rec in tracer.spans():
            fh.write(json.dumps(dict(zip(("thread",) + SPAN_FIELDS, (thread, *rec)))) + "\n")


def run(args, workdir):
    from spans import Tracer, instrument, layer_metrics
    from child import in_process_setup
    from workloads import WORKLOADS, Speed, fixed_points

    calibration = calibrate()
    print(json.dumps({"calibration": calibration}))
    cli = args.workload == "cli"
    workload = WORKLOADS[args.workload](args.seed, workdir, Speed())
    tracer = Tracer() if args.trace else None
    setup_samples = [] if tracer else [workload.set_up_in_child() for _ in range(SETUP_REPEATS)]
    if not cli:
        if tracer:  # the set-up itself, traced, gives the params.* figures
            instrument(tracer)
            tracer.begin("setup", "setup")
        workload.params, workload.key = in_process_setup(args.seed)
        if tracer:
            tracer.begin(None)
            tracer.uninstall()
    try:
        workload.prepare()
        fixed = workload.fixed if cli else fixed_points(workload.params)
        if not args.trace:
            ops, wall = measure(workload, args.seconds, None, 0)
            all_ops = ops
            metrics = end_to_end(workload, ops, wall, setup_samples, peak_rss_mb(cli))
            gates = []
        else:
            plain, _ = measure(workload, args.seconds / 3, None, 0)
            reference = workload.reference()
            tracer.fixed.update(fixed)
            instrument(tracer)
            try:
                traced, _ = measure(workload, args.seconds * 2 / 3, tracer, max(plain) + 1)
            finally:
                tracer.uninstall()
            all_ops = {**plain, **traced}
            gates = gate_failures(traced) + ([] if reference else ["reference"])
            metrics = layer_metrics(tracer, traced, set(traced) if cli else {"setup"})
            plain_p50 = 1000 * statistics.median(op.latency for op in plain.values())
            traced_p50 = 1000 * statistics.median(op.latency for op in traced.values())
            metrics.update({
                "ops.Ms": reference[0] if reference else -1,
                "ops.Ap": reference[1] if reference else -1,
                "ops.mismatches": len(gates),
                "trace.ops": len(traced),
                "trace.untraced_latency_p50_ms": plain_p50,
                "trace.latency_p50_ms": traced_p50,
                "trace.overhead": traced_p50 / plain_p50,
            })
            write_spans(tracer, SCRATCH / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    finally:
        workload.close()
    failed = [j for j, op in all_ops.items() if not op.ok]
    for j in failed[:5]:
        print(f"failed op {j}: {all_ops[j].error}", file=sys.stderr)
    for j in gates[:5]:
        op = all_ops.get(j)
        print(f"op-count gate: op {j} counted {op.measured if op else None}, "
              f"protocol says {op.counts if op else None}", file=sys.stderr)
    report_human(args, metrics, all_ops, failed)
    factors = workload.speed.factors
    print(f"  host speed factor: median {statistics.median(factors):.4f}, "
          f"range {min(factors):.4f} to {max(factors):.4f} over {len(factors)} probes")
    return {
        "correct": not failed and not gates,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(".ms") or name.endswith("_ms"):
        return "ms"
    if name == "wire.bytes":
        return "bytes"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def report_human(args, metrics, ops, failed):
    mode = "traced, per layer" if args.trace else "untraced, end to end"
    print(f"{args.workload} seed={args.seed} {mode}: {len(ops)} ops, "
          f"failed_ratio {len(failed) / len(ops):.4f} ({len(failed)}/{len(ops)})")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:14.4f} {unit_of(k)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("issue", "show", "disclose", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edcred" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'edcred'} not found; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = SCRATCH / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
