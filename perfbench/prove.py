"""Repeat run.py over several seeds and check the spread of every metric.

    python3 perfbench/prove.py --workloads issue,show,disclose,cli \\
        --seeds 1-10 [--seconds 30] [--trace] [--out perfbench/results/BENCH_n.json]

For each workload and end-to-end metric it prints the median and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread at or above the bound fails (exit 1); one at or
above a third of the bound is flagged. setup_s is exempt: only its median
is compared between sets of runs.
With --trace it makes traced runs and prints per-layer medians instead.
--out writes every run's result and the summary as JSON; --compare FILE
checks each median against that of an earlier --out report and fails if
it is worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, cwd=ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    calibration = json.loads(lines[0])["calibration"]
    return json.loads(lines[-1]), calibration, time.monotonic() - t0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="issue,show,disclose,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.compare).read_text())["workloads"] if args.compare else {}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result, calibration, wall = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "wall_s": wall, "result": result,
                         "calibration": calibration})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  f"wall {wall:.1f}s", flush=True)
        summary = {}
        names = runs[0]["result"]["metrics"]
        print(f"\n{workload}: {len(runs)} runs of {seconds}s")
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = names[name]["unit"]
            if len(values) < 2:
                summary[name] = {"median": values[0], "unit": unit}
                continue
            med, q1, q3, share = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not args.trace and name != "setup_s":
                steady &= share < bound
                flag = ("ok" if share < bound / 3 else
                        "above bound/3" if share < bound else "ABOVE BOUND")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": share,
                             "bound": bound, "unit": unit}
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before and bound is not None:
                change = med / before["median"] - 1 if before["median"] else 0.0
                worse = change if better[name] == "lower" else -change
                steady &= worse <= bound
                flag += f"; vs earlier {change:+.2%}" + (" WORSE THAN BOUND" if worse > bound else "")
            print(f"  {name:34s} median {med:12.4f} {unit:6s} spread {share:7.2%}"
                  + (f"  bound {bound:.2f} {flag}" if bound is not None else ""))
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
