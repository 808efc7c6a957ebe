"""Child processes of the benchmark, one job each.

    python3 perfbench/child.py setup --seed N
        Time one in-process set-up in a fresh interpreter: import edcred,
        create params and key, build the P and Ppub ladders. Prints
        {"setup_s": seconds}.

    python3 perfbench/child.py cli --spans FILE --fixed JSON -- ARGS...
        Run `edcred ARGS...` with every layer traced. Writes the spans, the
        OpCounter totals and the import time to FILE and exits with the
        command's exit code. JSON lists the [x, y] of the fixed bases.

src/ must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time


def in_process_setup(seed):
    """Import edcred, create params and key from the seed. The P ladder is
    built with the curve, the Ppub ladder with the params."""
    from edcred.params import setup

    return setup("prod", random.Random(f"{seed}:setup"))


def time_setup(seed) -> float:
    t0 = time.perf_counter()
    in_process_setup(seed)
    return time.perf_counter() - t0


CLI_COMMANDS = ("setup", "issue", "serve", "verify", "randomize", "present", "bench")


def traced_cli(spans_file, fixed, argv) -> int:
    from spans import Tracer, clock, instrument

    t0 = clock()
    import edcred.cli as cli
    from edcred.curve import OpCounter

    t1 = clock()
    tracer = Tracer(tuple(p) for p in fixed)
    tracer.add_span("cli.import", t0, t1)
    instrument(tracer)
    for name in CLI_COMMANDS:
        tracer.patch(cli, f"cmd_{name}", f"cli.{name}")
    with OpCounter() as ctr:
        code = cli.main(argv)
    tracer.uninstall()
    spans = [rec for thread in tracer.threads for rec in thread]
    counts = [ctr.scalar_mults, ctr.point_adds, ctr.inner_adds + ctr.inner_doubles]
    with open(spans_file, "w") as fh:
        json.dump({"spans": spans, "counts": counts}, fh)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("cli")
    p.add_argument("--spans", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.job == "setup":
        print(json.dumps({"setup_s": time_setup(args.seed)}))
        return 0
    rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return traced_cli(args.spans, json.loads(args.fixed), rest)


if __name__ == "__main__":
    sys.exit(main())
