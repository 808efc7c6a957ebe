#!/usr/bin/env python3
"""Time edcred's arithmetic layer by layer on curve1174, in one process.

    python tools/bench_kernel.py [--repeat N]             # this checkout
    python tools/bench_kernel.py [--repeat N] SRC         # the package under SRC
    python tools/bench_kernel.py [--repeat N] SRC_A SRC_B # paired comparison

Each SRC is a directory holding an `edcred` package, such as a checkout's
`src/`. One SRC prints the median time of each operation:

- field: a 251-bit mulmod and an inversion;
- scalar mult: k*P on P's comb, k*Q by wNAF (Q never builds a table) and
  a batch of 8 multiples of P;
- comb table build: Point.precompute() for a fresh point Q, which with
  the two rows above gives the signature check at which SystemParams
  builds Ppub's table (_COMB_AT in params.py), the one table built at
  run time;
- one-shot start: import edcred, production_curve() and the first k*P,
  which decodes the entries of P's shipped table that it reads, in a fresh
  interpreter, timed inside it (the interpreter's own start-up excluded);
- protocol, n = 8 attributes, 3 revealed: run_issuance, present plus
  encoding (holder), parse plus verify_disclosure (verifier), with Ppub's
  comb table built as a long-lived verifier has it; and parse plus
  verify_disclosure at n = 16 with every index hidden, the longest check;
- wire: parsing that disclosure token alone, and the n = 8 credential.

Each protocol row also prints the inner additions and doublings its one
counted run books (OpCounter): the counts of a seeded run repeat exactly,
so they show which steps a change in time comes from.

Two SRCs load both packages in this process under different names and
alternate them operation by operation, which side goes first alternating
too, so that drift in the host's speed hits both alike. Each operation
prints both medians, the median of the per-operation ratios B/A and the
number of pairs B won. Both sides get identical inputs and rng seeds.
The package needs only the standard library, and so does this script.
"""

import argparse
import importlib.util
import os
import random
import statistics
import subprocess
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
N_ATTRS = 8
REVEALED = [1, 2, 3]
N_ALL_HIDDEN = 16
PROTOCOL = ("run_issuance n=8", "present n=8", "verify_disclosure n=8",
            "verify_disclosure n=16, all hidden")
_FIELD_REPS = 1000
FRESH = "fresh import, first k*P"
# run by `python -c` with the SRC directory and k as arguments
_FIRST_USE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import edcred
int(sys.argv[2]) * edcred.production_curve().base
print(time.perf_counter() - t0)
"""


def load(src: str, name: str):
    """The edcred package under src, imported as `name`."""
    pkg = os.path.join(src, "edcred")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def operations(pkg, src: str) -> dict:
    """Name -> zero-argument callable, for one loaded package and the SRC
    it was loaded from."""
    curve = pkg.production_curve()
    p, q, base = curve.p, curve.q, curve.base
    Point = pkg.Point
    rng = random.Random("bench_kernel")
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    k = rng.randrange(1, q)
    q_pt = rng.randrange(1, q) * base
    batch = [rng.randrange(1, q) for _ in range(8)]
    params, key = pkg.setup(curve, random.Random("bench_kernel:setup"))
    params.p_pub.precompute()
    attrs = [curve.random_nonzero(rng) for _ in range(N_ATTRS)]
    cred, _ = pkg.run_issuance(params, key, attrs, random.Random("i"), random.Random("u"))
    token = pkg.present(cred, REVEALED, params, random.Random("token"))
    data = token.to_bytes(params)
    cred_data = cred.to_bytes(params)
    wide = [curve.random_nonzero(rng) for _ in range(N_ALL_HIDDEN)]
    wide_cred, _ = pkg.run_issuance(params, key, wide, random.Random("wi"), random.Random("wu"))
    wide_token = pkg.present(wide_cred, [], params, random.Random("wide token"))
    wide_data = wide_token.to_bytes(params)
    DisclosureToken, Credential = pkg.DisclosureToken, pkg.Credential
    # a package from before Point.multiples takes the batch one by one
    multiples = getattr(base, "multiples", None) or (lambda ks: [k * base for k in ks])
    seeds = iter(range(1 << 62))

    def issuance():
        i = next(seeds)
        return pkg.run_issuance(params, key, attrs, random.Random(i), random.Random(-i))

    def holder():
        return pkg.present(cred, REVEALED, params, random.Random(next(seeds))).to_bytes(params)

    def verifier(blob, session_id):
        def check():
            if not pkg.verify_disclosure(DisclosureToken.from_bytes(blob, params, session_id), params):
                raise SystemExit("an honest token was refused")
        return check

    def first_use() -> float:
        child = subprocess.run([sys.executable, "-c", _FIRST_USE, src, str(k)],
                               capture_output=True, text=True, check=True)
        return float(child.stdout)

    return {
        "mulmod": lambda: [a * b % p for _ in range(_FIELD_REPS)],
        "inversion": lambda: [pow(a, -1, p) for _ in range(_FIELD_REPS)],
        "comb k*P": lambda: k * base,
        "wNAF k*Q": lambda: k * Point(q_pt.x, q_pt.y, curve),
        "batch of 8 k*P": lambda: multiples(batch),
        "comb table build": lambda: Point(q_pt.x, q_pt.y, curve).precompute(),
        "run_issuance n=8": issuance,
        "present n=8": holder,
        "verify_disclosure n=8": verifier(data, token.session_id),
        "verify_disclosure n=16, all hidden": verifier(wide_data, wide_token.session_id),
        "parse token n=8": lambda: DisclosureToken.from_bytes(data, params, token.session_id),
        "parse credential n=8": lambda: Credential.from_bytes(cred_data, params),
        FRESH: first_use,
    }


def timed(name: str, fn) -> float:
    # the fresh-process operation returns the seconds its child measured
    if name == FRESH:
        return fn()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def unit(name: str):
    # a field operation runs _FIELD_REPS times per call and prints in ns
    # per operation; everything else prints in ms
    return ("ns", 1e9 / _FIELD_REPS) if name in ("mulmod", "inversion") else ("ms", 1e3)


def inner_steps(pkg, name: str, fn) -> str:
    """'adds/doublings' booked by one run of a protocol row, else ''; the
    run is the row's warm-up."""
    if name not in PROTOCOL:
        fn()
        return ""
    with pkg.OpCounter() as ops:
        fn()
    return f"{ops.inner_adds}/{ops.inner_doubles}"


def single(pkg, ops: dict, repeat: int) -> None:
    print(f"{'':34s} {'median':>10s}     {'adds/dbls':>10s}")
    for name, fn in ops.items():
        steps = inner_steps(pkg, name, fn)
        times = [timed(name, fn) for _ in range(repeat)]
        label, scale = unit(name)
        print(f"{name:34s} {scale * statistics.median(times):10.3f} {label:3s} {steps:>10s}")


def paired(pkgs: list, ops_a: dict, ops_b: dict, repeat: int) -> None:
    print(f"{'':34s} {'A':>10s} {'B':>10s} {'B/A':>6s}  {'B won':>5s}     "
          f"{'A adds/dbls':>12s} {'B adds/dbls':>12s}  (medians of {repeat} pairs)")
    for name, fa in ops_a.items():
        fb = ops_b[name]
        steps = inner_steps(pkgs[0], name, fa), inner_steps(pkgs[1], name, fb)
        ta, tb = [], []
        for i in range(repeat):
            if i % 2:
                tb.append(timed(name, fb))
                ta.append(timed(name, fa))
            else:
                ta.append(timed(name, fa))
                tb.append(timed(name, fb))
        ratio = statistics.median(y / x for x, y in zip(ta, tb))
        won = sum(y < x for x, y in zip(ta, tb))
        label, scale = unit(name)
        print(f"{name:34s} {scale * statistics.median(ta):10.3f} {scale * statistics.median(tb):10.3f}"
              f" {ratio:6.3f}  {f'{won}/{repeat}':>5s} {label:3s} {steps[0]:>12s} {steps[1]:>12s}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="directories holding an edcred package (default: this checkout's src/)")
    ap.add_argument("--repeat", type=int, default=100, help="timed runs (or pairs) per operation")
    args = ap.parse_args(argv)
    if len(args.src) > 2 or args.repeat < 1:
        ap.error("give at most two SRC directories and a positive --repeat")
    srcs = args.src or [_SRC]
    pkgs = [load(src, f"edcred_bench_{i}") for i, src in enumerate(srcs)]
    ops = [operations(pkg, src) for pkg, src in zip(pkgs, srcs)]
    if len(ops) == 1:
        single(pkgs[0], ops[0], args.repeat)
    else:
        print(f"A = {srcs[0]}\nB = {srcs[1]}")
        paired(pkgs, ops[0], ops[1], args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
