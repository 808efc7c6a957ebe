#!/usr/bin/env python3
"""Time edcred's arithmetic layer by layer on curve1174, in one process.

    python tools/bench_kernel.py [--repeat N]             # this checkout
    python tools/bench_kernel.py [--repeat N] SRC         # the package under SRC
    python tools/bench_kernel.py [--repeat N] SRC_A SRC_B # paired comparison

Each SRC is a directory holding an `edcred` package, such as a checkout's
`src/`. One SRC prints the median time of each operation:

- field: a 251-bit mulmod; the same product folded twice, as _sum's pass
  reduces each X, Y, Z and T it carries (2^251 = 9 mod p, so a fold is
  (v >> 251)*9 + (v & (2^251 - 1))), what the pass pays per product where
  mulmod divides; and an inversion;
- scalar mult: k*P on P's comb, k*Q by wNAF (Q never builds a table), a
  batch of 8 multiples of P, one addition P + Q, the blinding sum
  alpha*R' + beta*P of user_blind (a wNAF term and a comb term in one
  pass) and in_prime_subgroup(Ppub) on Ppub's comb, the subgroup check
  validate_params makes;
- comb table build: Point.precompute() for a fresh point Q, the one
  kind of table built at run time;
- one-shot start: import edcred.cli, credential, disclosure and
  protocol, the modules a CLI command loads, then production_curve() and
  the first k*P, which decodes the entries of P's shipped table that it
  reads, in a fresh interpreter, timed inside it (the interpreter's own
  start-up excluded); twice, from a copy of the package that never holds
  bytecode: once with PYTHONDONTWRITEBYTECODE=1, so that every edcred
  module is compiled from source as in a fresh checkout, and once with
  the bytecode cached under a temporary PYTHONPYCACHEPREFIX, so that the
  difference is the CLI's compile share;
- protocol, n = 8 attributes, 3 revealed: run_issuance, make_presentation
  (the full-show holder, randomizing), randomize (the triple alone),
  present plus encoding (holder), parse plus verify_disclosure
  (verifier), with Ppub's comb table built as a long-lived verifier has
  it; and parse plus verify_disclosure at n = 16 with every index hidden,
  the longest check;
- wire: parsing that disclosure token alone, and the n = 8 credential;
- load: SystemParams.load plus IssuerKey.load of a curve1174 deployment's
  params.txt and issuer.key, written once at start, the step every CLI
  command pays before its own work.

Each protocol row also prints the inner additions and doublings and the
field inversions its one counted run books (OpCounter): each row draws
its rng seeds from its own counter, so the counts repeat exactly at any
--repeat and show which steps a change in time comes from.

After the table, the comb break-even: the signature check at which a
table for Ppub has paid for its build (_COMB_AT in params.py). Each of
--repeat loops builds a table on a fresh copy of Ppub, then times a wNAF
k*Q on another fresh copy and a comb k*Q on the built one, and divides
the build by the difference, so that the three timings of one ratio are
made within milliseconds of each other; it prints the median and the
quartiles of the ratios.

Two SRCs load both packages in this process under different names and
alternate them operation by operation, which side goes first alternating
too, so that drift in the host's speed hits both alike. Each operation
prints both medians, the median of the per-operation ratios B/A and the
number of pairs B won. Both sides get identical inputs and rng seeds.
The package needs only the standard library, and so does this script.
"""

import argparse
import importlib.util
import itertools
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
N_ATTRS = 8
REVEALED = [1, 2, 3]
N_ALL_HIDDEN = 16
PROTOCOL = ("run_issuance n=8", "make_presentation n=8", "randomize", "present n=8",
            "verify_disclosure n=8", "verify_disclosure n=16, all hidden")
_FIELD_REPS = 1000
FIELD = ("mulmod", "folded product", "inversion")
FRESH = ("fresh import, compiled", "fresh import, cached bytecode")
# run by `python -c` with the SRC directory and k as arguments
_FIRST_USE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import edcred.cli, edcred.credential, edcred.disclosure, edcred.protocol
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


def operations(pkg, src: str, workdir: str) -> dict:
    """Name -> zero-argument callable, for one loaded package and the SRC
    it was loaded from; the load row's files go in workdir."""
    curve = pkg.production_curve()
    p, q, base = curve.p, curve.q, curve.base
    Point = pkg.Point
    rng = random.Random("bench_kernel")
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    # a package from before the fold is timed with curve1174's (K, c)
    K, c = getattr(curve, "_fold", None) or (p.bit_length(), (1 << p.bit_length()) % p)
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
    r_bar, alpha, beta = rng.randrange(1, q) * base, rng.randrange(1, q), rng.randrange(1, q)
    params_file = os.path.join(workdir, "params.txt")
    key_file = os.path.join(workdir, "issuer.key")
    params.save(params_file)
    key.save(key_file, params)
    DisclosureToken, Credential = pkg.DisclosureToken, pkg.Credential
    sig = pkg.signature_of(cred)
    # a package from before Point.multiples takes the batch one by one
    multiples = getattr(base, "multiples", None) or (lambda ks: [k * base for k in ks])
    curve_mod = importlib.import_module(f"{pkg.__name__}.curve")
    # the fresh-import rows run a copy of the package, so that no bytecode
    # cache next to its source is ever read
    copy = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(src, "edcred"), os.path.join(copy, "edcred"),
                    ignore=shutil.ignore_patterns("__pycache__"))

    def seeded(draw):
        # each protocol row counts its own rng seeds, so that its counted
        # first run draws seed 0 whatever --repeat the rows before it ran
        seeds = itertools.count()
        return lambda: draw(next(seeds))

    def issuance(i):
        return pkg.run_issuance(params, key, attrs, random.Random(i), random.Random(-i))

    def show_holder(i):
        return pkg.make_presentation(cred, params, random.Random(i))

    def randomized(i):
        return pkg.randomize(sig, params, random.Random(i))

    def holder(i):
        return pkg.present(cred, REVEALED, params, random.Random(i)).to_bytes(params)

    def verifier(blob, session_id):
        def check():
            if not pkg.verify_disclosure(DisclosureToken.from_bytes(blob, params, session_id), params):
                raise SystemExit("an honest token was refused")
        return check

    def first_use(cached: bool):
        env = {name: value for name, value in os.environ.items()
               if name not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        if cached:
            # the row's first, untimed run writes the cache
            env["PYTHONPYCACHEPREFIX"] = os.path.join(workdir, "pycache")
        else:
            env["PYTHONDONTWRITEBYTECODE"] = "1"

        def run() -> float:
            child = subprocess.run([sys.executable, "-c", _FIRST_USE, copy, str(k)],
                                   env=env, capture_output=True, text=True, check=True)
            return float(child.stdout)
        return run

    return {
        "mulmod": lambda: mulmod(a, b, p),
        "folded product": lambda: folded(a, b, K, c),
        "inversion": lambda: [pow(a, -1, p) for _ in range(_FIELD_REPS)],
        "comb k*P": lambda: k * base,
        "wNAF k*Q": lambda: k * Point(q_pt.x, q_pt.y, curve),
        "batch of 8 k*P": lambda: multiples(batch),
        "one addition P + Q": lambda: base + q_pt,
        "blinding sum alpha*R' + beta*P": lambda: curve_mod.sum_of_multiples(
            curve, [[(r_bar, alpha), (base, beta)]], ms=2, ap=1),
        "in_prime_subgroup(Ppub)": lambda: curve_mod.in_prime_subgroup(params.p_pub),
        "comb table build": lambda: Point(q_pt.x, q_pt.y, curve).precompute(),
        "run_issuance n=8": seeded(issuance),
        "make_presentation n=8": seeded(show_holder),
        "randomize": seeded(randomized),
        "present n=8": seeded(holder),
        "verify_disclosure n=8": verifier(data, token.session_id),
        "verify_disclosure n=16, all hidden": verifier(wide_data, wide_token.session_id),
        "parse token n=8": lambda: DisclosureToken.from_bytes(data, params, token.session_id),
        "parse credential n=8": lambda: Credential.from_bytes(cred_data, params),
        "load params + issuer key": lambda: pkg.IssuerKey.load(
            key_file, pkg.SystemParams.load(params_file)),
        FRESH[0]: first_use(cached=False),
        FRESH[1]: first_use(cached=True),
    }


# the two field rows run the same loop on locals, so that they differ only
# in how the product is reduced

def mulmod(a, b, p):
    for _ in range(_FIELD_REPS):
        v = a * b % p
    return v


def folded(a, b, K, c):
    lo = (1 << K) - 1
    for _ in range(_FIELD_REPS):
        v = a * b
        v = (v >> K) * c + (v & lo)
        v = (v >> K) * c + (v & lo)
    return v


def timed(name: str, fn) -> float:
    # a fresh-process operation returns the seconds its child measured
    if name in FRESH:
        return fn()
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def unit(name: str):
    # a field operation runs _FIELD_REPS times per call and prints in ns
    # per operation; everything else prints in ms
    return ("ns", 1e9 / _FIELD_REPS) if name in FIELD else ("ms", 1e3)


def inner_steps(pkg, name: str, fn) -> tuple[str, str]:
    """('adds/doublings', 'inversions') booked by one run of a protocol
    row, else ('', ''); the run is the row's warm-up."""
    if name not in PROTOCOL:
        fn()
        return "", ""
    with pkg.OpCounter() as ops:
        fn()
    return f"{ops.inner_adds}/{ops.inner_doubles}", str(ops.inversions)


def break_even(pkg):
    """A callable that runs one loop of the comb break-even and returns
    build / (wNAF k*Q - comb k*Q) for a fresh copy of Ppub."""
    curve = pkg.production_curve()
    params, _ = pkg.setup(curve, random.Random("bench_kernel:setup"))
    x, y = params.p_pub.x, params.p_pub.y
    rng = random.Random("bench_kernel:break-even")

    def loop() -> float:
        k = rng.randrange(1, curve.q)
        table = pkg.Point(x, y, curve)
        plain = pkg.Point(x, y, curve)
        t0 = time.perf_counter()
        table.precompute()
        t1 = time.perf_counter()
        k * plain
        t2 = time.perf_counter()
        k * table
        t3 = time.perf_counter()
        return (t1 - t0) / ((t2 - t1) - (t3 - t2))
    return loop


def spread(ratios: list) -> str:
    """'median (quartile 1 - quartile 3)' of ratios."""
    q1, q3 = (statistics.quantiles(ratios, n=4)[::2] if len(ratios) > 1 else ratios * 2)
    return f"{statistics.median(ratios):.1f} (IQR {q1:.1f} - {q3:.1f})"


def single(pkg, ops: dict, repeat: int) -> None:
    print(f"{'':34s} {'median':>10s}     {'adds/dbls':>10s} {'inv':>4s}")
    for name, fn in ops.items():
        steps, inv = inner_steps(pkg, name, fn)
        times = [timed(name, fn) for _ in range(repeat)]
        label, scale = unit(name)
        print(f"{name:34s} {scale * statistics.median(times):10.3f} {label:3s} {steps:>10s} {inv:>4s}")
    loop = break_even(pkg)
    ratios = [loop() for _ in range(repeat)]
    print(f"\ncomb break-even, build / (wNAF - comb), {repeat} loops: {spread(ratios)}")


def paired(pkgs: list, ops_a: dict, ops_b: dict, repeat: int) -> None:
    print(f"{'':34s} {'A':>10s} {'B':>10s} {'B/A':>6s}  {'B won':>5s}     "
          f"{'A adds/dbls':>12s} {'B adds/dbls':>12s} {'A inv':>5s} {'B inv':>5s}"
          f"  (medians of {repeat} pairs)")
    for name, fa in ops_a.items():
        fb = ops_b[name]
        (steps_a, inv_a), (steps_b, inv_b) = inner_steps(pkgs[0], name, fa), inner_steps(pkgs[1], name, fb)
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
              f" {ratio:6.3f}  {f'{won}/{repeat}':>5s} {label:3s} {steps_a:>12s} {steps_b:>12s}"
              f" {inv_a:>5s} {inv_b:>5s}")
    loops = [break_even(pkg) for pkg in pkgs]
    ratios = ([], [])
    for i in range(repeat):
        for side in (1, 0) if i % 2 else (0, 1):
            ratios[side].append(loops[side]())
    print(f"\ncomb break-even, build / (wNAF - comb), {repeat} alternating loops:"
          f"\n  A {spread(ratios[0])}\n  B {spread(ratios[1])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="directories holding an edcred package (default: this checkout's src/)")
    ap.add_argument("--repeat", type=int, default=100, help="timed runs (or pairs) per operation")
    args = ap.parse_args(argv)
    if len(args.src) > 2 or args.repeat < 1:
        ap.error("give at most two SRC directories and a positive --repeat")
    srcs = args.src or [_SRC]
    pkgs = [load(src, f"edcred_bench_{i}") for i, src in enumerate(srcs)]
    with tempfile.TemporaryDirectory(prefix="bench_kernel_") as tmp:
        ops = [operations(pkg, src, tempfile.mkdtemp(dir=tmp)) for pkg, src in zip(pkgs, srcs)]
        if len(ops) == 1:
            single(pkgs[0], ops[0], args.repeat)
        else:
            print(f"A = {srcs[0]}\nB = {srcs[1]}")
            paired(pkgs, ops[0], ops[1], args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
