#!/usr/bin/env python3
"""Time edcred's arithmetic layer by layer on curve1174, in one process.

    python tools/bench_kernel.py [--repeat N]             # this checkout
    python tools/bench_kernel.py [--repeat N] SRC         # the package under SRC
    python tools/bench_kernel.py [--repeat N] SRC_A SRC_B # paired comparison

Each SRC is a directory holding an `edcred` package, such as a checkout's
`src/`. The rows:

- field: a 251-bit mulmod; the same product folded twice, as _sum's pass
  reduces each X, Y, Z and T it carries (2^251 = 9 mod p, so a fold is
  (v >> 251)*9 + (v & (2^251 - 1))), what the pass pays per product where
  mulmod divides; and an inversion;
- scalar mult: k*P on P's comb, k*Q by wNAF (Q never builds a table), a
  batch of 8 multiples of P, one addition P + Q, the blinding sum
  alpha*R' + beta*P of user_blind (a wNAF term and a comb term in one
  pass) and in_prime_subgroup(Ppub), the subgroup check validate_params
  makes, on a fresh copy of Ppub with no comb table, as `edcred setup`
  runs it;
- comb table build: Point.precompute() for a fresh point Q, the one
  kind of table built at run time;
- protocol, n = 8 attributes, 3 revealed: run_issuance; the same session
  over a fresh socket.socketpair(), protocol.serve_issuance in a
  threading.Thread and protocol.request_issuance in the caller, as
  perfbench's issue workload runs one, both sockets closed and the thread
  joined in the row, whose counts cover the user side only, since the
  issuer thread has no OpCounter; make_presentation
  (the full-show holder, randomizing), parse plus verify_presentation
  (its verifier, as perfbench's show workload runs it), randomize (the
  triple alone), present plus encoding (holder), parse plus
  verify_disclosure (verifier), with Ppub's comb table built as a
  long-lived verifier has it; and parse plus verify_disclosure at n = 16
  with every index hidden, the longest check;
- one-shot checks: check_equation, and parse plus verify_disclosure at
  n = 8, each on a SystemParams built in the row from a fresh copy of
  Ppub, as every CLI process and every holder's unblind check has it: no
  comb table and no check counted;
- wire: parsing that disclosure token alone, and the n = 8 credential;
- load: SystemParams.load plus IssuerKey.load of a curve1174 deployment's
  params.txt and issuer.key, written once at start, the step every CLI
  command pays before its own work;
- one-shot start: import edcred.cli, credential, disclosure and
  protocol, the modules a CLI command loads, then production_curve() and
  the first k*P, which decodes the entries of P's shipped table that it
  reads, in a fresh interpreter, timed inside it (the interpreter's own
  start-up excluded); twice, from a copy of the package that never holds
  bytecode: once with PYTHONDONTWRITEBYTECODE=1, so that every edcred
  module is compiled from source as in a fresh checkout, and once with
  the bytecode cached under a temporary PYTHONPYCACHEPREFIX, so that the
  difference is the CLI's compile share;
- comb break-even: the signature check at which a table for Ppub has paid
  for its build (_COMB_AT in params.py). Each run builds a table on a
  fresh copy of Ppub, then times a wNAF k*Q on another fresh copy and a
  comb k*Q on the built one, and returns build / (wNAF - comb), so that
  the three timings of one ratio are made within milliseconds of each
  other.

Every row runs once, counted by OpCounter, then --repeat timed rounds.
It prints, per package, the median and the quartiles of its rounds, in
ns per operation for the field rows, in ms for the others, and as a bare
ratio for the break-even, and the inner additions/doublings and field
inversions its counted run booked. Each row that draws rng seeds draws
them from its own counter, so the counts repeat exactly at any --repeat
and show which steps a change in time comes from. The fresh-import rows
run in a child process and so count nothing in this one; the table build
books only its 32 inversions, one per row; the load books 31/2 and one
inversion, the key file's x*P and the small-order check of Ppub.

Two SRCs load both packages in this process under different names. In
round i, A runs before B when i is even and after it when i is odd, so
that drift in the host's speed hits both alike; each row also prints the
median of the per-round ratios B/A and the number of rounds in which B
read less. Both sides get identical inputs and rng seeds. The package
needs only the standard library, and so does this script.
"""

import argparse
import importlib.util
import itertools
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
N_ATTRS = 8
REVEALED = [1, 2, 3]
N_ALL_HIDDEN = 16
_FIELD_REPS = 1000
FIELD = ("mulmod", "folded product", "inversion")
BREAK_EVEN = "comb break-even, build/(wNAF-comb)"
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
    it was loaded from; the load row's files go in workdir. A callable
    that returns a float reports that figure in place of its own time."""
    curve = pkg.production_curve()
    p, q, base = curve.p, curve.q, curve.base
    Point = pkg.Point
    rng = random.Random("bench_kernel")
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    K, c = curve._fold
    k = rng.randrange(1, q)
    q_pt = rng.randrange(1, q) * base
    batch = [rng.randrange(1, q) for _ in range(8)]
    params, key = pkg.setup(curve, random.Random("bench_kernel:setup"))
    px, py = params.p_pub.x, params.p_pub.y
    params.p_pub.precompute()
    attrs = [curve.random_nonzero(rng) for _ in range(N_ATTRS)]
    cred, _ = pkg.run_issuance(params, key, attrs, random.Random("i"), random.Random("u"))
    token = pkg.present(cred, REVEALED, params, random.Random("token"))
    data = token.to_bytes(params)
    show = pkg.make_presentation(cred, params, random.Random("show"))
    show_data = show.to_bytes(params)
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
    curve_mod = importlib.import_module(f"{pkg.__name__}.curve")
    protocol = importlib.import_module(f"{pkg.__name__}.protocol")
    # the fresh-import rows run a copy of the package, so that no bytecode
    # cache next to its source is ever read
    copy = os.path.join(workdir, "src")
    shutil.copytree(os.path.join(src, "edcred"), os.path.join(copy, "edcred"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    ratio_rng = random.Random("bench_kernel:break-even")

    def seeded(draw):
        # each protocol row counts its own rng seeds, so that its counted
        # first run draws seed 0 whatever --repeat the rows before it ran
        seeds = itertools.count()
        return lambda: draw(next(seeds))

    def issuance(i):
        return pkg.run_issuance(params, key, attrs, random.Random(i), random.Random(-i))

    def socket_issuance(i):
        user, issuer = socket.socketpair()
        server = threading.Thread(target=protocol.serve_issuance,
                                  args=(issuer, params, key, random.Random(i)))
        server.start()
        try:
            # closing the user's end first ends a failed session's issuer
            with user:
                return protocol.request_issuance(user, params, attrs, random.Random(-i))
        finally:
            server.join()
            issuer.close()

    def show_holder(i):
        return pkg.make_presentation(cred, params, random.Random(i))

    def randomized(i):
        return pkg.randomize(sig, params, random.Random(i))

    def holder(i):
        return pkg.present(cred, REVEALED, params, random.Random(i)).to_bytes(params)

    def one_shot():
        # Ppub as a CLI process has it: no comb table, no check counted
        return pkg.SystemParams(curve, Point(px, py, curve), params.k)

    def verifier(blob, session_id, deployment=lambda: params,
                 kind=DisclosureToken, verify=pkg.verify_disclosure):
        def check():
            ps = deployment()
            if not verify(kind.from_bytes(blob, ps, session_id), ps):
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

    def break_even() -> float:
        k = ratio_rng.randrange(1, q)
        table, plain = Point(px, py, curve), Point(px, py, curve)
        t0 = time.perf_counter()
        table.precompute()
        t1 = time.perf_counter()
        k * plain
        t2 = time.perf_counter()
        k * table
        t3 = time.perf_counter()
        return (t1 - t0) / ((t2 - t1) - (t3 - t2))

    return {
        "mulmod": lambda: mulmod(a, b, p),
        "folded product": lambda: folded(a, b, K, c),
        "inversion": lambda: [pow(a, -1, p) for _ in range(_FIELD_REPS)],
        "comb k*P": lambda: k * base,
        "wNAF k*Q": lambda: k * Point(q_pt.x, q_pt.y, curve),
        "batch of 8 k*P": lambda: base.multiples(batch),
        "one addition P + Q": lambda: base + q_pt,
        "blinding sum alpha*R' + beta*P": lambda: curve_mod.sum_of_multiples(
            curve, [[(r_bar, alpha), (base, beta)]], ms=2, ap=1),
        "in_prime_subgroup(Ppub)": lambda: curve_mod.in_prime_subgroup(Point(px, py, curve)),
        "comb table build": lambda: Point(q_pt.x, q_pt.y, curve).precompute(),
        "run_issuance n=8": seeded(issuance),
        "serve/request n=8, socketpair": seeded(socket_issuance),
        "make_presentation n=8": seeded(show_holder),
        "verify_presentation": verifier(show_data, show.session_id, kind=pkg.PresentationToken,
                                        verify=pkg.verify_presentation),
        "randomize": seeded(randomized),
        "present n=8": seeded(holder),
        "verify_disclosure n=8": verifier(data, token.session_id),
        "verify_disclosure n=16, all hidden": verifier(wide_data, wide_token.session_id),
        "check_equation, fresh Ppub": lambda: pkg.check_equation(sig, one_shot()),
        "verify_disclosure n=8, fresh Ppub": verifier(data, token.session_id, one_shot),
        "parse token n=8": lambda: DisclosureToken.from_bytes(data, params, token.session_id),
        "parse credential n=8": lambda: Credential.from_bytes(cred_data, params),
        "load params + issuer key": lambda: pkg.IssuerKey.load(
            key_file, pkg.SystemParams.load(params_file)),
        "fresh import, compiled": first_use(cached=False),
        "fresh import, cached bytecode": first_use(cached=True),
        BREAK_EVEN: break_even,
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


def measure(fn) -> float:
    """fn's wall time in seconds, or the float it returns: the seconds a
    fresh-import child measured, or the break-even ratio."""
    t0 = time.perf_counter()
    out = fn()
    t1 = time.perf_counter()
    return out if isinstance(out, float) else t1 - t0


def unit(name: str):
    # a field row runs _FIELD_REPS operations per call and prints in ns
    # per operation; the break-even is a ratio; everything else is in ms
    if name in FIELD:
        return "ns", 1e9 / _FIELD_REPS
    return ("", 1.0) if name == BREAK_EVEN else ("ms", 1e3)


def counted(pkg, fn) -> tuple[str, str]:
    """('adds/doublings', 'inversions') booked by one run of fn, the row's
    warm-up."""
    with pkg.OpCounter() as ops:
        fn()
    return f"{ops.inner_adds}/{ops.inner_doubles}", str(ops.inversions)


def bench(sides: list, repeat: int) -> None:
    """Print one line per row of sides[0]: for each side, the median and
    quartiles of `repeat` timed rounds and the counts of one warm-up run;
    with two sides, also the median of the ratios B/A and the rounds B
    read less. Each side is (package, rows), rows as operations() makes
    them; in round i the sides run in order when i is even, else reversed."""
    order = range(len(sides))
    paired = len(sides) == 2
    head = f"{'':34s} {'':2s}"
    for tag in ("A ", "B ") if paired else ("",):
        head += (f" {tag + 'median':>10s} {tag + 'q1':>10s} {tag + 'q3':>10s}"
                 f" {tag + 'adds/dbls':>11s} {tag + 'inv':>5s}")
    print(head + ("   B/A B won" if paired else "") + f"   ({repeat} rounds)")
    for name in sides[0][1]:
        fns = [rows[name] for _, rows in sides]
        counts = [counted(pkg, fn) for (pkg, _), fn in zip(sides, fns)]
        times = [[] for _ in sides]
        for i in range(repeat):
            for s in (order if i % 2 == 0 else reversed(order)):
                times[s].append(measure(fns[s]))
        label, scale = unit(name)
        line = f"{name:34s} {label:2s}"
        for ts, (steps, inv) in zip(times, counts):
            q1, q3 = statistics.quantiles(ts, n=4)[::2] if repeat > 1 else ts * 2
            line += (f" {scale * statistics.median(ts):10.3f} {scale * q1:10.3f}"
                     f" {scale * q3:10.3f} {steps:>11s} {inv:>5s}")
        if paired:
            ratio = statistics.median(y / x for x, y in zip(*times))
            won = sum(y < x for x, y in zip(*times))
            line += f" {ratio:5.3f} {won:>5d}"
        print(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", help="directories holding an edcred package (default: this checkout's src/)")
    ap.add_argument("--repeat", type=int, default=100, help="timed rounds per row")
    args = ap.parse_args(argv)
    if len(args.src) > 2 or args.repeat < 1:
        ap.error("give at most two SRC directories and a positive --repeat")
    srcs = args.src or [_SRC]
    pkgs = [load(src, f"edcred_bench_{i}") for i, src in enumerate(srcs)]
    with tempfile.TemporaryDirectory(prefix="bench_kernel_") as tmp:
        sides = [(pkg, operations(pkg, src, tempfile.mkdtemp(dir=tmp)))
                 for pkg, src in zip(pkgs, srcs)]
        if len(sides) == 2:
            print(f"A = {srcs[0]}\nB = {srcs[1]}")
        bench(sides, args.repeat)
    return 0


if __name__ == "__main__":
    sys.exit(main())
