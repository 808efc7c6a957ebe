"""Acceptance suite.

One test per acceptance criterion, each ending in a single printed
[PASS]/[FAIL] line (run pytest -s or -rA to see them inline). Sizes and
time budgets are part of the criteria and are asserted, not advisory.

Statistical rejection checks (hash bindings, forgery attempts) run on the
production curve: the toy group's 131-element scalar field has a 1/130
per-trial collision rate that would poison any zero-tolerance count.
"""

import itertools
import time

from edcred.cli import main as cli_main
from edcred.credential import PresentationSignature, check_equation, randomize, signature_of
from edcred.curve import Point, Scalar, hasse_holds
from edcred.disclosure import DisclosureToken, present, verify_disclosure
from edcred.harness import opcount_bench
from edcred.issuance import issuer_start, user_blind, user_unblind
from edcred.protocol import run_issuance
from edcred.schnorr import SchnorrTranscript, pk_commit, pk_respond, pk_verify

from conftest import make_rng
from oracles import (
    attempt_master_binding,
    dlp_bruteforce,
    enumerate_points,
    extract_witness,
    issuer_view_from_transcript,
    pair_blinding,
    simulate_issue,
)


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {num}: {desc}{suffix}", flush=True)
    assert ok, f"criterion {num} failed: {desc}{suffix}"


def quick_attrs(params, rng, n):
    return [params.curve.random_nonzero(rng)] + [
        params.curve.random_nonzero(rng) for _ in range(n - 1)
    ]


def issue_direct(params, key, attrs, rng):
    session, r_bar = issuer_start(key, params, rng)
    state, request = user_blind(r_bar, attrs, params, rng)
    return user_unblind(state, session.sign(request), params)


def test_criterion_01_toy_group_complete(toy):
    """Exhaustive closure and completeness over all 1048 toy points."""
    t0 = time.monotonic()
    pts = enumerate_points(toy)
    n_pts = len(pts)
    ok = n_pts == toy.cofactor * toy.q
    ok = ok and hasse_holds(n_pts, toy.p)

    p, d = toy.p, toy.d
    raw = [(pt.x, pt.y) for pt in pts]
    coords = set(raw)
    exc = 0
    closed = 0
    # independent route: affine formulas inline, inversion by a table of
    # p-2 powers, one per field element
    inv = [pow(v, p - 2, p) for v in range(p)]
    for x1, y1 in raw:
        for x2, y2 in raw:
            t = d * x1 * x2 * y1 * y2 % p
            den_x = (1 + t) % p
            den_y = (1 - t) % p
            if den_x == 0 or den_y == 0:
                exc += 1
                continue
            x3 = (x1 * y2 + y1 * x2) * inv[den_x] % p
            y3 = (y1 * y2 - x1 * x2) * inv[den_y] % p
            if (x3, y3) in coords:
                closed += 1
    total = n_pts * n_pts
    ok = ok and exc == 0 and closed == total

    # the implementation agrees with the inline route on a sample
    rng = make_rng("c1")
    for _ in range(2000):
        a, b = rng.choice(pts), rng.choice(pts)
        t = d * a.x * b.x * a.y * b.y % p
        x3 = (a.x * b.y + a.y * b.x) * inv[(1 + t) % p] % p
        y3 = (a.y * b.y - a.x * b.x) * inv[(1 - t) % p] % p
        if a + b != Point(x3, y3, toy):
            ok = False
            break

    # group laws across all points: neutral, inverse; associativity sampled
    neutral = toy.neutral()
    ok = ok and all(pt + neutral == pt for pt in pts)
    ok = ok and all((pt + -pt).is_neutral() for pt in pts)
    for _ in range(500):
        a, b, c = rng.choice(pts), rng.choice(pts), rng.choice(pts)
        if (a + b) + c != a + (b + c) or a + b != b + a:
            ok = False
            break
    dt = time.monotonic() - t0
    ok = ok and dt < 5.0
    report(1, "toy group exhaustive: closure, completeness, laws, Hasse", ok,
           f"{total} pairs, {exc} exceptional, {dt:.2f}s < 5s")


def test_criterion_02_scalar_mult_oracle(toy):
    """Multiplication against repeated addition and dlp round trips."""
    t0 = time.monotonic()
    base = toy.base

    def plain():
        # a table-less copy, fresh per multiple: a reused one would build
        # its comb table after a few multiples and stop testing the wNAF
        return Point(base.x, base.y, toy)

    ok = True

    acc = toy.neutral()
    for k in range(50):
        ok = ok and k * base == acc and k * plain() == acc
        acc = acc + base

    rng = make_rng("c2")
    for _ in range(1000):
        k = rng.randrange(0, toy.q)
        expect = toy.neutral()
        for _ in range(k):
            expect = expect + base
        if k * base != expect or k * plain() != expect:
            ok = False
            break

    hits = 0
    for _ in range(1000):
        k = rng.randrange(0, toy.q)
        if dlp_bruteforce(k * base, base) == Scalar(k, toy.q):
            hits += 1
    ok = ok and hits == 1000
    dt = time.monotonic() - t0
    ok = ok and dt < 10.0
    report(2, "scalar mult vs repeated addition, dlp round trips", ok,
           f"50 exhaustive + 1000 random + {hits}/1000 dlp, {dt:.2f}s < 10s")


def test_criterion_03_issuance_verifies(toy_deploy, prod_deploy):
    """Every issued credential satisfies the check equation."""
    t0 = time.monotonic()
    good = 0
    params, key = toy_deploy
    rng = make_rng("c3:toy")
    for i in range(1000):
        cred = issue_direct(params, key, quick_attrs(params, rng, 1 + i % 4), rng)
        if check_equation(signature_of(cred), params):
            good += 1
    params, key = prod_deploy
    rng = make_rng("c3:prod")
    for i in range(100):
        cred = issue_direct(params, key, quick_attrs(params, rng, 1 + i % 4), rng)
        if check_equation(signature_of(cred), params):
            good += 1
    dt = time.monotonic() - t0
    ok = good == 1100 and dt < 60.0
    report(3, "1000 toy + 100 production issuances all verify", ok,
           f"{good}/1100 verified, {dt:.2f}s < 60s")


def test_criterion_04_blindness_crossed_pairs(toy_deploy):
    """Any issuer view explains any issued credential: zero tolerance."""
    t0 = time.monotonic()
    params, key = toy_deploy
    views, outputs = [], []
    for i in range(100):
        rng_i, rng_u = make_rng(f"c4i:{i}"), make_rng(f"c4u:{i}")
        attrs = quick_attrs(params, rng_u, 3)
        cred, transcript = run_issuance(params, key, attrs, rng_i, rng_u)
        views.append(issuer_view_from_transcript(transcript, params))
        outputs.append(signature_of(cred))
    consistent = sum(
        1
        for view in views
        for output in outputs
        if pair_blinding(view, output, params).consistent
    )
    dt = time.monotonic() - t0
    ok = consistent == 100 * 100
    report(4, "blindness: all crossed view/output pairings consistent", ok,
           f"{consistent}/10000 pairs, {dt:.2f}s")


def test_criterion_05_simulation_without_key(prod_deploy):
    """Anyone can make verifying triples; none carries a master-secret
    binding. Production curve: binding collisions must be impossible."""
    t0 = time.monotonic()
    params, _ = prod_deploy
    rng = make_rng("c5")
    eq_good = 0
    bindings = 0
    for _ in range(1000):
        h = params.curve.random_nonzero(rng)
        r_pt, s = simulate_issue(h, params, rng)
        if check_equation(PresentationSignature(r_pt, s, h), params):
            eq_good += 1
        if attempt_master_binding(h, r_pt, params, rng):
            bindings += 1
    dt = time.monotonic() - t0
    ok = eq_good == 1000 and bindings == 0
    report(5, "1000 keyless simulations: equation 100%, master binding 0%", ok,
           f"{eq_good}/1000 verify, {bindings}/1000 bindings, {dt:.1f}s")


def test_criterion_06_randomization(toy_deploy):
    """Randomized triples verify, differ from the original, compose."""
    t0 = time.monotonic()
    params, key = toy_deploy
    rng = make_rng("c6")
    cred = issue_direct(params, key, quick_attrs(params, rng, 3), rng)
    sig = signature_of(cred)
    c = params.curve
    good = fresh_pairs = composed = 0
    for _ in range(1000):
        r1 = c.random_nonzero(rng)
        r2 = c.random_nonzero(rng)
        one = randomize(sig, params, r=r1)
        two = randomize(one, params, r=r2)
        if check_equation(one, params) and check_equation(two, params) and one.h == sig.h:
            good += 1
        if (one.r_point, one.s) != (sig.r_point, sig.s):
            fresh_pairs += 1
        if two == randomize(sig, params, r=r1 + r2):
            composed += 1
    dt = time.monotonic() - t0
    ok = good == fresh_pairs == composed == 1000
    report(6, "1000 randomizations verify, fresh, compose additively", ok,
           f"{good}/1000 verify, {fresh_pairs}/1000 fresh, {composed}/1000 compose, {dt:.1f}s")


def test_criterion_07_disclosure(toy_deploy, prod_deploy):
    """Every disclosure partition verifies; mutated tokens always die."""
    t0 = time.monotonic()
    params, key = toy_deploy
    rng = make_rng("c7")
    parts = 0
    want = 0
    for n in (4, 8):
        cred = issue_direct(params, key, quick_attrs(params, rng, n), rng)
        for k in range(n):
            for subset in itertools.combinations(range(1, n), k):
                want += 1
                token = present(cred, list(subset), params, rng)
                if verify_disclosure(token, params) and 0 in token.hidden_indices():
                    parts += 1

    # mutation sweep on the production curve, zero tolerance
    params, key = prod_deploy
    rng = make_rng("c7:prod")
    cred = issue_direct(params, key, quick_attrs(params, rng, 4), rng)
    token = present(cred, [1, 2], params, rng)
    assert verify_disclosure(token, params)
    c = params.curve
    detected = 0
    trials = 1000
    for i in range(trials):
        kind = i % 5
        d, hp, pr = dict(token.disclosed), dict(token.hidden_points), dict(token.proofs)
        sig_s, sig_h, sid = token.sig_s, token.sig_h, token.session_id
        bump = c.scalar(1 + i % (c.q - 1))
        if kind == 0:
            d[1] = d[1] + bump
        elif kind == 1:
            hp[0] = hp[0] + bump.v * c.base
        elif kind == 2:
            sig_s = sig_s + bump
        elif kind == 3:
            sig_h = sig_h + bump
        else:
            sid = bytes(16 - len(str(i))) + str(i).encode()
        mutated = DisclosureToken(
            token.sig_r, sig_s, sig_h, token.n_attrs, d, hp, pr, token.challenge, sid
        )
        if not verify_disclosure(mutated, params):
            detected += 1
    dt = time.monotonic() - t0
    ok = parts == want and detected == trials
    report(7, "all disclosure partitions verify, all mutations detected", ok,
           f"{parts}/{want} partitions, {detected}/{trials} detected, {dt:.1f}s")


def test_criterion_08_operation_counts(toy_deploy, prod_deploy):
    """Group-operation counts match the published table."""
    t0 = time.monotonic()
    ok = True
    detail = []

    params, key = prod_deploy
    rng = make_rng("c8")
    for n in (1, 5, 10, 20):
        iss, ver = opcount_bench(n, params, key, rng, repeat=2)
        if not n + 5 <= iss.measured_ms <= n + 8:
            ok = False
            detail.append(f"issuance n={n}: {iss.measured_ms} Ms outside [{n+5},{n+8}]")
        if iss.measured_ap != 2 or iss.pk_ms != 3 or iss.pk_ap != 1:
            ok = False
            detail.append(f"issuance n={n}: Ap={iss.measured_ap} pk={iss.pk_ms}/{iss.pk_ap}")
        if (ver.measured_ms, ver.measured_ap, ver.pk_ms, ver.pk_ap) != (2, 1, 2, 1):
            ok = False
            detail.append(f"verification n={n}: {ver.measured_ms} Ms {ver.measured_ap} Ap")

    # growth: one multiplication per extra attribute, checked consecutively
    tparams, tkey = toy_deploy
    ms = [opcount_bench(n, tparams, tkey, make_rng(f"c8g{n}"))[0].measured_ms
          for n in range(1, 9)]
    if [b - a for a, b in zip(ms, ms[1:])] != [1] * 7:
        ok = False
        detail.append(f"growth not 1 per attribute: {ms}")
    dt = time.monotonic() - t0
    ok = ok and dt < 30.0
    report(8, "op counts: verification 2Ms+1Ap, issuance n+5..n+8 growing by 1", ok,
           "; ".join(detail) or f"n in 1,5,10,20 and growth 1..8, {dt:.2f}s < 30s")


def test_criterion_09_schnorr_properties(toy):
    """Proof completeness, soundness, and witness extraction."""
    t0 = time.monotonic()
    rng = make_rng("c9")
    complete = sound = extracted = 0
    for _ in range(1000):
        mu = toy.random_nonzero(rng)
        stmt = mu * toy.base
        w, a = pk_commit(toy, mu, rng)
        chal = toy.random_nonzero(rng)
        if pk_verify(SchnorrTranscript(a, chal, pk_respond(mu, w, chal), stmt)):
            complete += 1

        lie = mu + toy.scalar(1 + rng.randrange(toy.q - 1))
        if lie != mu:
            bad = SchnorrTranscript(a, chal, pk_respond(lie, w, chal), stmt)
            if not pk_verify(bad):
                sound += 1

        c2 = Scalar((chal.v % (toy.q - 1)) + 1, toy.q)  # differs from chal
        t1 = SchnorrTranscript(a, chal, pk_respond(mu, w, chal), stmt)
        t2 = SchnorrTranscript(a, c2, pk_respond(mu, w, c2), stmt)
        if extract_witness(t1, t2) == mu:
            extracted += 1
    dt = time.monotonic() - t0
    ok = complete == 1000 and sound == 1000 and extracted == 1000
    report(9, "Schnorr: 1000 complete, 1000 sound, 1000 exact extractions", ok,
           f"{complete}/{sound}/{extracted} of 1000 each, {dt:.1f}s")


def test_criterion_10_determinism(tmp_path):
    """Two seeded CLI runs produce byte-identical artifacts."""
    t0 = time.monotonic()

    def full_run(root):
        root.mkdir()
        deploy = root / "deploy"
        attrs = root / "attrs.txt"
        attrs.write_text("master\nage:30\ncountry:FR\n")
        outs = {}
        assert cli_main(["setup", "--curve", "toy", "--out", str(deploy), "--seed", "77"]) == 0
        assert cli_main(["issue", "--params", str(deploy), "--attrs", str(attrs),
                         "--out", str(root / "cred.bin"), "--seed", "78",
                         "--transcript", str(root / "t.bin")]) == 0
        assert cli_main(["randomize", "--params", str(deploy), "--cred", str(root / "cred.bin"),
                         "--out", str(root / "p.tok"), "--seed", "79"]) == 0
        assert cli_main(["present", "--params", str(deploy), "--cred", str(root / "cred.bin"),
                         "--disclose", "2", "--out", str(root / "d.tok"), "--seed", "80"]) == 0
        for name in ("deploy/params.txt", "deploy/issuer.key", "deploy/user.key",
                     "cred.bin", "t.bin", "p.tok", "d.tok"):
            outs[name] = (root / name).read_bytes()
        return outs

    first = full_run(tmp_path / "one")
    second = full_run(tmp_path / "two")
    same = [name for name in first if first[name] == second[name]]
    dt = time.monotonic() - t0
    ok = len(same) == len(first) == 7
    report(10, "seeded CLI runs are byte-identical", ok,
           f"{len(same)}/{len(first)} artifacts identical, {dt:.2f}s")
