"""Group arithmetic against independent oracles.

The oracle for addition re-derives the affine formulas inline with separate
exponentiation-based inversions, sharing no code with Point.__add__. The
oracle for scalar multiplication is plain repeated addition.
"""

import random
import sys
import threading

import pytest

from edcred import curve as curve_mod
from edcred.curve import (
    _COMB_AT,
    CurveParams,
    OpCounter,
    Point,
    Scalar,
    curve_by_name,
    hasse_holds,
    in_prime_subgroup,
    inv_mod,
    is_probable_prime,
    parse_kv,
    production_curve,
    toy_curve,
)
from edcred.errors import RngError

from conftest import make_rng
from oracles import dlp_bruteforce, enumerate_points


def oracle_add(c, a, b):
    """Textbook affine addition, inversions by exponentiation."""
    p = c.p
    t = c.d * a.x * b.x * a.y * b.y % p
    x = (a.x * b.y + a.y * b.x) * pow(1 + t, p - 2, p) % p
    y = (a.y * b.y - a.x * b.x) * pow(1 - t, p - 2, p) % p
    return Point(x, y, c)


def oracle_mul(k, pt):
    acc = pt.curve.neutral()
    for _ in range(k):
        acc = acc + pt
    return acc


# -- primitives --------------------------------------------------------------

def test_inv_mod_agrees_with_exponentiation_route(toy, prod):
    rng = make_rng("invmod")
    for p in (toy.p, prod.p, toy.q, prod.q):
        for _ in range(50):
            a = rng.randrange(1, p)
            assert inv_mod(a, p) == pow(a, p - 2, p)
            assert a * inv_mod(a, p) % p == 1


def test_inv_mod_rejects_zero(toy):
    with pytest.raises(ValueError):
        inv_mod(0, toy.p)


def test_probable_prime():
    assert is_probable_prime(2)
    assert is_probable_prime(131)
    assert is_probable_prime(1009)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(1008)
    prod = production_curve()
    assert is_probable_prime(prod.p)
    assert is_probable_prime(prod.q)


# -- fixture curves ----------------------------------------------------------

def test_toy_constants(toy):
    assert toy.p == 1009 and toy.q == 131 and toy.cofactor == 8
    assert is_probable_prime(toy.p) and is_probable_prime(toy.q)
    # d must be a non-residue, otherwise the addition law has poles
    assert pow(toy.d, (toy.p - 1) // 2, toy.p) == toy.p - 1
    assert toy.base.on_curve()
    assert in_prime_subgroup(toy.base)
    assert not toy.base.is_neutral()
    # q prime and base nonneutral pins the order to exactly q
    assert oracle_mul(toy.q, toy.base).is_neutral()


def test_production_constants(prod):
    assert prod.p == 2**251 - 9
    assert prod.cofactor == 4
    assert pow(prod.d % prod.p, (prod.p - 1) // 2, prod.p) == prod.p - 1
    assert prod.base.on_curve()
    assert in_prime_subgroup(prod.base)


def test_hasse_window(toy, prod):
    assert hasse_holds(toy.cofactor * toy.q, toy.p)
    assert hasse_holds(prod.cofactor * prod.q, prod.p)
    assert not hasse_holds(2 * 1009, 1009)


def test_curve_by_name_aliases(toy, prod):
    assert curve_by_name("toy") == toy
    assert curve_by_name("toy1009") == toy
    assert curve_by_name("prod") == prod
    assert curve_by_name("curve1174") == prod
    with pytest.raises(ValueError):
        curve_by_name("p256")


# -- group structure ---------------------------------------------------------

def test_special_points(toy):
    neutral = toy.neutral()
    assert neutral == Point(0, 1, toy)
    two = Point(0, toy.p - 1, toy)  # order 2
    assert two.on_curve()
    assert two + two == neutral
    four = Point(1, 0, toy)  # order 4
    assert four.on_curve()
    assert four + four == two
    assert oracle_mul(4, four) == neutral


def test_group_laws_sampled(toy):
    rng = make_rng("laws")
    pts = enumerate_points(toy)
    for _ in range(300):
        a, b, c = (rng.choice(pts) for _ in range(3))
        assert a + b == b + a == oracle_add(toy, a, b)
        assert (a + b) + c == a + (b + c)
        assert a + toy.neutral() == a
        assert a + (-a) == toy.neutral()
        assert 2 * Point(a.x, a.y, toy) == a + a


def test_completeness_no_exceptional_denominators(toy):
    # d non-square means 1 +- d*x1*x2*y1*y2 is never 0; spot check the
    # structured pairs where incomplete laws usually break
    specials = [toy.neutral(), Point(0, toy.p - 1, toy), Point(1, 0, toy),
                Point(toy.p - 1, 0, toy), toy.base, -toy.base]
    for a in specials:
        for b in specials:
            t = toy.d * a.x * b.x * a.y * b.y % toy.p
            assert (1 + t) % toy.p != 0 and (1 - t) % toy.p != 0
            assert (a + b).on_curve()


def test_enumerate_points_full_group(toy):
    pts = enumerate_points(toy)
    assert len(pts) == toy.cofactor * toy.q == 1048
    assert len(set(pts)) == len(pts)
    assert all(pt.on_curve() for pt in pts)


def test_enumerate_points_refuses_large_prime(prod):
    with pytest.raises(ValueError):
        enumerate_points(prod)


# -- scalar multiplication ---------------------------------------------------

def test_scalar_mul_small_k_oracle(toy):
    base = toy.base
    for k in range(50):
        assert k * base == oracle_mul(k, base)


def test_scalar_mul_random_k_both_paths(toy):
    rng = make_rng("mulpaths")
    assert isinstance(toy.base._table, list)
    for _ in range(100):
        k = rng.randrange(0, toy.q)
        # a fresh copy per multiple: a reused one would build its table
        # at its _COMB_AT-th multiple and leave the wNAF untested
        plain = Point(toy.base.x, toy.base.y, toy)
        expect = oracle_mul(k, plain)
        assert k * plain == expect and plain._table == 1  # a count, not a table
        assert k * toy.base == expect


def test_scalar_mul_wraps_mod_q(toy):
    rng = make_rng("wrap")
    for _ in range(20):
        k = rng.randrange(0, 10 * toy.q)
        assert k * toy.base == (k % toy.q) * toy.base
    assert 0 * toy.base == toy.neutral()
    assert toy.q * toy.base == toy.neutral()


def test_in_prime_subgroup_sees_through_reduction(toy):
    low = Point(0, toy.p - 1, toy)  # order 2, outside the q-subgroup
    assert (toy.q * low).is_neutral()  # the reduced product lies
    assert not in_prime_subgroup(low)
    assert in_prime_subgroup(toy.base)
    assert in_prime_subgroup(toy.neutral())


def test_scalar_mul_production_spot(prod):
    rng = make_rng("prodmul")
    k = rng.randrange(1, prod.q)
    l = rng.randrange(1, prod.q)
    a = k * prod.base
    b = l * prod.base
    assert (k + l) * prod.base == a + b
    assert a.on_curve() and b.on_curve()


def test_dlp_bruteforce_roundtrip(toy):
    rng = make_rng("dlp")
    for _ in range(10):
        k = rng.randrange(0, toy.q)
        assert dlp_bruteforce(k * toy.base, toy.base) == Scalar(k, toy.q)


# -- extended-coordinate paths -----------------------------------------------

def affine_mul(k, pt):
    """Left-to-right double-and-add with the textbook affine law."""
    c = pt.curve
    if k == 0:
        return c.neutral()
    acc = pt
    for bit in bin(k)[3:]:
        acc = oracle_add(c, acc, acc)
        if bit == "1":
            acc = oracle_add(c, acc, pt)
    return acc


def test_plain_mul_every_toy_point(toy):
    # all 1048 points, torsion parts included: Point.decode accepts them
    rng = make_rng("everypoint")
    for pt in enumerate_points(toy):
        k = rng.randrange(0, toy.q)
        assert k * pt == oracle_mul(k, pt)


def test_ladder_mul_non_base_toy_points(toy):
    rng = make_rng("ladderpoints")
    pts = enumerate_points(toy)
    chosen = [Point(1, 0, toy), Point(0, toy.p - 1, toy), toy.neutral()]
    chosen += [rng.choice(pts) for _ in range(4)]
    for pt in chosen:
        lad = Point(pt.x, pt.y, toy).precompute()
        for k in range(toy.q):
            assert k * lad == oracle_mul(k, pt)


def test_production_edge_scalars_both_paths(prod):
    rng = make_rng("edgescalars")
    q = prod.q
    scalars = [1, 2, q - 1, 2**248 % q, (2**249 - 1) % q]
    # radix-16 recodings: every hex digit 8, which stays 8; every hex digit
    # 9, which carries; 0x88...89, all signed digits -7 with a carry;
    # 2^248 - 1, whose carry runs into the top digit
    scalars += [int("8" * 62, 16), int("9" * 62, 16), int("8" * 61 + "9", 16), 2**248 - 1]
    # radix-64 comb recodings: every digit 32, which stays 32 (the last
    # entry of every row); every digit 33, which carries at each digit;
    # 32...33, all signed digits -31 with the carry into the top digit;
    # 2^246 - 1, whose -1 starts a carry chain through 40 zero digits
    all32 = sum(32 << (6 * i) for i in range(41))
    scalars += [all32, sum(33 << (6 * i) for i in range(41)), all32 + 1, 2**246 - 1]
    # wNAF recoding: alternating bit patterns
    scalars += [int("5" * 63, 16) % q, int("A" * 63, 16) % q]
    scalars += [rng.randrange(1, q) for _ in range(3)]
    other = rng.randrange(1, q) * prod.base
    for base in (prod.base, other):
        ladder = Point(base.x, base.y, prod).precompute()
        for k in scalars:
            expect = affine_mul(k, base)
            # fresh per multiple, so that every one runs on the wNAF
            plain = Point(base.x, base.y, prod)
            assert k * plain == expect and plain._table == 1  # a count, not a table
            assert k * ladder == expect


def test_table_entries_are_comb_multiples(toy, prod):
    # row j holds m * 2^(18j) * B for m = 1..32, enough rows for the
    # b // 6 + 1 radix-64 digits of a b-bit scalar, three digits per row
    for c, rows in ((toy, 1), (prod, 14)):
        p, d = c.p, c.d
        table = c.base.precompute()._table
        assert len(table) == rows == -(-(c.q.bit_length() // 6 + 1) // 3)
        row_base = c.base
        for row in table:
            assert len(row) == 32
            cur = row_base
            for entry in row:
                assert entry == (cur.x, cur.y, (cur.x + cur.y) % p, d * cur.x * cur.y % p)
                cur = oracle_add(c, cur, row_base)
            for _ in range(18):
                row_base = oracle_add(c, row_base, row_base)


def test_shipped_comb_table_is_a_fresh_build(prod):
    fresh = Point(prod.base.x, prod.base.y, prod).precompute()._table
    assert prod.base._table == fresh
    data = curve_mod._read_data("curve1174_comb.bin")
    assert len(data) == 448 * 64
    assert curve_mod._curve1174_comb(prod, data) == fresh
    flipped = bytearray(data)
    flipped[1000] ^= 0x01
    with pytest.raises(ValueError, match="pinned hash"):
        curve_mod._curve1174_comb(prod, bytes(flipped))


def test_table_built_at_the_nth_multiple(prod):
    rng = make_rng("combat")
    base = rng.randrange(1, prod.q) * prod.base
    pt = Point(base.x, base.y, prod)
    fresh = Point(base.x, base.y, prod).precompute()._table
    for i in range(1, _COMB_AT + 3):
        k = rng.randrange(1, prod.q)
        with OpCounter() as ops:
            got = k * pt
        assert got == affine_mul(k, base)
        # wNAF up to the (N-1)th multiple, the comb from the Nth on
        assert pt._table == (fresh if i >= _COMB_AT else i)
        assert (ops.inner_doubles == 12) == (i >= _COMB_AT)


def test_table_built_under_threads(toy):
    # threads share one table-less point: a race may delay the build or
    # cost a rebuild, but every result stays exact
    pt = Point(toy.base.x, toy.base.y, toy)
    ks = list(range(1, toy.q))
    results = {}

    def work(t):
        for k in ks[t::4]:
            results[k] = k * pt

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert isinstance(pt._table, list)
    assert all(results[k] == k * toy.base for k in ks)


# -- Scalar ------------------------------------------------------------------

def test_scalar_field_arithmetic(toy):
    q = toy.q
    a, b = Scalar(100, q), Scalar(77, q)
    assert a + b == Scalar(177 % q, q)
    assert a - b == Scalar(23, q)
    assert a * b == Scalar(100 * 77 % q, q)
    assert -a == Scalar(q - 100, q)
    assert a + 31 == Scalar(0, q)
    assert 5 - b == Scalar((5 - 77) % q, q)
    assert int(a) == 100
    assert bool(a) and not bool(Scalar(0, q))


def test_scalar_inverse(toy):
    rng = make_rng("inv")
    for _ in range(50):
        a = Scalar(rng.randrange(1, toy.q), toy.q)
        assert a * a.inverse() == Scalar(1, toy.q)
    with pytest.raises(ValueError):
        Scalar(0, toy.q).inverse()


def test_scalar_mixed_groups_rejected(toy, prod):
    with pytest.raises(ValueError):
        Scalar(1, toy.q) + Scalar(1, prod.q)


def test_scalar_bytes_roundtrip(toy):
    a = Scalar(130, toy.q)
    assert Scalar.from_bytes(a.to_bytes(2), toy.q) == a
    with pytest.raises(ValueError):
        Scalar.from_bytes(toy.q.to_bytes(2, "big"), toy.q)


# -- Point encoding ----------------------------------------------------------

def test_point_encode_decode(toy, prod):
    for c in (toy, prod):
        pt = 7 * c.base
        assert len(pt.encode()) == 2 * c.coord_bytes
        assert Point.decode(pt.encode(), c) == pt


def test_point_decode_rejects_off_curve(toy):
    bad = Point(2, 3, toy)
    assert not bad.on_curve()
    with pytest.raises(ValueError):
        Point.decode(bad.encode(), toy)
    with pytest.raises(ValueError):
        Point.decode(b"\x00", toy)


def test_cross_curve_addition_rejected(toy, prod):
    with pytest.raises(ValueError):
        toy.base + prod.base


# -- operation counting ------------------------------------------------------

def test_opcounter_basic(toy):
    with OpCounter() as ops:
        _ = 5 * toy.base
        _ = toy.base + toy.base
    assert ops.scalar_mults == 1
    assert ops.point_adds == 1


def test_opcounter_internal_steps_do_not_leak(toy):
    plain = Point(toy.base.x, toy.base.y, toy)
    for pt in (toy.base, plain):  # comb table, then wNAF
        with OpCounter() as ops:
            _ = 100 * pt
        assert ops.scalar_mults == 1
        assert ops.point_adds == 0
        assert ops.inner_adds > 0 and ops.inner_doubles > 0


def test_opcounter_inner_steps_for_q_minus_1(prod):
    # q - 1 = 2^249 - c with c < 2^124, so its top bits are ones, which
    # recode to zero digits and one carry.
    # Comb: the 42 radix-64 digits are nonzero at 0..20 and at the top,
    # 41, which the carry through the zero digits 21..40 takes from 7 to
    # 8; 22 entries, the first loaded rather than added, and 6 doublings
    # before each of the levels 1 and 0.
    k = prod.q - 1
    with OpCounter() as ops:
        _ = k * prod.base
    assert (ops.inner_adds, ops.inner_doubles) == (21, 12)
    # wNAF: 250 digits, 27 nonzero: 249 doublings and 26 additions after
    # the top digit, plus one doubling and three additions for 3Q, 5Q, 7Q.
    plain = Point(prod.base.x, prod.base.y, prod)
    with OpCounter() as ops:
        _ = k * plain
    assert (ops.inner_adds, ops.inner_doubles) == (29, 250)


def test_mul_wnaf_terms_share_one_chain(toy, prod):
    # one term: the counts above, now from the joint routine directly
    k = prod.q - 1
    _, _, _, dbls, adds = curve_mod._mul_wnaf(prod.p, prod.d, [(prod.base.x, prod.base.y, k)])
    assert (adds, dbls) == (29, 250)
    toy_pts = enumerate_points(toy)
    for c in (toy, prod):
        rng = make_rng(f"straus:{c.name}")
        for n in (1, 2, 3, 6):
            pts = [rng.choice(toy_pts) if c is toy else rng.randrange(1, c.q) * c.base
                   for _ in range(n)]
            ks = [rng.choice([1, 2, 3, 5, rng.randrange(1, c.q)]) for _ in range(n)]
            X, Y, Z, dbls, adds = curve_mod._mul_wnaf(
                c.p, c.d, [(pt.x, pt.y, k) for pt, k in zip(pts, ks)])
            expect = c.neutral()
            for pt, k in zip(pts, ks):
                expect = expect + affine_mul(k, pt)
            zi = pow(Z, -1, c.p)
            assert Point(X * zi % c.p, Y * zi % c.p, c) == expect
            # one chain from the top digit of the longest NAF, plus one
            # doubling for each term with a 3Q
            top = max(curve_mod._wnaf(k)[-1][0] for k in ks)
            assert dbls == top + sum(k >= 3 for k in ks)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_cofactored_equal_accepts_exactly_torsion(name, request):
    """sum k_i*Q_i == D: true exactly when [cofactor]*D is neutral, with no
    inversion and the booked counts, on combs and on the chain alike."""
    c = request.getfixturevalue(name)
    rng = make_rng(f"cofactored:{name}")
    torsion = [c.neutral(), Point(0, c.p - 1, c), Point(1, 0, c), Point(c.p - 1, 0, c)]
    if c.cofactor == 8:
        torsion += [pt for pt in enumerate_points(c) if (8 * pt).is_neutral()
                    and not (4 * pt).is_neutral()][:2]
    prime = rng.randrange(1, c.q) * c.base
    # a second base with a comb table, as a public key has once it built one
    key = (rng.randrange(1, c.q) * c.base).precompute()
    for d in torsion + [prime, prime + torsion[1], prime + torsion[2]]:
        k = rng.randrange(1, c.q)
        terms = [(c.base, k), (key, rng.randrange(1, c.q))]
        terms += [(rng.randrange(1, c.q) * c.base + torsion[rng.randrange(4)], rng.randrange(1, c.q))
                  for _ in range(3)]
        terms.append((c.base, rng.randrange(1, c.q)))  # summed with P's first term
        rest = -d
        for pt, ki in terms:
            rest = rest + ki * pt
        terms.append((rest, -1))  # now sum k_i*Q_i == d exactly
        with OpCounter() as ops:
            got = curve_mod.cofactored_equal(c, terms, ms=7, ap=3)
        assert got == (c.cofactor * d).is_neutral() == (d in torsion), d
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (7, 3, 0)
        # on a curve whose points have no table, every term joins the chain
        plain = curve_mod.CurveParams(c.name, c.p, c.d, c.base.x, c.base.y, c.q, c.cofactor)
        moved = [(Point(pt.x, pt.y, plain), ki) for pt, ki in terms]
        assert type(plain.base._table) is int
        assert curve_mod.cofactored_equal(plain, moved, ms=0, ap=0) == got
    assert curve_mod.cofactored_equal(c, [(c.base, 5), (5 * c.base, -1), (c.base, 0)], ms=0, ap=0)
    assert curve_mod.cofactored_equal(c, [(c.base, 0), (c.base, 1 - c.q), (c.base, -1)], ms=0, ap=0)
    assert curve_mod.cofactored_equal(c, [(key, 2), (2 * key, c.q - 1)], ms=0, ap=0)
    assert curve_mod.cofactored_equal(c, [(c.base, 3), (key, 1), (3 * c.base + key, -1)], ms=0, ap=0)
    assert not curve_mod.cofactored_equal(c, [(c.base, 1)], ms=0, ap=0)
    assert not curve_mod.cofactored_equal(c, [(key, 1), (c.base, 1)], ms=0, ap=0)


def test_opcounter_one_inversion_per_operation(toy, prod):
    # one per operation, except that the multiple at which a point builds
    # its comb table books the build's inversion too (the last case)
    for c in (toy, prod):
        k = c.q - 2
        plain = Point(c.base.x, c.base.y, c)
        for pt in (c.base, plain):
            with OpCounter() as ops:
                _ = k * pt
            assert ops.inversions == 1 and ops.scalar_mults == 1
        with OpCounter() as ops:
            _ = 0 * c.base
        assert ops.inversions == 0
        with OpCounter() as ops:
            plain.precompute()
            plain.precompute()  # cached: no second build
        assert ops.inversions == 1 and ops.scalar_mults == 0
        with OpCounter() as ops:
            _ = c.base + plain
        assert ops.inversions == 1 and ops.point_adds == 1
        assert ops.as_dict()["inversions"] == 1
        fresh = Point(c.base.x, c.base.y, c)
        for i in range(1, _COMB_AT + 1):
            with OpCounter() as ops:
                _ = k * fresh
            assert ops.inversions == (2 if i == _COMB_AT else 1)


def test_opcounter_nesting_redirects(toy):
    with OpCounter() as outer:
        _ = 3 * toy.base
        with OpCounter() as inner:
            _ = 4 * toy.base
            _ = 5 * toy.base
        _ = toy.base + toy.base
    assert outer.scalar_mults == 1 and outer.point_adds == 1
    assert inner.scalar_mults == 2 and inner.point_adds == 0


def test_opcounter_uninstalled_counts_nothing(toy):
    ops = OpCounter()
    _ = 9 * toy.base
    assert ops.scalar_mults == 0
    assert ops.as_dict()["scalar_mults"] == 0


# -- randomness and files ----------------------------------------------------

def test_random_nonzero_range(toy):
    rng = make_rng("draw")
    for _ in range(200):
        v = toy.random_nonzero(rng)
        assert 1 <= v.v < toy.q


def test_random_nonzero_broken_source():
    class Zeros:
        def randrange(self, *a):
            return 0

    with pytest.raises(RngError):
        toy_curve().random_nonzero(Zeros())


def test_curve_file_roundtrip(toy):
    again = CurveParams.parse_file(toy.format_file())
    assert again == toy and again is not toy
    assert again.base == toy.base


def test_parsed_curve1174_is_the_builtin_one(prod):
    assert CurveParams.parse_file(prod.format_file()) is prod
    with OpCounter() as ops:
        _ = (prod.q - 2) * CurveParams.parse_file(prod.format_file()).base
    assert ops.inner_doubles == 12  # the comb, not ~250 wNAF doublings
    # the name is in every params digest, so another name is another curve
    renamed = CurveParams.parse_file(prod.format_file().replace("name=curve1174", "name=c1174"))
    assert renamed == prod and renamed is not prod and renamed.base._table == 0


def test_parse_kv_strictness():
    assert parse_kv("a=1\n# note\nb=2\n")["b"] == "2"
    with pytest.raises(ValueError):
        parse_kv("a=1\na=2\n")  # duplicate
    with pytest.raises(ValueError):
        parse_kv("a=1\njunk line\n")
    with pytest.raises(ValueError):
        parse_kv("a=1\n", required=("a", "b"))
