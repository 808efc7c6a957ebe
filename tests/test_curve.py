"""Group arithmetic against independent oracles.

The oracle for addition re-derives the affine formulas inline with separate
exponentiation-based inversions, sharing no code with Point.__add__. The
oracle for scalar multiplication is plain repeated addition.
"""

import os
import sys
import threading

import pytest

import edcred
from edcred import curve as curve_mod
from edcred.curve import (
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
from edcred.errors import RngError, WireError
from edcred.params import _COMB_AT

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
    assert curve_by_name("prod") == prod
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
    # a copy of P: no table, however many multiples it takes
    plain = Point(toy.base.x, toy.base.y, toy)
    for _ in range(100):
        k = rng.randrange(0, toy.q)
        expect = oracle_mul(k, plain)
        assert k * plain == expect
        assert k * toy.base == expect
    assert plain._table is None


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
    # ordinary scalars at radix 256, kept as more inputs: the edge digits
    # of radix-16 and radix-64 recodings (every hex digit 8 or 9,
    # 0x88...89, 2^248 - 1; every base-64 digit 32 or 33, 32...33, 2^246 - 1)
    scalars += [int("8" * 62, 16), int("9" * 62, 16), int("8" * 61 + "9", 16), 2**248 - 1]
    all32 = sum(32 << (6 * i) for i in range(41))
    scalars += [all32, sum(33 << (6 * i) for i in range(41)), all32 + 1, 2**246 - 1]
    # radix-256 comb recodings: every digit 128, which stays 128 (the last
    # entry of every row); every digit 129, which carries at each digit;
    # 128...129, all signed digits -127 with the carry into the top digit;
    # 2^240 - 1, whose -1 starts a carry chain through 29 zero digits
    all128 = sum(128 << (8 * i) for i in range(31))
    comb_edges = [all128, sum(129 << (8 * i) for i in range(31)), all128 + 1, 2**240 - 1]
    assert all(k < q for k in comb_edges)
    scalars += comb_edges
    # wNAF recoding: alternating bit patterns
    scalars += [int("5" * 63, 16) % q, int("A" * 63, 16) % q]
    scalars += [rng.randrange(1, q) for _ in range(3)]
    other = rng.randrange(1, q) * prod.base
    for base in (prod.base, other):
        ladder = Point(base.x, base.y, prod).precompute()
        plain = Point(base.x, base.y, prod)
        for k in scalars:
            expect = affine_mul(k, base)
            assert k * plain == expect
            with OpCounter() as ops:
                assert k * ladder == expect
            assert ops.inner_doubles == 0
        assert plain._table is None  # every multiple on the wNAF


def comb_rows(c):
    """The rows of a comb table on c: one per radix-256 digit of a scalar
    below q."""
    return c.q.bit_length() // curve_mod._W + 1


def on_comb(ops, c):
    """The inner steps of one multiple on a comb: no doubling and at most
    one addition per row, where a wNAF multiple doubles about once per bit."""
    return ops.inner_doubles == 0 and ops.inner_adds < comb_rows(c)


def fresh_curve1174():
    """curve1174 with P's table loaded anew from the shipped file, so that
    no entry has been decoded yet."""
    c = CurveParams(**curve_mod._CURVE1174)
    c.base._table = curve_mod._curve1174_comb(c, curve_mod._read_data("curve1174_comb.bin"))
    return c


def assert_comb_multiples(c, table):
    """Row j of table maps m to (x, y, d*x*y) of m * 2^(8j) * B for
    m = 1..128, and holds no other key, checked by the affine oracle."""
    p, d = c.p, c.d
    row_base = c.base
    for row in table:
        cur = row_base
        for m in range(1, 129):
            assert row[m] == (cur.x, cur.y, d * cur.x * cur.y % p)
            cur = oracle_add(c, cur, row_base)
        assert sorted(row) == list(range(1, 129))
        for _ in range(8):
            row_base = oracle_add(c, row_base, row_base)


def test_table_entries_are_comb_multiples(toy, prod):
    # one row for each of the b // 8 + 1 radix-256 digits of a b-bit
    # scalar; on curve1174 the rows are the shipped ones
    for c, rows in ((toy, 2), (prod, 32)):
        table = c.base.precompute()._table
        assert len(table) == rows == comb_rows(c)
        assert_comb_multiples(c, table)


def test_shipped_comb_table_is_a_fresh_build(prod):
    fresh = Point(prod.base.x, prod.base.y, prod).precompute()._table
    assert all(type(row) is dict for row in fresh)
    data = curve_mod._read_data("curve1174_comb.bin")
    assert len(data) == 32 * 128 * 64 == 262144
    # the loaded singleton's table and one decoded from nothing, entry by
    # entry through each row's decoding, then as a whole: every digit is
    # decoded and a row holds no other key
    for table in (prod.base._table, fresh_curve1174().base._table):
        assert len(table) == len(fresh)
        for row, fresh_row in zip(table, fresh):
            assert type(row) is curve_mod._ShippedRow
            for m in range(128, 0, -1):
                assert row[m] == fresh_row[m]
            assert row == fresh_row
            for m in (0, 129, -1, "1"):
                with pytest.raises(KeyError):
                    row[m]
    for at in (0, 1000, len(data) - 1):
        flipped = bytearray(data)
        flipped[at] ^= 0x01
        with pytest.raises(ValueError, match="pinned hash"):
            curve_mod._curve1174_comb(prod, bytes(flipped))


def test_radix_256_comb_build_and_multiples(toy, prod):
    """A table built afresh: 32 rows of 128 entries on curve1174, 2 on the
    toy curve, each entry (x, y, d*x*y) of m * 2^(8j) * B, at one inversion
    per row; and its multiples are the wNAF's, for every k in [0, q) on the
    toy curve and for edge and seeded k on curve1174."""
    for c, rows in ((toy, 2), (prod, 32)):
        with OpCounter() as ops:
            comb = Point(c.base.x, c.base.y, c).precompute()
        assert len(comb._table) == rows == ops.inversions
        assert ops.as_dict() == dict(scalar_mults=0, point_adds=0, inner_adds=0,
                                     inner_doubles=0, inversions=rows)
        assert_comb_multiples(c, comb._table)
    # toy: q = 131 < 2^8, so k above 128 recodes to a negative digit and a
    # carry of one into the top row
    assert toy.q == 131
    ks = list(range(toy.q))
    plain = Point(toy.base.x, toy.base.y, toy)
    comb = Point(toy.base.x, toy.base.y, toy).precompute()
    assert comb.multiples(ks) == [k * plain for k in ks]
    assert plain._table is None  # each on the wNAF
    # curve1174: 2^248 is one digit, in the top row; q - 1 carries into it
    # through 15 zero digits; every digit 128 stays 128, every digit 129
    # recodes to a negative digit and a carry, and 2^248 - 1 to -1 with a
    # carry through every row
    rng = make_rng("radix256")
    q = prod.q
    comb = Point(prod.base.x, prod.base.y, prod).precompute()
    plain = Point(prod.base.x, prod.base.y, prod)
    ks = [1, 2**248, q - 1, sum(128 << (8 * i) for i in range(31)),
          sum(129 << (8 * i) for i in range(31)), 2**248 - 1]
    ks += [rng.randrange(1, q) for _ in range(8)]
    for k in ks:
        with OpCounter() as ops:
            got = k * comb
        assert got == k * plain and plain._table is None
        assert ops.inner_adds == sum(map(bool, signed_digits(k, 32))) - 1
        assert on_comb(ops, prod)


def test_first_multiple_decodes_one_entry_per_row(prod):
    # loading decodes nothing; a multiple decodes the entry of each
    # nonzero digit, at most one per row, and the next multiple reuses it
    rng = make_rng("lazyrows")
    c = fresh_curve1174()
    table = c.base._table
    assert all(len(row) == 0 for row in table)
    k = rng.randrange(1, c.q)
    with OpCounter() as ops:
        got = k * c.base
    assert got == k * prod.base
    assert all(len(row) <= 1 for row in table)
    assert sum(len(row) for row in table) == ops.inner_adds + 1
    assert on_comb(ops, c)
    decoded = [dict(row) for row in table]
    assert k * c.base == got
    assert [dict(row) for row in table] == decoded


def test_no_table_without_precompute(toy, prod):
    # a point other than P, and P of a curve object that is not a built-in
    # curve, take the wNAF path on every multiple, past the check count at
    # which Ppub builds its table
    for c in (toy, prod):
        rng = make_rng(f"notable:{c.name}")
        a = rng.randrange(2, c.q)
        copy = CurveParams(c.name, c.p, c.d, c.base.x, c.base.y, c.q, c.cofactor)
        for pt, m in ((a * c.base, a), (copy.base, 1)):
            for _ in range(_COMB_AT + 2):
                k = rng.randrange(2, c.q)
                with OpCounter() as ops:
                    got = k * pt
                assert got == (k * m) * c.base
                assert not on_comb(ops, c)
            assert pt._table is None


def test_shipped_rows_decoded_under_threads(prod):
    # threads share one freshly loaded table: two that miss the same digit
    # both decode it, and every result and every stored entry stays exact
    c = fresh_curve1174()
    rng = make_rng("lazythreads")
    ks = [rng.randrange(1, c.q) for _ in range(24)]
    results = {}

    def work(t):
        for k in ks[t::6]:
            results[k] = k * c.base

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert all(results[k] == k * prod.base for k in ks)
    fresh = Point(prod.base.x, prod.base.y, prod).precompute()._table
    for row, fresh_row in zip(c.base._table, fresh):
        assert all(entry == fresh_row[m] for m, entry in row.items())


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
    w = toy.coord_bytes
    with pytest.raises(WireError, match="not on curve"):
        Point.decode((2).to_bytes(w, "big") + (3).to_bytes(w, "big"), toy)
    with pytest.raises(ValueError):
        Point.decode(b"\x00", toy)


def test_point_constructor_refuses_off_curve(toy, prod):
    with pytest.raises(ValueError, match="not on curve"):
        Point(2, 3, toy)
    for c in (toy, prod):
        pt = 5 * c.base
        w = c.coord_bytes
        for x, y in ((pt.x + c.p, pt.y), (pt.x, pt.y + c.p), (pt.x - c.p, pt.y)):
            with pytest.raises(ValueError, match="not on curve"):
                Point(x, y, c)
            if x >= 0:
                with pytest.raises(WireError, match="not on curve"):
                    Point.decode(x.to_bytes(w, "big") + y.to_bytes(w, "big"), c)
        assert Point(pt.x, pt.y, c) == pt


def test_on_curve_policy_lives_in_curve_module():
    # Point's constructor is the one check; no other module re-checks
    pkg = os.path.dirname(edcred.__file__)
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != "curve.py":
            with open(os.path.join(pkg, name)) as fh:
                assert ".on_curve(" not in fh.read(), name


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
    # 130 = -126 + 256: two comb entries, one added to the other; the
    # wNAF doubles and adds
    plain = Point(toy.base.x, toy.base.y, toy)
    for pt, comb in ((toy.base, True), (plain, False)):
        with OpCounter() as ops:
            _ = 130 * pt
        assert ops.scalar_mults == 1
        assert ops.point_adds == 0
        if comb:
            assert (ops.inner_adds, ops.inner_doubles) == (1, 0)
        else:
            assert ops.inner_adds > 0 and ops.inner_doubles > 0


def test_opcounter_inner_steps_for_q_minus_1(prod):
    # q - 1 = 2^249 - c with c < 2^124, so its top bits are ones, which
    # recode to zero digits and one carry.
    # Comb: the 32 radix-256 digits are nonzero at 0..15 and at the top,
    # 31, which the carry through the zero digits 16..30 takes from 1 to
    # 2; 17 entries, the first loaded rather than added, and no doubling.
    k = prod.q - 1
    with OpCounter() as ops:
        _ = k * prod.base
    assert (ops.inner_adds, ops.inner_doubles) == (16, 0)
    # wNAF: 250 digits, 27 nonzero: 249 doublings and 26 additions after
    # the top digit, plus one doubling and three additions for 3Q, 5Q, 7Q.
    plain = Point(prod.base.x, prod.base.y, prod)
    with OpCounter() as ops:
        _ = k * plain
    assert (ops.inner_adds, ops.inner_doubles) == (29, 250)


class ReadRow:
    """A comb row that logs each digit a sum reads from it."""

    def __init__(self, row, log):
        self.row, self.log = row, log

    def __getitem__(self, m):
        self.log.append(m)
        return self.row[m]


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_plus_minus_one_stays_off_the_comb(name, request):
    """A term +-1 is one addition even on a point with a comb table, which
    would read -1 as q - 1, 17 entries on curve1174: P + Q, and
    -P + Ppub + Q with Ppub's table built, read no entry of P's or Ppub's
    rows, book one addition per term but the first, loaded, and no
    doubling, and equal the affine oracle."""
    c = request.getfixturevalue(name)
    params, _ = request.getfixturevalue(f"{name}_deploy")
    log = []

    def logged(pt):
        copy = Point(pt.x, pt.y, c)
        table = pt._table or Point(pt.x, pt.y, c).precompute()._table
        copy._table = [ReadRow(row, log) for row in table]
        return copy

    base, p_pub, q_pt = logged(c.base), logged(params.p_pub), 5 * c.base
    minus_p_plus_ppub = oracle_add(c, -c.base, params.p_pub)
    cases = [
        (lambda: base + q_pt, 1, oracle_add(c, c.base, q_pt)),
        (lambda: curve_mod.sum_of_multiples(c, [[(base, -1), (p_pub, 1)]], ms=0, ap=1)[0],
         1, minus_p_plus_ppub),
        (lambda: curve_mod.sum_of_multiples(
            c, [[(base, -1), (p_pub, 1), (q_pt, 1)]], ms=0, ap=2)[0],
         2, oracle_add(c, minus_p_plus_ppub, q_pt)),
    ]
    for run, adds, expect in cases:
        with OpCounter() as ops:
            got = run()
        assert (ops.scalar_mults, ops.point_adds) == (0, adds)
        assert (ops.inner_adds, ops.inner_doubles, ops.inversions) == (adds, 0, 1)
        assert got == expect
    assert log == []


def one_pass(c, terms):
    """_sum's (X, Y, Z) of terms, with the doublings and additions it
    books."""
    with OpCounter() as ops:
        ext = curve_mod._sum(c, terms, ops)
    return ext, ops.inner_doubles, ops.inner_adds


def test_mul_wnaf_terms_share_one_chain(toy, prod):
    # one term: the counts above, now from the one pass directly
    k = prod.q - 1
    _, dbls, adds = one_pass(prod, [(Point(prod.base.x, prod.base.y, prod), k)])
    assert (adds, dbls) == (29, 250)
    toy_pts = enumerate_points(toy)
    for c in (toy, prod):
        rng = make_rng(f"straus:{c.name}")
        for n in (1, 2, 3, 6):
            pts = [rng.choice(toy_pts) if c is toy else rng.randrange(1, c.q) * c.base
                   for _ in range(n)]
            ks = [rng.choice([1, 2, 3, 5, rng.randrange(1, c.q)]) for _ in range(n)]
            (X, Y, Z), dbls, adds = one_pass(c, list(zip(pts, ks)))
            expect = c.neutral()
            for pt, k in zip(pts, ks):
                expect = expect + affine_mul(k, pt)
            zi = pow(Z, -1, c.p)
            assert Point(X * zi % c.p, Y * zi % c.p, c) == expect
            # one chain from the top digit of the longest NAF, plus one
            # doubling for each term with a 3Q
            top = max(curve_mod._wnaf(k)[-1][0] for k in ks)
            assert dbls == top + sum(k >= 3 for k in ks)


def pass_steps(c, terms):
    """(doublings, additions) that one pass over terms, on distinct points,
    books: each comb digit, +-1 point and wNAF digit is one addition but
    the first, loaded; the chain doubles down from the highest top digit;
    a wNAF term's odd multiples cost one doubling and n_odd - 1 additions."""
    dbls, adds, top = 0, -1, 0
    for pt, k in terms:
        if k in (1, -1):
            adds += 1
        elif pt._table is not None:
            adds += sum(map(bool, signed_digits(k % c.q, len(pt._table))))
        else:
            digits = curve_mod._wnaf(abs(k))
            top = max(top, digits[-1][0])
            n_odd = min(4, (abs(k) + 1) >> 1)
            dbls += n_odd > 1
            adds += len(digits) + n_odd - 1
    return dbls + top, adds


def test_one_pass_loads_the_highest_top_digit(toy, prod):
    """The pass loads one top digit and takes it out of its bucket, however
    the terms' top digits fall: at position 0 (k = 3, 5, 7), two terms on
    the same top position, a later term above an earlier one, and comb,
    chain and +-1 terms in one sum; against the affine reference, in
    values and in the steps booked."""
    for c in (toy, prod):
        rng = make_rng(f"onepass:{c.name}")
        q = c.q
        pts = []
        while len(pts) < 4:
            pt = rng.randrange(2, q) * c.base
            if all(pt != other and pt != -other for other in pts):
                pts.append(pt)
        a, b, e, f = pts
        r = rng.randrange(1, q)
        cases = [
            [(a, 3)],
            [(a, -3), (b, 5)],
            [(a, 7), (c.base, r)],
            [(a, 3), (b, 1), (e, -1)],
            [(a, 2**6 + 1), (b, 2**6 + 3)],
            [(a, -(2**6 + 5)), (b, 2**6 + 1), (c.base, r)],
            [(a, 2**4 + 1), (b, 2**7 + 3)],
            [(a, 3), (b, -(2**7 + 1)), (e, 2**5 + 3)],
            [(c.base, r), (a, rng.randrange(2, q)), (b, 1), (e, -1), (f, -rng.randrange(2, q))],
            [(a, 1), (c.base, r), (b, 9), (e, -1)],
        ]
        for terms in cases:
            ext, dbls, adds = one_pass(c, terms)
            expect = c.neutral()
            for pt, k in terms:
                expect = oracle_add(c, expect, exact_mul(k % q if pt is c.base else k, pt))
            assert affine(c, ext) == expect, terms
            assert (dbls, adds) == pass_steps(c, terms), terms
            got, = curve_mod.sum_of_multiples(c, [terms[::-1]], ms=0, ap=0)
            assert got == expect


def affine(c, ext):
    """The point of extended (X, Y, Z, ...)."""
    return Point(*curve_mod._to_affine(c.p, [ext], None)[0], c)


def signed_digits(k, n):
    """k as n signed radix-256 digits in [-127, 128], least significant
    first."""
    out = []
    for _ in range(n):
        dgt = k % 256
        if dgt > 128:
            dgt -= 256
        out.append(dgt)
        k = (k - dgt) // 256
    assert k == 0, "k needs more digits"
    return out


def reference_comb(p, table, k):
    """A comb term's steps in _sum's pass, one _add or _neg call per step:
    the first entry loaded, the others added in row order."""
    _add, _neg = curve_mod._add, curve_mod._neg
    X = None
    for dgt, row in zip(signed_digits(k, len(table)), table):
        if dgt:
            e = row[dgt] if dgt > 0 else _neg(p, *row[-dgt])
            if X is None:
                X, Y, Z, T = e[0], e[1], 1, e[0] * e[1] % p
            else:
                X, Y, Z, T = _add(p, True, X, Y, Z, T, *e)
    return X, Y, Z


def reference_chain(p, d, x, y, k):
    """A wNAF term's steps in _sum's pass, one _add or _dbl call per step."""
    _add, _dbl, _cache_ext = curve_mod._add, curve_mod._dbl, curve_mod._cache_ext
    odd = [(x, y, 1, x * y % p)]
    two = _cache_ext(p, d, *_dbl(p, True, x, y, 1))
    for _ in range(3):
        odd.append(_add(p, True, *odd[-1], *two))
    digits = curve_mod._wnaf(k)
    pos, dgt = digits[-1]
    X, Y, Z, T = odd[dgt >> 1]
    for nxt, dgt in reversed(digits[:-1]):
        for _ in range(pos - nxt):
            X, Y, Z, T = _dbl(p, True, X, Y, Z)
        pos = nxt
        e = _cache_ext(p, d, *odd[abs(dgt) >> 1])
        X, Y, Z, T = _add(p, True, X, Y, Z, T, *(e if dgt > 0 else curve_mod._neg(p, *e)))
    for _ in range(pos):
        X, Y, Z, T = _dbl(p, True, X, Y, Z)
    return X, Y, Z


def near_p_points(c, n):
    """n points of c with x = p - i or y = p - i for small i, the order-2
    and order-4 points (0, p - 1) and (p - 1, 0) first."""
    p, d = c.p, c.d
    pts = [Point(0, p - 1, c), Point(p - 1, 0, c)]
    i = 1
    while len(pts) < n:
        i += 1
        # x^2 = (1 - y^2) / (1 - d*y^2), the curve equation, and the same
        # with x and y swapped; p = 3 mod 4 on curve1174
        t = (1 - i * i) * pow(1 - d * i * i, -1, p) % p
        root = pow(t, (p + 1) // 4, p)
        if root * root % p == t:
            pts += [Point(p - i, root, c), Point(root, p - i, c), Point(p - i, p - root, c)]
    for pt in pts:
        assert pt.on_curve()
    return pts[:n]


def test_inlined_loops_match_reference_steps(toy, prod):
    """_sum's pass, with _add and _dbl written out and A and B left
    unreduced, gives for a comb term and for a wNAF term the extended
    coordinates that one call per step gives, and the points of the affine oracles; for negative digits,
    through built rows and P's shipped rows, and on curve1174 for entries
    with a coordinate at or near p - 1."""
    half = 1 << (curve_mod._W - 1)
    toy_pts = enumerate_points(toy)
    for c in (toy, prod):
        p, d, q = c.p, c.d, c.q
        rng = make_rng(f"inlined:{c.name}")
        # every digit negative: 129 = 256 - 127, 255 = 256 - 1
        ks = [1, 2, q - 1, 129, 255, 255 * 257 * 65537 % q, rng.randrange(1, q)]
        if c is toy:
            pts = [rng.choice(toy_pts) for _ in range(4)] + near_p_points(c, 2)
            ks += list(range(3, q))
        else:
            ks += [sum(129 << (8 * i) for i in range(31)), 2**248 - 1]
            pts = [rng.randrange(1, q) * c.base] + near_p_points(c, 4)
            # P's shipped rows, read through their decoding
            base = fresh_curve1174().base
            for k in ks:
                got = curve_mod._sum(base.curve, [(base, k)], None)
                assert got == reference_comb(p, base._table, k)
                assert affine(c, got) == affine_mul(k, c.base)
        for pt in pts:
            comb = Point(pt.x, pt.y, c).precompute()
            plain = Point(pt.x, pt.y, c)
            for k in ks:
                expect = oracle_mul(k, pt) if c is toy else affine_mul(k, pt)
                # a comb counts k mod q, whatever the order of its point
                got = curve_mod._sum(c, [(comb, k)], None)
                assert got == reference_comb(p, comb._table, k % q)
                assert affine(c, got) == (oracle_mul(k % q, pt) if c is toy else expect)
                got = curve_mod._sum(c, [(plain, k)], None)
                if k > 7:  # the reference builds all of Q, 3Q, 5Q, 7Q
                    assert got[:3] == reference_chain(p, d, pt.x, pt.y, k)
                assert affine(c, got) == expect
        if c is prod:
            # two comb rows whose entries are the near-p points themselves:
            # digit i adds +-entry |i| of its row
            pts = near_p_points(c, 2 * half)
            table = [{m: curve_mod._cache(p, d, pt.x, pt.y) for m, pt in enumerate(pts[j:j + half], 1)}
                     for j in (0, half)]
            # on the point of digit 1, which a term k = 1 adds as it is
            comb = Point(pts[0].x, pts[0].y, c)
            comb._table = table
            for k in (1, 127, 128, 129, 255, 129 + 127 * 256, 128 + 128 * 256, 2**15 - 1,
                      rng.randrange(1, 128 + 128 * 256 + 1)):
                expect = c.neutral()
                for j, dgt in enumerate(signed_digits(k, 2)):
                    if dgt:
                        term = pts[j * half + abs(dgt) - 1]
                        expect = oracle_add(c, expect, term if dgt > 0 else -term)
                got = curve_mod._sum(c, [(comb, k)], None)
                assert got == reference_comb(p, table, k)
                assert affine(c, got) == expect


# -- folding mod p in the pass -------------------------------------------------

# tools/find_toy_curve.py's search with P = 769: p lies 255 below 2^10
TOY769 = dict(name="toy769", p=769, d=14, gx=428, gy=756, q=199, cofactor=4)


def fold_rule_holds(p, K, c):
    """(K, c) is the least K >= bits(p) with 16c < 2^(K//4), c = 2^K mod p."""
    bits = p.bit_length()
    if not (bits <= K <= 4 * bits + 16 and (1 << K) % p == c and 16 * c < 1 << (K // 4)):
        return False
    return all(16 * ((1 << j) % p) >= 1 << (j // 4) for j in range(bits, K))


def test_fold_constants(toy, prod):
    assert prod._fold == (251, 9)
    assert toy._fold == (46, 101)
    assert CurveParams(**TOY769)._fold == (48, 173)
    for c in (toy, prod):
        assert fold_rule_holds(c.p, *c._fold)


def test_fold_search_ends_for_any_p(toy):
    """The search ends by K = 4*bits(p) + 16 for p = 1007 (the composite p
    of test_params), for even p, 2^10 included (c = 0), and for a random
    4096-bit p, where it runs close to that limit."""
    assert fold_rule_holds(1007, *CurveParams("bad", 1007, toy.d, 0, 1006, toy.q, toy.cofactor)._fold)
    assert fold_rule_holds(1008, *CurveParams("even", 1008, toy.d, 0, 1007, toy.q, toy.cofactor)._fold)
    assert curve_mod._fold_constants(1024) == (11, 0)
    for p in (2**64, 2**255 - 19, 3**40):
        assert fold_rule_holds(p, *curve_mod._fold_constants(p))
    big = make_rng("foldsearch").getrandbits(4096) | 1 << 4095 | 1
    K, c = curve_mod._fold_constants(big)
    assert 4096 <= K <= 4 * 4096 + 16
    assert (1 << K) % big == c and 16 * c < 1 << (K // 4)


def fold_reach(K, c, n):
    """How far from zero a fold of any |v| <= n can land: _sum's f(n)."""
    return ((n >> K) + 1) * c + (1 << K) - 1


def test_fold_bound_of_the_docstring(toy, prod):
    """_sum's bound in integers: from X, Y, Z and T below 2^(K+1) and
    cached operands in [0, p], a doubling's and an addition's once-folded
    values stay below (8c + 2)*2^K, their products below
    ((8c + 4)*2^K)^2, and two folds of those land within
    2^K + c^2*(8c + 4)^2 + 2c - 1 < 2^(K+1) of zero."""
    for curve in (toy, prod):
        K, c = curve._fold
        R = 1 << K
        n, op = 2 * R - 1, curve.p

        def fold(v):
            return fold_reach(K, c, v)

        assert op < R
        # doubling: A = X^2 and B = Y^2 are >= 0, so |G - 2Z^2| and
        # |A - B| are at most the larger side
        a, e = fold(n * n), fold(2 * n * n)
        f = fold(max(2 * a, 2 * n * n))
        once = [a, e, f]
        products = [e * f, 2 * a * a, 2 * a * f, e * a]
        # addition: T*u2, Z*z2 (or Z), E = X*y2 + Y*x2, H = Y*y2 - X*x2
        cc, d = fold(n * op), max(n, fold(n * op))
        e, h = fold(2 * n * op), fold(2 * n * op)
        once += [cc, d, e, h]
        products += [e * (d + cc), (d + cc) * h, (d + cc) ** 2, e * h]
        top = ((8 * c + 4) * R) ** 2
        assert max(once) < (8 * c + 2) * R
        assert max(products) <= top
        assert fold(fold(top)) == R - 1 + c * c * (8 * c + 4) ** 2 + 2 * c < 2 * R
        assert 455 * 144 * c**4 < R
    K, c = prod._fold
    assert ((8 * c + 4) << K) ** 2 < 1 << (2 * K + 13)


def test_fold_is_exact_far_from_a_power_of_two():
    """On toy769, every k in [-600, 2000), on P and on P plus a point of
    order 4, sums to the affine oracle's point and, past the reference's
    odd multiples, to the reference steps' integers."""
    c = CurveParams(**TOY769)
    p, d = c.p, c.d
    for pt in (c.base, c.base + Point(1, 0, c)):
        assert pt._table is None
        expect = exact_mul(-600, pt)
        for k in range(-600, 2000):
            got = curve_mod._sum(c, [(pt, k)], None)
            if k == 0:
                assert got is None and expect.is_neutral()
            else:
                assert affine(c, got) == expect, (pt, k)
            if abs(k) > 7:
                x = pt.x if k > 0 else -pt.x % p
                assert got == reference_chain(p, d, x, pt.y, abs(k)), (pt, k)
            expect = oracle_add(c, expect, pt)


def test_long_chain_matches_reference_steps(toy, prod):
    """A 4000-bit scalar, sixteen times curve1174's chain, gives the
    reference steps' integers on both curves."""
    for c in (toy, prod):
        rng = make_rng(f"longchain:{c.name}")
        k = rng.getrandbits(4000) | 1 << 3999
        pt = rng.randrange(1, c.q) * c.base
        plain = Point(pt.x, pt.y, c)
        assert curve_mod._sum(c, [(plain, k)], None) == reference_chain(c.p, c.d, pt.x, pt.y, k)


def test_multiples_is_one_multiple_each(toy, prod):
    """Point.multiples(ks) == [k * Q for k in ks], on a comb and for a point
    with no table, which builds none however long the batch."""
    for c in (toy, prod):
        q = c.q
        rng = make_rng(f"multiples:{c.name}")
        ks = [0, 1, q - 1, c.scalar(2), rng.randrange(q), -1, q + 5]
        assert c.base.multiples(ks) == [k * c.base for k in ks]
        other = rng.randrange(1, q) * c.base
        expect = [k * other for k in ks]
        plain = Point(other.x, other.y, c)
        assert plain.multiples(ks * 5) == expect * 5
        assert plain._table is None
        assert c.base.multiples([]) == []
        with pytest.raises(TypeError):
            c.base.multiples([1.5])
        with pytest.raises(ValueError):
            c.base.multiples([Scalar(1, q + 2)])


def test_multiples_books_one_inversion_per_batch(toy, prod):
    """m multiples book m Ms, 0 Ap, the inner steps of m single multiples
    and one inversion; a batch of zeros books none."""
    for c in (toy, prod):
        rng = make_rng(f"batchbook:{c.name}")
        for m in range(1, 33):
            ks = [rng.randrange(1, c.q) for _ in range(m)]
            # P on its comb, and a copy of P on the wNAF
            for pt in (c.base, Point(c.base.x, c.base.y, c)):
                with OpCounter() as single:
                    for k in ks:
                        _ = k * pt
                with OpCounter() as ops:
                    pt.multiples(ks)
                assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (m, 0, 1)
                assert (single.scalar_mults, single.inversions) == (m, m)
                assert (ops.inner_adds, ops.inner_doubles) == (single.inner_adds, single.inner_doubles)
        with OpCounter() as ops:
            assert c.base.multiples([0, c.q]) == [c.neutral()] * 2
        assert (ops.scalar_mults, ops.inversions) == (2, 0)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_cofactored_equal_accepts_exactly_torsion(name, request):
    """sum k_i*Q_i == D: true exactly when [cofactor]*D is neutral, or with
    the exact policy when D is, with no inversion and the booked counts, on
    combs and on the chain alike."""
    c = request.getfixturevalue(name)
    rng = make_rng(f"cofactored:{name}")
    torsion = [c.neutral(), Point(0, c.p - 1, c), Point(1, 0, c), Point(c.p - 1, 0, c)]
    if c.cofactor == 8:
        torsion += [pt for pt in enumerate_points(c) if (8 * pt).is_neutral()
                    and not (4 * pt).is_neutral()][:2]
    prime = rng.randrange(1, c.q) * c.base
    # a second base with a comb table, as Ppub has once SystemParams built it
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
            got = curve_mod.sum_is_neutral(c, terms, ms=7, ap=3, cofactored=True)
        assert got == (c.cofactor * d).is_neutral() == (d in torsion), d
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (7, 3, 0)
        # on a curve whose points have no table, every term joins the chain
        plain = curve_mod.CurveParams(c.name, c.p, c.d, c.base.x, c.base.y, c.q, c.cofactor)
        moved = [(Point(pt.x, pt.y, plain), ki) for pt, ki in terms]
        assert plain.base._table is None
        assert curve_mod.sum_is_neutral(plain, moved, ms=0, ap=0, cofactored=True) == got
        # the exact policy over points of order q and -1 times one that
        # carries d's torsion: true exactly when d is neutral
        exact = [(c.base, k), (key, rng.randrange(1, c.q)), (prime, rng.randrange(2, c.q - 1))]
        rest = -d
        for pt, ki in exact:
            rest = rest + ki * pt
        exact.append((rest, -1))
        with OpCounter() as ops:
            assert curve_mod.sum_is_neutral(c, exact, ms=2, ap=1, cofactored=False) == d.is_neutral(), d
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2, 1, 0)
        assert curve_mod.sum_is_neutral(c, exact, ms=0, ap=0, cofactored=True) == got
        moved = [(Point(pt.x, pt.y, plain), ki) for pt, ki in exact]
        assert curve_mod.sum_is_neutral(plain, moved, ms=0, ap=0, cofactored=False) == d.is_neutral()
    assert curve_mod.sum_is_neutral(c, [(c.base, 5), (5 * c.base, -1), (c.base, 0)], ms=0, ap=0, cofactored=True)
    assert curve_mod.sum_is_neutral(c, [(c.base, 0), (c.base, 1 - c.q), (c.base, -1)], ms=0, ap=0, cofactored=True)
    assert curve_mod.sum_is_neutral(c, [(key, 2), (2 * key, c.q - 1)], ms=0, ap=0, cofactored=True)
    assert curve_mod.sum_is_neutral(c, [(c.base, 3), (key, 1), (3 * c.base + key, -1)], ms=0, ap=0, cofactored=True)
    assert not curve_mod.sum_is_neutral(c, [(c.base, 1)], ms=0, ap=0, cofactored=True)
    assert not curve_mod.sum_is_neutral(c, [(key, 1), (c.base, 1)], ms=0, ap=0, cofactored=True)


def test_cofactored_check_runs_reduced_scalars(prod):
    """On curve1174 a cofactored check takes each scalar mod q, nearest
    zero, before it scales it by the cofactor: k + 5q on a fresh point
    gives k's verdict on a chain of at most bits(q) + 2 doublings, where
    the unreduced k + 5q alone has more bits than that. A term of +-4,
    such as R's -1 scaled, builds no 3R."""
    c, q = prod, prod.q
    rng = make_rng("cofactored-reduced")
    two = Point(0, c.p - 1, c)
    for _ in range(3):
        pt = rng.randrange(1, q) * c.base
        k = rng.randrange(1, q)
        kq = k * pt
        assert pt._table is None and (k + 5 * q).bit_length() > q.bit_length() + 2
        for kk, other, ok in ((k, kq, True), (k, kq + two, True), (k + 1, kq, False)):
            with OpCounter() as ops:
                got = curve_mod.sum_is_neutral(c, [(pt, kk + 5 * q), (other, -1)], ms=1, ap=1,
                                               cofactored=True)
            assert got is ok
            assert got == curve_mod.sum_is_neutral(c, [(pt, kk), (other, -1)], ms=0, ap=0,
                                                   cofactored=True)
            assert ops.inner_doubles <= q.bit_length() + 2
    for cofactored, k in ((True, -1), (False, 4)):
        with OpCounter() as ops:
            curve_mod.sum_is_neutral(c, [(kq, k)], ms=0, ap=0, cofactored=cofactored)
        assert (ops.inner_adds, ops.inner_doubles) == (0, 2)


def test_cofactored_check_is_the_exact_check_of_scaled_scalars(toy):
    """On every point of the toy curve, torsion included, and a range of
    scalars, the cofactored check of k*Q + j*P agrees with the exact check
    of (8k)*Q + (8j)*P, P on its comb: true exactly when k*m + j == 0
    (mod q) for Q = m*P + T, T a torsion point."""
    c, q, h = toy, toy.q, toy.cofactor
    rng = make_rng("cofactored-scaled")
    torsion = [pt for pt in enumerate_points(c) if (h * pt).is_neutral()]
    assert len(torsion) == h and c.base._table is not None
    ks = [1, -1, q - 1, q, -(2 * q + 5), rng.randrange(q)]
    seen = set()
    for m in range(q):
        mp = m * c.base
        for t in torsion:
            pt = mp + t
            seen.add(pt)
            for k in ks:
                for j in (-k * m, -k * m + 1, -k * m + 3 * q):
                    got = curve_mod.sum_is_neutral(c, [(pt, k), (c.base, j)], ms=0, ap=0,
                                                   cofactored=True)
                    exact = curve_mod.sum_is_neutral(c, [(pt, h * k), (c.base, h * j)], ms=0,
                                                     ap=0, cofactored=False)
                    assert got == exact == ((k * m + j) % q == 0), (m, t, k, j)
    assert len(seen) == h * q


def exact_mul(k, pt):
    """k * pt for any int k, negative included, by the affine reference."""
    return affine_mul(k, pt) if k >= 0 else affine_mul(-k, -pt)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_every_path_is_exact_on_torsion(name, request):
    """One rule on every path, against the affine reference: k*Q is
    (k mod q)*Q, Q + R is the affine sum, and a sum of terms on points with
    no table is exact in its scalars as given, negative, +-1 and >= q
    alike, in sum_of_multiples and in sum_is_neutral(cofactored=False);
    on every torsion point of the toy curve, on (0, p-1) and (1, 0) of
    curve1174, and on kP + T for those T."""
    c = request.getfixturevalue(name)
    q = c.q
    rng = make_rng(f"exact:{name}")
    if name == "toy":
        torsion = [pt for pt in enumerate_points(c) if affine_mul(c.cofactor, pt).is_neutral()]
        assert len(torsion) == c.cofactor
    else:
        torsion = [Point(0, c.p - 1, c), Point(1, 0, c)]
    shifted = [rng.randrange(1, q) * c.base + t for t in torsion]
    assert all(shift == oracle_add(c, shift - t, t) for shift, t in zip(shifted, torsion))
    pts = torsion + shifted
    two = Point(0, c.p - 1, c)
    mul_ks = [0, 1, 2, q - 1, q, q + 1, 3 * q + 7, -1, -3, rng.randrange(q)]
    for pt in pts:
        assert pt._table is None
        for k in (mul_ks if name == "toy" else [q + 1, -3, rng.randrange(q)]):
            assert k * pt == affine_mul(k % q, pt), (pt, k)
        for other in (pt, -pt, rng.choice(pts), c.neutral(), c.base):
            assert pt + other == other + pt == oracle_add(c, pt, other)
    for _ in range(6 if name == "toy" else 2):
        # terms on distinct points with no table, and one on P's comb
        chosen = rng.sample(pts, 3)
        ks = [rng.choice([1, -1]), -(q + rng.randrange(1, 50)), q + rng.randrange(50),
              -(q + 7)]
        terms = list(zip(chosen + [c.base], ks))
        expect = c.neutral()
        for pt, k in terms:
            expect = oracle_add(c, expect, exact_mul(k, pt))
        with OpCounter() as ops:
            got, again, none = curve_mod.sum_of_multiples(c, [terms, terms[::-1], []], ms=5, ap=2)
        assert got == again == expect and none == c.neutral()
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (5, 2, 1)
        assert curve_mod.sum_is_neutral(c, terms + [(expect, -1)], ms=0, ap=0, cofactored=False)
        off = expect + two
        assert not curve_mod.sum_is_neutral(c, terms + [(off, -1)], ms=0, ap=0, cofactored=False)
        assert curve_mod.sum_is_neutral(c, terms + [(off, -1)], ms=0, ap=0, cofactored=True)
    # no reduction mod q off the comb: k and k + q differ by q*Q exactly
    for pt in pts:
        for k in (1, 5, rng.randrange(1, q)):
            low = affine(c, curve_mod._sum(c, [(pt, k)], None))
            high = affine(c, curve_mod._sum(c, [(pt, k + q)], None))
            assert high == oracle_add(c, low, affine_mul(q, pt))
            assert (high == low) == affine_mul(q, pt).is_neutral()


def test_opcounter_one_inversion_per_operation(toy, prod):
    # one per operation, except that a build books one per row; a point
    # without a table books one per multiple however many it takes, and
    # never a build (the last case)
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
        # one inversion per row of the build
        assert ops.inversions == comb_rows(c) and ops.scalar_mults == 0
        with OpCounter() as ops:
            _ = c.base + plain
        assert ops.inversions == 1 and ops.point_adds == 1
        assert ops.as_dict()["inversions"] == 1
        fresh = Point(c.base.x, c.base.y, c)
        for _ in range(_COMB_AT + 1):
            with OpCounter() as ops:
                _ = k * fresh
            assert ops.inversions == 1
        assert fresh._table is None


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


@pytest.mark.parametrize("key, value", [("p", 0), ("p", 2), ("q", 0), ("q", 1),
                                        ("cofactor", 0), ("cofactor", -4)])
def test_parse_file_refuses_degenerate_sizes(toy, key, value):
    # p = 0 used to raise ZeroDivisionError in the constructor, and
    # cofactor = 0 used to parse
    text = "".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line
                   for line in toy.format_file().splitlines(keepends=True))
    assert f"{key}={value}\n" in text
    with pytest.raises(ValueError, match="p >= 3, q >= 2 and cofactor >= 1"):
        CurveParams.parse_file(text)


def test_parsed_curve1174_is_the_builtin_one(prod):
    assert CurveParams.parse_file(prod.format_file()) is prod
    with OpCounter() as ops:
        _ = (prod.q - 2) * CurveParams.parse_file(prod.format_file()).base
    assert on_comb(ops, prod)  # not ~250 wNAF doublings
    # the name is in every params digest, so another name is another curve
    renamed = CurveParams.parse_file(prod.format_file().replace("name=curve1174", "name=c1174"))
    assert renamed == prod and renamed is not prod and renamed.base._table is None


def test_parse_kv_strictness():
    assert parse_kv("a=1\n# note\nb=2\n")["b"] == "2"
    with pytest.raises(ValueError):
        parse_kv("a=1\na=2\n")  # duplicate
    with pytest.raises(ValueError):
        parse_kv("a=1\njunk line\n")
    with pytest.raises(ValueError):
        parse_kv("a=1\n", required=("a", "b"))
