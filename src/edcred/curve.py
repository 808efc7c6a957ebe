"""Group arithmetic on complete Edwards curves over prime fields.

A curve is the solution set of x^2 + y^2 = 1 + d*x^2*y^2 over GF(p) with d a
quadratic non-residue, which makes the addition law complete: the denominators
1 +- d*x1*x2*y1*y2 never vanish on curve points, so there are no special cases
and no points at infinity. The neutral element is (0, 1), the inverse of
(x, y) is (-x, y), (0, -1) has order two and (+-1, 0) have order four, so the
group order is always divisible by four and scalars live modulo the prime
order q of the chosen base point.

Public points are affine. Inside an operation the arithmetic runs in
extended coordinates (X:Y:Z:T) with x = X/Z, y = Y/Z, T = XY/Z (Hisil, Wong,
Carter, Dawson, "Twisted Edwards curves revisited", 2008), using the unified
addition add-2008-hwcd and the doubling dbl-2008-hwcd with a = 1. Their Z
denominators are the affine law's 1 +- d*x1*x2*y1*y2, and x^2 + y^2,
2 - x^2 - y^2 for a doubling, so they are as complete as the affine law.
Each scalar multiplication or addition pays one field inversion, at the
end, to return to affine form.

Scalar multiplication takes one of two paths. A base with a comb table is
multiplied by a signed radix-64 comb over three interleaved levels (Lim and
Lee, CRYPTO 1994): about 41 mixed additions and 12 doublings per multiple.
Any other point is multiplied by a width-4 wNAF (Hankerson, Menezes,
Vanstone, "Guide to Elliptic Curve Cryptography", Alg. 3.36): about 250
doublings and 50 additions. Both only add and double with the complete
formulas, so neither needs a case for the neutral point, a torsion point or
an addition whose two operands are equal.

A proof check needs no multiple in affine form, only whether an equation
holds. cofactored_equal checks sum k_i*Q_i == O with every Q_i that has a
comb table on its comb and every other Q_i on one shared wNAF doubling
chain, multiplies the sum by the cofactor and compares it with the neutral
point in projective form, so a whole batch of proofs pays for one chain
and no inversion.

A process pays only for the tables it uses. curve1174's generator P ships
its table in data/curve1174_comb.bin, pinned by hash, as Ed25519 ships its
base-point table (Bernstein et al., CHES 2011), and a parsed curve1174 is
the built-in one, so it shares that table. The toy curve builds its
one-row table for P on load. Every other point builds its table at its
_COMB_AT-th multiple, once the table has paid for itself, so a one-shot
command never builds one and a long-lived base (a public key) has one
within its first few multiples.

Two moduli are in play and must not be mixed: coordinates are integers mod p,
exponents are Scalar values mod q. Coordinates are kept as plain ints inside
Point; Scalar is a real class because scalars cross module boundaries where a
silent modulus mixup would be the expensive bug.
"""

from __future__ import annotations

import contextvars
import hashlib
import os

from .errors import RngError

_DRAW_ATTEMPTS = 100

_active_counter: contextvars.ContextVar["OpCounter | None"] = contextvars.ContextVar(
    "edcred_active_opcounter", default=None
)


def inv_mod(a: int, m: int) -> int:
    """Inverse of a modulo m, raising ValueError when none exists.

    pow with exponent -1 resolves to the C extended-gcd path, which measures
    about nine times faster than the p-2 exponentiation route at 251 bits;
    both routes are asserted equal in the test suite.
    """
    return pow(a, -1, m)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# operation counting

class OpCounter:
    """Tallies group operations while installed via ``with``.

    scalar_mults and point_adds count protocol-level calls: one
    scalar_mults tick per k*P however the multiplication runs, one
    point_adds tick per explicit addition. The internal steps of a
    multiplication land in inner_adds / inner_doubles and stay out of the
    headline numbers: a multiple of a precomputed base adds one table entry
    per nonzero comb digit and doubles between levels; any other multiple
    doubles once per wNAF digit and adds once per nonzero digit, plus one
    doubling and three additions for its table of odd multiples.
    inversions counts field inversions mod p: one per nonzero k*P or
    addition (the return to affine form) and one per precompute(). The
    multiple at which a point builds its table books the build's inversion
    too, so it counts two. cofactored_equal books the operations its one
    equation stands for, and no inversion.

    Counters nest: entering a second counter redirects counting to it until
    it exits, which is how proof-of-knowledge costs are kept in a separate
    column. Installation is per execution context, so threads do not
    interleave counts.
    """

    __slots__ = (
        "scalar_mults",
        "point_adds",
        "inner_adds",
        "inner_doubles",
        "inversions",
        "_token",
    )

    def __init__(self):
        self.reset()
        self._token = None

    def reset(self) -> None:
        self.scalar_mults = 0
        self.point_adds = 0
        self.inner_adds = 0
        self.inner_doubles = 0
        self.inversions = 0

    def __enter__(self) -> "OpCounter":
        self._token = _active_counter.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _active_counter.reset(self._token)
        self._token = None

    def as_dict(self) -> dict:
        return {
            "scalar_mults": self.scalar_mults,
            "point_adds": self.point_adds,
            "inner_adds": self.inner_adds,
            "inner_doubles": self.inner_doubles,
            "inversions": self.inversions,
        }

    def __repr__(self):
        return f"OpCounter(Ms={self.scalar_mults}, Ap={self.point_adds})"


# ---------------------------------------------------------------------------
# extended-coordinate formulas on int tuples (a = 1)
#
# A point in extended form is (X, Y, Z, T). The second operand of an addition
# is cached: (x, y, x + y, d*x*y) for an affine point, which _cache builds,
# or (X, Y, X + Y, d*T, Z) for an extended one, which _cache_ext builds.
# Only an addition reads T, so a step whose result is next doubled or
# returned to affine form passes need_t=False and skips that product.

# Fixed-base comb: radix 2^_W digits, _LEVELS interleaved levels. Digit i
# of k weighs 2^(_W*i); row j of a table holds m * 2^(_W*_LEVELS*j) * B for
# m = 1..2^(_W-1), so digit _LEVELS*j + level is row j's entry at that level.
_W = 6
_LEVELS = 3
# Variable base: wNAF width, digits odd in [1 - 2^(_WNAF-1), 2^(_WNAF-1) - 1].
_WNAF = 4
# A point without a table builds one at its _COMB_AT-th multiple, once a
# build would have paid for itself: ceil(build / (wNAF Ms - comb Ms)) on
# curve1174, medians of 15 rounds in one process (2 vCPU, Python 3.11):
# 8.38 / (2.33 - 0.52) = 4.6 and 6.52 / (1.84 - 0.42) = 4.6 in two runs.
_COMB_AT = 5


def _cache(p, d, x, y):
    return x, y, (x + y) % p, d * x % p * y % p


def _cache_ext(p, d, X, Y, Z, T):
    return X, Y, (X + Y) % p, d * T % p, Z


def _neg(p, x, y, s, u, z=1):
    # the cached form of -(x, y) = (-x, y); reduced by the next product
    return p - x, y, y - x, p - u, z


def _add(p, need_t, X1, Y1, Z1, T1, x2, y2, s2, u2, z2=1):
    # add-2008-hwcd: 9 multiplications, 8 when the second operand is affine,
    # one fewer without T. F and G are Z1*Z2*(1 -+ d*x1*x2*y1*y2), never
    # zero on curve points.
    A = X1 * x2 % p
    B = Y1 * y2 % p
    C = T1 * u2 % p
    D = Z1 if z2 == 1 else Z1 * z2 % p
    E = ((X1 + Y1) * s2 - A - B) % p
    F = D - C
    G = D + C
    H = B - A
    return E * F % p, G * H % p, F * G % p, E * H % p if need_t else None


def _dbl(p, need_t, X, Y, Z):
    # dbl-2008-hwcd: 8 multiplications, 7 without T; the input's T is not
    # read. G and F are Z^2*(x^2+y^2) and -Z^2*(2-x^2-y^2), never zero on
    # curve points. F is reduced so that E*F and F*G multiply field-sized
    # operands, not the ~2*bits(p) Z*Z.
    A = X * X % p
    B = Y * Y % p
    E = 2 * X * Y % p
    G = A + B
    F = (G - 2 * Z * Z) % p
    H = A - B
    return E * F % p, G * H % p, F * G % p, E * H % p if need_t else None


def _signed_digits(k, n):
    """k as n digits in [1 - 2^(_W-1), 2^(_W-1)], least significant first.

    A digit above 2^(_W-1) becomes digit - 2^_W and carries one into the
    next. k < 2^b needs b // _W + 1 digits: the top digit and its carry
    stay within 2^(_W-1).
    """
    half, mask = 1 << (_W - 1), (1 << _W) - 1
    out = []
    for _ in range(n):
        dgt = k & mask
        if dgt > half:
            dgt -= 1 << _W
        out.append(dgt)
        k = (k - dgt) >> _W
    return out


def _wnaf(k):
    """The nonzero digits of the width-_WNAF NAF of k > 0, as (position,
    digit) pairs, least significant first.

    Digits are odd and at least _WNAF positions apart; the top digit is
    positive. A run of zero digits is skipped in one step.
    """
    half, mask = 1 << (_WNAF - 1), (1 << _WNAF) - 1
    out = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        dgt = k & mask
        if dgt > half:
            dgt -= 1 << _WNAF
        out.append((pos, dgt))
        k -= dgt
    return out


def _mul_table(p, pairs):
    """The sum of k*B over pairs of (B's comb table, k), each 0 < k < q;
    returns (X, Y, Z, T, doubles, adds).

    Horner over the levels: at each level from the top down, multiply the
    sum so far by 2^_W, then add one row entry per nonzero digit of that
    level, negated for a negative digit. Several bases share the doublings.
    """
    recoded = [(_signed_digits(k, len(table) * _LEVELS), table) for table, k in pairs]
    X = None
    dbls = adds = 0
    for level in range(_LEVELS - 1, -1, -1):
        if X is not None:
            for i in range(1, _W + 1):
                X, Y, Z, T = _dbl(p, i == _W, X, Y, Z)
            dbls += _W
        for digits, table in recoded:
            for dgt, row in zip(digits[level::_LEVELS], table):
                if not dgt:
                    continue
                e = row[dgt - 1] if dgt > 0 else _neg(p, *row[-dgt - 1])
                if X is None:
                    X, Y, Z, T = e[0], e[1], 1, e[0] * e[1] % p
                else:
                    X, Y, Z, T = _add(p, True, X, Y, Z, T, *e)
                    adds += 1
    return X, Y, Z, T, dbls, adds


def _mul_wnaf(p, d, terms, addend=None):
    """The sum of k*(x, y) over terms of (x, y, k), each k > 0, plus addend.

    Every term is recoded as a width-_WNAF NAF and all of them share one
    doubling chain (Straus's trick, as interleaving with NAFs in Hankerson,
    Menezes, Vanstone), so n terms cost about 250 doublings in all and 50
    additions each. addend, a point in the cached extended form, is
    added at the last position. Returns (X, Y, Z, doubles, adds).

    The odd multiples Q, 3Q, ... stay extended, so they are added with the
    general Z2 and the whole sum still inverts at most once. A term builds
    no multiple beyond k: a digit never exceeds k.
    """
    dbls = adds = 0
    odds, luts, steps = [], [], []
    for j, (x, y, k) in enumerate(terms):
        odd = [(x, y, 1, x * y % p)]
        n_odd = min(1 << (_WNAF - 2), (k + 1) >> 1)
        if n_odd > 1:
            two = _cache_ext(p, d, *_dbl(p, True, x, y, 1))
            for _ in range(n_odd - 1):
                odd.append(_add(p, True, *odd[-1], *two))
            dbls += 1
            adds += n_odd - 1
        # indexed by digit; a negative digit indexes from the end
        lut = [None] * (1 << _WNAF)
        for i, pt in enumerate(odd):
            e = _cache_ext(p, d, *pt)
            lut[2 * i + 1] = e
            lut[-2 * i - 1] = _neg(p, *e)
        odds.append(odd)
        luts.append(lut)
        steps += [(pos, dgt, j) for pos, dgt in _wnaf(k)]
    if addend is not None:
        # a digit 0 at position 0 of a term whose only entry is addend
        luts.append([addend])
        steps.append((0, 0, len(luts) - 1))
    # every nonzero digit of every term, top position first; the chain
    # starts from the first, a top digit, which is positive
    steps.sort(reverse=True)
    top, dgt, j = steps[0]
    X, Y, Z, T = odds[j][dgt >> 1]
    at = top
    n = len(steps)
    for i in range(1, n):
        pos, dgt, j = steps[i]
        if pos < at:
            for _ in range(at - pos - 1):
                X, Y, Z, T = _dbl(p, False, X, Y, Z)
            X, Y, Z, T = _dbl(p, True, X, Y, Z)
            at = pos
        # only a next addition at the same position reads T
        more = i + 1 < n and steps[i + 1][0] == pos
        X, Y, Z, T = _add(p, more, X, Y, Z, T, *luts[j][dgt])
    for _ in range(at):
        X, Y, Z, T = _dbl(p, False, X, Y, Z)
    return X, Y, Z, dbls + top, adds + n - 1


def _rows(flat):
    """A comb table's entries, row by row, as its list of rows."""
    half = 1 << (_W - 1)
    return [flat[i:i + half] for i in range(0, len(flat), half)]


def _affine(curve, X, Y, Z, ctr) -> "Point":
    p = curve.p
    zi = pow(Z, -1, p)
    if ctr is not None:
        ctr.inversions += 1
    return Point(X * zi % p, Y * zi % p, curve)


# ---------------------------------------------------------------------------
# scalars mod q

class Scalar:
    """An exponent modulo the prime subgroup order q."""

    __slots__ = ("v", "q")

    def __init__(self, v: int, q: int):
        self.v = v % q
        self.q = q

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.q != self.q:
                raise ValueError("scalars from different groups")
            return other.v
        if isinstance(other, int):
            return other % self.q
        return None

    def __add__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return Scalar(self.v + w, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return Scalar(self.v - w, self.q)

    def __rsub__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return Scalar(w - self.v, self.q)

    def __mul__(self, other):
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return Scalar(self.v * w, self.q)

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(-self.v, self.q)

    def inverse(self) -> "Scalar":
        if self.v == 0:
            raise ValueError("zero has no inverse")
        return Scalar(inv_mod(self.v, self.q), self.q)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.q == other.q and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.q
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.q))

    def __int__(self):
        return self.v

    def __bool__(self):
        return self.v != 0

    def to_bytes(self, length: int) -> bytes:
        return self.v.to_bytes(length, "big")

    @classmethod
    def from_bytes(cls, data: bytes, q: int) -> "Scalar":
        v = int.from_bytes(data, "big")
        if v >= q:
            raise ValueError("scalar encoding out of range")
        return cls(v, q)

    def __repr__(self):
        return f"Scalar({self.v})"


# ---------------------------------------------------------------------------
# points

class Point:
    """An affine point bound to its curve. Treat instances as immutable."""

    __slots__ = ("x", "y", "curve", "_table")

    def __init__(self, x: int, y: int, curve: "CurveParams"):
        self.x = x
        self.y = y
        self.curve = curve
        # the comb table (a list) or, until it is built, the number of
        # multiples taken without one (an int). One slot, not two: a fifth
        # slot enlarges every Point, and perfbench `show` measured 1-3 %
        # slower with one (2 vCPU, Python 3.11).
        self._table = 0

    def on_curve(self) -> bool:
        p = self.curve.p
        x, y = self.x, self.y
        if not (0 <= x < p and 0 <= y < p):
            return False
        xx = x * x % p
        yy = y * y % p
        return (xx + yy) % p == (1 + self.curve.d * xx % p * yy) % p

    def is_neutral(self) -> bool:
        return self.x == 0 and self.y == 1

    def _same_curve(self, other: "Point"):
        if self.curve is not other.curve and self.curve != other.curve:
            raise ValueError("points on different curves")

    def __add__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        self._same_curve(other)
        ctr = _active_counter.get()
        if ctr is not None:
            ctr.point_adds += 1
        c = self.curve
        p = c.p
        x, y = self.x, self.y
        X, Y, Z, _ = _add(p, False, x, y, 1, x * y % p, *_cache(p, c.d, other.x, other.y))
        return _affine(c, X, Y, Z, ctr)

    def __neg__(self):
        return Point(-self.x % self.curve.p, self.y, self.curve)

    def __sub__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.__add__(-other)

    def precompute(self) -> "Point":
        """Build the comb table so repeated multiples cost few additions.

        Row j holds m * 2^(18j) * self for m = 1..32 in the cached form
        (x, y, x + y, d*x*y): 14 rows, 448 entries on curve1174, enough
        rows for every digit of a scalar below q. A negative digit uses the
        negated entry, so each nonzero digit of k costs one 8-multiplication
        mixed addition. The rows are built in extended coordinates, with
        additions for m = 2..32 and 13 doublings from 32 * 2^(18j) * self
        to the next row, and share one inversion (Montgomery's trick) to
        come back to affine form.

        The build costs about 3.5 wNAF multiples, so nothing calls it
        eagerly on curve1174: P ships its table, and k * B calls this at
        B's _COMB_AT-th multiple.
        """
        if type(self._table) is int:
            c = self.curve
            p, d = c.p, c.d
            half = 1 << (_W - 1)
            rows = -(-(c.q.bit_length() // _W + 1) // _LEVELS)
            # the next row's base, 2^(_W*_LEVELS) times this one's, is
            # `shift` doublings from this row's last entry, half times it
            shift = _W * _LEVELS - (_W - 1)
            X, Y, Z, T = self.x, self.y, 1, self.x * self.y % p
            ext = []
            for j in range(rows):
                if j:
                    X, Y, Z, _ = ext[-1]
                    for i in range(1, shift + 1):
                        X, Y, Z, T = _dbl(p, i == shift, X, Y, Z)
                step = _cache_ext(p, d, X, Y, Z, T)
                pt = (X, Y, Z, T)
                ext.append(pt)
                for _ in range(half - 1):
                    pt = _add(p, True, *pt, *step)
                    ext.append(pt)
            # prefix[i] = Z_0 * ... * Z_i; walking back from the inverse of
            # the full product peels off one 1/Z_i per entry
            prefix = []
            acc = 1
            for e in ext:
                acc = acc * e[2] % p
                prefix.append(acc)
            inv = pow(acc, -1, p)
            ctr = _active_counter.get()
            if ctr is not None:
                ctr.inversions += 1
            flat = [None] * len(ext)
            for i in range(len(ext) - 1, -1, -1):
                X, Y, Z, _ = ext[i]
                zi = inv * prefix[i - 1] % p if i else inv
                inv = inv * Z % p
                flat[i] = _cache(p, d, X * zi % p, Y * zi % p)
            self._table = _rows(flat)
        return self

    def __rmul__(self, k):
        """k * self, k an int or a Scalar mod q.

        A point without a table counts its multiples and builds its table
        at the _COMB_AT-th, which then runs on the comb.
        """
        c = self.curve
        if isinstance(k, Scalar):
            if k.q != c.q:
                raise ValueError("scalar from a different group")
            k = k.v
        elif isinstance(k, int):
            k %= c.q
        else:
            return NotImplemented
        ctr = _active_counter.get()
        if ctr is not None:
            ctr.scalar_mults += 1
        n = self._table
        if type(n) is int:
            # Unlocked: a count lost to another thread only delays the
            # build, hence >= rather than ==, and a count written over a
            # table another thread just built only costs a rebuild.
            self._table = n + 1
            if n + 1 >= _COMB_AT:
                self.precompute()
        return self._mul_reduced(k, ctr)

    def _mul_reduced(self, k: int, ctr) -> "Point":
        """k * self for 0 <= k < q, with one inversion when k is nonzero.

        A precomputed base recodes k into signed radix-64 digits in
        [-31, 32] and walks its comb table; any other point recodes k as a
        width-4 wNAF over its odd multiples. Both sum with the complete formulas
        alone, so the neutral point, torsion points and intermediate sums
        that meet a table entry need no special case.
        """
        c = self.curve
        if k == 0:
            return c.neutral()
        if type(self._table) is list:
            X, Y, Z, _, dbls, adds = _mul_table(c.p, [(self._table, k)])
        else:
            X, Y, Z, dbls, adds = _mul_wnaf(c.p, c.d, [(self.x, self.y, k)])
        if ctr is not None:
            ctr.inner_doubles += dbls
            ctr.inner_adds += adds
        return _affine(c, X, Y, Z, ctr)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return (
            self.x == other.x
            and self.y == other.y
            and (self.curve is other.curve or self.curve == other.curve)
        )

    def __hash__(self):
        return hash((self.x, self.y, self.curve.p, self.curve.d))

    def encode(self) -> bytes:
        w = self.curve.coord_bytes
        return self.x.to_bytes(w, "big") + self.y.to_bytes(w, "big")

    @classmethod
    def decode(cls, data: bytes, curve: "CurveParams") -> "Point":
        w = curve.coord_bytes
        if len(data) != 2 * w:
            raise ValueError("point encoding has wrong length")
        pt = cls(int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"), curve)
        if not pt.on_curve():
            raise ValueError("point encoding not on curve")
        return pt

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


# ---------------------------------------------------------------------------
# curve parameters

_CURVE_FILE_KEYS = ("name", "p", "d", "Px", "Py", "q", "cofactor")


class CurveParams:
    """Static description of one curve plus its chosen base point."""

    __slots__ = ("name", "p", "d", "q", "cofactor", "coord_bytes", "_base")

    def __init__(self, name: str, p: int, d: int, gx: int, gy: int, q: int, cofactor: int):
        self.name = name
        self.p = p
        self.d = d % p
        self.q = q
        self.cofactor = cofactor
        self.coord_bytes = (p.bit_length() + 7) // 8
        self._base = Point(gx, gy, self)

    @property
    def base(self) -> Point:
        return self._base

    def neutral(self) -> Point:
        return Point(0, 1, self)

    def scalar(self, v: int) -> Scalar:
        return Scalar(v, self.q)

    def random_nonzero(self, rng) -> Scalar:
        """Uniform draw from [1, q-1]; zero draws are redrawn a bounded
        number of times so a broken source fails loudly instead of looping."""
        for _ in range(_DRAW_ATTEMPTS):
            v = rng.randrange(0, self.q)
            if v != 0:
                return Scalar(v, self.q)
        raise RngError("randomness source keeps returning zero")

    def __eq__(self, other):
        if not isinstance(other, CurveParams):
            return NotImplemented
        return (
            self.p == other.p
            and self.d == other.d
            and self.q == other.q
            and self.cofactor == other.cofactor
            and self._base.x == other._base.x
            and self._base.y == other._base.y
        )

    def __hash__(self):
        return hash((self.p, self.d, self.q))

    def __repr__(self):
        return f"CurveParams({self.name!r}, p={self.p}, d={self.d}, q={self.q})"

    # -- key=value fixture format ------------------------------------------

    def format_file(self) -> str:
        vals = {
            "name": self.name,
            "p": self.p,
            "d": self.d,
            "Px": self._base.x,
            "Py": self._base.y,
            "q": self.q,
            "cofactor": self.cofactor,
        }
        return "".join(f"{k}={vals[k]}\n" for k in _CURVE_FILE_KEYS)

    @classmethod
    def parse_file(cls, text: str) -> "CurveParams":
        fields = parse_kv(text, required=_CURVE_FILE_KEYS)
        curve = cls(
            name=fields["name"],
            p=int(fields["p"]),
            d=int(fields["d"]),
            gx=int(fields["Px"]),
            gy=int(fields["Py"]),
            q=int(fields["q"]),
            cofactor=int(fields["cofactor"]),
        )
        if not curve.base.on_curve():
            raise ValueError("curve file: base point not on curve")
        # curve1174 is the built-in curve, with P's shipped table. The name
        # must match too: format_file, and so SystemParams.digest, has it.
        if curve.name == _CURVE1174["name"] and curve == production_curve():
            return production_curve()
        return curve


def parse_kv(text: str, required=()) -> dict:
    """Parse the shared key=value line format. Unknown keys are kept;
    duplicates and junk lines are rejected."""
    fields = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value")
        key, val = line.split("=", 1)
        key = key.strip()
        if key in fields:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = val.strip()
    for key in required:
        if key not in fields:
            raise ValueError(f"missing key {key!r}")
    return fields


# ---------------------------------------------------------------------------
# the two shipped curves

# Curve1174 (Bernstein, Hamburg, Krasnova, Lange): x^2+y^2 = 1 - 1174 x^2 y^2
# over GF(2^251 - 9), cofactor 4, prime subgroup order 2^249 - 11332...711.
# Constants restated from the published curve description; the repository
# script tools/check_production_curve.py re-derives every claim (primality,
# d a non-residue, Hasse window, base point order) from p and d alone.
_P1174 = 2**251 - 9
_CURVE1174 = dict(
    name="curve1174",
    p=_P1174,
    d=_P1174 - 1174,
    gx=1582619097725911541954547006453739763381091388846394833492296309729998839514,
    gy=3037538013604154504764115728651437646519513534305223422754827055689195992590,
    q=2**249 - 11332719920821432534773113288178349711,
    cofactor=4,
)

# SHA-256 of data/curve1174_comb.bin: x || y, 32 bytes each, big-endian,
# of the 448 entries of Point(P).precompute()._table on curve1174, row by
# row. tools/write_comb_table.py writes the file, and
# tools/check_production_curve.py compares it with a fresh build.
_CURVE1174_COMB_SHA256 = "fd9a19f92f732cac7fe074f2346703faa10fa3dc6d659a61c1edcc1956128ec9"

_singletons: dict = {}


def _read_data(name: str) -> bytes:
    # a plain open next to this file: importing importlib.resources costs
    # more than reading either data file
    with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
        return fh.read()


def _curve1174_comb(curve: CurveParams, data: bytes) -> list:
    """curve1174's comb table for P from the shipped x || y entries.

    Refuses any data but the pinned file with ValueError: the entries are
    trusted as they are, with no on-curve or multiple-of-P check.
    """
    if hashlib.sha256(data).hexdigest() != _CURVE1174_COMB_SHA256:
        raise ValueError("curve1174 comb table does not match its pinned hash")
    p, d, w = curve.p, curve.d, curve.coord_bytes
    return _rows([
        _cache(p, d, int.from_bytes(data[i:i + w], "big"), int.from_bytes(data[i + w:i + 2 * w], "big"))
        for i in range(0, len(data), 2 * w)
    ])


def production_curve() -> CurveParams:
    """curve1174, with the comb table for P loaded from the package."""
    if "production" not in _singletons:
        c = CurveParams(**_CURVE1174)
        c.base._table = _curve1174_comb(c, _read_data("curve1174_comb.bin"))
        _singletons["production"] = c
    return _singletons["production"]


def toy_curve() -> CurveParams:
    """The small curve used by exhaustive tests, frozen in data/toy_curve.txt.

    Selected by tools/find_toy_curve.py: p = 1009, d the smallest quadratic
    non-residue whose curve has a prime-order subgroup of at least 100.
    """
    if "toy" not in _singletons:
        c = CurveParams.parse_file(_read_data("toy_curve.txt").decode())
        c.base.precompute()
        _singletons["toy"] = c
    return _singletons["toy"]


def curve_by_name(name: str) -> CurveParams:
    if name in ("toy", "toy1009"):
        return toy_curve()
    if name in ("prod", "production", "curve1174"):
        return production_curve()
    raise ValueError(f"unknown curve {name!r}")


def in_prime_subgroup(pt: Point) -> bool:
    """True when pt lies in the order-q subgroup.

    Cannot be written as (q * pt).is_neutral(): multiplication reduces the
    exponent mod q, which maps q to 0 and calls every point a member. Split
    the exponent as (q-1)+1 to keep the reduction out of the way.
    """
    if not pt.on_curve():
        return False
    return ((pt.curve.q - 1) * pt + pt).is_neutral()


def cofactored_equal(curve: CurveParams, terms, ms: int, ap: int) -> bool:
    """sum of k_i*Q_i over terms (Q_i, k_i) == O, up to a torsion point.

    Checks [cofactor]*(sum k_i*Q_i) == O in one pass and with no inversion.
    Terms on equal points are summed first. Every point with a comb table
    (P, and a public key once it has built one) is multiplied on its comb,
    the combs sharing their doublings; every other point joins one wNAF
    doubling chain, as -Q_i times q - k_i when that is the smaller scalar,
    so a term -R costs one addition. Then come the cofactor's doublings, and
    the result is compared with the neutral point in projective form,
    X == 0 and Y == Z. A sum of prime order never vanishes, so the only
    accepts the per-term check would refuse are those whose sum is pure
    torsion. The cofactor is applied by doubling, so it must be a power of
    two; validate_params notes any other.

    Scalars are ints. Books ms scalar multiplications and ap additions, the
    operations the equation stands for, and its inner steps.
    """
    p, d, q = curve.p, curve.d, curve.q
    merged = {}
    for pt, k in terms:
        curve.base._same_curve(pt)
        key = (pt.x, pt.y)
        if key in merged:
            merged[key][1] += k
        else:
            merged[key] = [pt, k]
    combs, chain = [], []
    for pt, k in merged.values():
        k %= q
        if not k:
            continue
        if type(pt._table) is list:
            combs.append((pt._table, k))
        elif 2 * k > q:
            chain.append((-pt.x % p, pt.y, q - k))
        else:
            chain.append((pt.x, pt.y, k))
    X, Y, Z, dbls, adds = 0, 1, 1, 0, 0
    addend = None
    if combs:
        X, Y, Z, T, dbls, adds = _mul_table(p, combs)
        addend = _cache_ext(p, d, X, Y, Z, T)
    if chain:
        X, Y, Z, more_dbls, more_adds = _mul_wnaf(p, d, chain, addend)
        dbls += more_dbls
        adds += more_adds
    for _ in range(curve.cofactor.bit_length() - 1):
        X, Y, Z, _ = _dbl(p, False, X, Y, Z)
        dbls += 1
    ctr = _active_counter.get()
    if ctr is not None:
        ctr.scalar_mults += ms
        ctr.point_adds += ap
        ctr.inner_doubles += dbls
        ctr.inner_adds += adds
    return X % p == 0 and (Y - Z) % p == 0


def hasse_holds(order: int, p: int) -> bool:
    """|order - (p+1)| <= 2*sqrt(p), checked without floats."""
    t = order - (p + 1)
    return t * t <= 4 * p


__all__ = [
    "CurveParams",
    "OpCounter",
    "Point",
    "Scalar",
    "curve_by_name",
    "cofactored_equal",
    "hasse_holds",
    "in_prime_subgroup",
    "inv_mod",
    "is_probable_prime",
    "parse_kv",
    "production_curve",
    "toy_curve",
]
