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
Each batch of sums (sum_of_multiples; Point.multiples, k*P and P + Q are
batches) pays one field inversion, at the end, to return to affine form:
a batch inverts the product of its Z and peels each 1/Z off it
(Montgomery's trick), as a comb table's build does for each row.

The addition leaves its products A = X1*x2 and B = Y1*y2 unreduced: they
only feed E = (X1 + Y1)*(x2 + y2) - A - B and H = B - A, which are reduced
once each, so an addition reduces two values where it would reduce three.
Its second operand is cached as three words, (x, y, d*x*y), or four for an
extended point, and the addition forms x2 + y2 itself, one unreduced int
addition, so that a comb table keeps three words per entry.
_sum's one pass, where nearly all of the time goes, has the addition and
the doubling written out in place rather than called; _add and _dbl remain
the reference formulas, which every other caller uses and which compute
the same values.

The pass also reduces differently: it folds where _add and _dbl divide.
If 2^K = c (mod p), every integer v, negative ones too, satisfies
v = (v >> K)*c + (v & (2^K - 1)) (mod p), so a fold is a shift, a small
multiple and an addition where v % p is a long division; curve1174's
p = 2^251 - 9 was chosen for this, with (K, c) = (251, 9). A folded value
is congruent to the reduced one but not reduced itself, so the pass ends
with X, Y and Z mod p, the integers the reference steps give.
_fold_constants picks (K, c) for each curve, and _sum's docstring derives
the bound that keeps the folded values from growing.

Every multiple, sum and addition is one _sum, under one rule: a sum of
terms k*Q is exact in its integer scalars, torsion included. A term on a
point with a comb table, which only P and Ppub have, counts k mod the
group order cofactor*q, which kills every point, unless k is +-1, and is
multiplied by a signed radix-256 comb one level deep: row j of the table
holds m*2^(8j)*B for m = 1..128, so a multiple looks up one entry and
makes one mixed addition per nonzero digit, about 31 additions and no
doubling. Interleaving the rows over three levels (Lim and Lee, CRYPTO
1994) would keep a third of the entries for doublings on every multiple;
the doublings cost more time than the entries cost memory. Any other term
runs as |k| times +-Q, with no reduction, as a width-4 wNAF: about 250
doublings and 50 additions for a 249-bit k, one addition for k = +-1.
Every term of a sum drops its points into buckets by position, the comb
ones at position 0, and one pass walks down the positions, doubling once
per position and adding each bucket, so all the wNAF terms share one
doubling chain (Straus's trick; Hankerson, Menezes, Vanstone, "Guide to
Elliptic Curve Cryptography", 3.3.3). The pass only adds and doubles with
the complete formulas, so it needs no case for the neutral point, a
torsion point or an addition whose two operands are equal.

Point.multiples, and so k*Q, takes k mod q first, as a Scalar holds it, so
k*Q == (k mod q)*Q exactly for every Q; P + Q is the sum 1*P + 1*Q. A
caller that wants a short chain passes a small k as it is, negative or
not. A check needs no multiple in affine form, only whether an equation
holds: sum_is_neutral compares its one sum with the neutral point in
projective form, so a whole batch of proofs pays for one chain and no
inversion. Its required keyword names the policy at each call: cofactored,
as the proof checks are, or exact, as the signature checks are. A
cofactored check needs no step of its own: it runs each k_i as its
representative of k_i mod q nearest zero times the cofactor h, so the sum
is h times the exact one, and a pure-torsion sum passes (cofactored
verification, as in Chalkias, Garillot, Nikolaenko, "Taming the many
EdDSAs", SSR 2020). The nearest representative keeps the chain short: a
k_i == -5 (mod q) runs a chain of bits(5*h), not one of bits(q).

Only a deployment's two fixed bases get a table. curve1174's generator P
ships its table in data/curve1174_comb.bin, pinned by hash, as Ed25519
ships its base-point table (Bernstein et al., CHES 2011), and a parsed
curve1174 is the built-in one, so it shares that table. Loading checks the
file's hash and decodes no entry: each row decodes an entry the first time
a digit needs it. The toy curve builds its two-row table for P on load.
The public key Ppub builds its table at its _COMB_AT-th signature check,
which SystemParams counts (params.py). Every other point, P of any other
curve object included, takes the wNAF path unless precompute() is called
on it, so a verifier that re-checks one token builds no table for it.

Every Point is on its curve by construction: Point(x, y, curve) refuses a
pair off the curve or a coordinate outside [0, p), and results of group
arithmetic, which the complete law keeps on the curve, skip the check. No
other module checks a point again.

Two moduli are in play and must not be mixed: coordinates are integers mod p,
exponents are Scalar values mod q. Coordinates are kept as plain ints inside
Point; Scalar is a real class because scalars cross module boundaries where a
silent modulus mixup would be the expensive bug.
"""

from __future__ import annotations

import contextvars
import hashlib
import os

from .errors import RngError, WireError

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


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _MR_BASES (psi_12)
_MR_EXACT_BELOW = 318665857834031151167461


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin. The bases 2 to 37 decide every n below
    318665857834031151167461, the least strong pseudoprime to all of
    them. From there on 64 more rounds take their bases from
    SHA-256(n || i), so that a composite built to pass fixed bases, as a
    loaded curve file may state, passes with probability at most 4^-64
    (Albrecht et al., "Prime and Prejudice", CCS 2018)."""
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    bases = list(_MR_BASES)
    if n >= _MR_EXACT_BELOW:
        nb = n.to_bytes((n.bit_length() + 7) // 8, "big")
        bases += [2 + int.from_bytes(hashlib.sha256(nb + bytes([i])).digest(), "big") % (n - 3)
                  for i in range(64)]
    for a in bases:
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
    point_adds tick per explicit addition, and for sum_of_multiples and
    sum_is_neutral the Ms and Ap their caller says the sum stands for.
    The steps of a sum land in inner_adds / inner_doubles and stay out of
    the headline numbers. A sum is one pass that adds every point its
    terms drop into a bucket, the first loaded rather than added, and
    doubles once per position below the highest wNAF digit of any term:
    a term on a comb drops one table entry per nonzero digit, at position
    0, so a sum of those never doubles; a wNAF term drops one odd multiple
    per nonzero digit, and it books one doubling and up to three additions
    for its table of odd multiples.
    inversions counts field inversions mod p: one per batch, the return to
    affine form (so one per k*P, per Point.multiples() call and per
    addition), none for a batch whose every sum has no nonzero term, none
    for sum_is_neutral, and one per row of a precompute() (32 on
    curve1174, 2 on the toy curve). The signature check at which
    SystemParams builds Ppub's table books the build's inversions too.

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
# is cached: (x, y, d*x*y) for an affine point, which _cache builds and a
# comb table holds, or (X, Y, d*T, Z) for an extended one, which _cache_ext
# builds; the addition forms x2 + y2 itself. Only an addition reads T, so a
# step whose result is next doubled or returned to affine form passes
# need_t=False and skips that product.

# Fixed-base comb: signed radix 2^_W digits, one level. Digit j of k weighs
# 2^(_W*j), and row j of a table maps m to m * 2^(_W*j) * B for
# m = 1..2^(_W-1), so each nonzero digit is one row entry, negated for a
# negative digit, and a multiple needs no doubling.
_W = 8
# Variable base: wNAF width, digits odd in [1 - 2^(_WNAF-1), 2^(_WNAF-1) - 1].
_WNAF = 4


def _fold_constants(p):
    """(K, c) for folding mod p in _sum's pass: the least K >= bits(p)
    with 16c < 2^(K//4), where c = 2^K mod p. That is (251, 9) on
    curve1174 and (46, 101) on the toy curve.

    The bound the pass rests on needs c small against 2^(K/4). K = bits(p)
    alone gives c = 15 against 2^(10//4) = 4 on the toy curve, where the
    folded values grow with every step: the sums stay exact, as every fold
    is, but each step costs more the longer the chain. As
    c < p < 2^bits(p), the search ends by K = 4*bits(p) + 16 for every p,
    and each step doubles c mod p, so a huge p costs O(bits(p))
    additions, not an exponentiation a step: about 0.1 s for the widest
    p a params file can state, 4300 decimal digits, the limit of int().
    """
    K = p.bit_length()
    c = (1 << K) % p
    while 16 * c >= 1 << (K // 4):
        K += 1
        c += c
        if c >= p:
            c -= p
    return K, c


def _cache(p, d, x, y):
    return x, y, d * x % p * y % p


def _cache_ext(p, d, X, Y, Z, T):
    return X, Y, d * T % p, Z


def _neg(p, x, y, u, z=1):
    # the cached form of -(x, y) = (-x, y)
    return p - x, y, p - u, z


def _add(p, need_t, X1, Y1, Z1, T1, x2, y2, u2, z2=1):
    # add-2008-hwcd: 9 multiplications, 8 when the second operand is affine,
    # one fewer without T. F and G are Z1*Z2*(1 -+ d*x1*x2*y1*y2), never
    # zero on curve points. A, B and x2 + y2 stay unreduced: E and H each
    # reduce once. _sum's pass inlines this and _dbl step for step, and
    # folds where these reduce.
    A = X1 * x2
    B = Y1 * y2
    C = T1 * u2 % p
    D = Z1 if z2 == 1 else Z1 * z2 % p
    E = ((X1 + Y1) * (x2 + y2) - A - B) % p
    F = D - C
    G = D + C
    H = (B - A) % p
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


def _to_affine(p, ext, ctr) -> list:
    """The affine (x, y) of every (X, Y, Z, ...) in ext, with one inversion
    for all of them (Montgomery's trick): invert the product of every Z,
    then walk back from the last entry, peeling one 1/Z_i off per entry."""
    if not ext:
        return []
    # prefix[i] = Z_0 * ... * Z_(i-1)
    prefix = [1]
    for e in ext:
        prefix.append(prefix[-1] * e[2] % p)
    inv = pow(prefix.pop(), -1, p)
    if ctr is not None:
        ctr.inversions += 1
    out = []
    for e in reversed(ext):
        zi = inv * prefix.pop() % p
        inv = inv * e[2] % p
        out.append((e[0] * zi % p, e[1] * zi % p))
    out.reverse()
    return out


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
            raise WireError("scalar encoding out of range")
        return cls(v, q)

    def __repr__(self):
        return f"Scalar({self.v})"


# ---------------------------------------------------------------------------
# points

class Point:
    """An affine point, on its curve by construction: the constructor raises
    ValueError otherwise. Treat instances as immutable."""

    __slots__ = ("x", "y", "curve", "_table")

    def __init__(self, x: int, y: int, curve: "CurveParams"):
        self.x = x
        self.y = y
        self.curve = curve
        # the comb table, a list of rows, or None
        self._table = None
        if not self.on_curve():
            raise ValueError("point not on curve")

    @classmethod
    def _of(cls, x: int, y: int, curve: "CurveParams") -> "Point":
        """(x, y) unchecked: a result of group arithmetic, on the curve."""
        pt = object.__new__(cls)
        pt.x, pt.y, pt.curve, pt._table = x, y, curve, None
        return pt

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

    def __add__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return sum_of_multiples(self.curve, [[(self, 1), (other, 1)]], ms=0, ap=1)[0]

    def __neg__(self):
        return Point._of(-self.x % self.curve.p, self.y, self.curve)

    def __sub__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.__add__(-other)

    def precompute(self) -> "Point":
        """Build the comb table so repeated multiples cost few additions.

        Row j maps m to m * 2^(8j) * self for m = 1..128, in the cached
        form (x, y, d*x*y): one row per digit of a scalar below the group
        order cofactor*q, 32 rows and 4096 entries on curve1174. A
        negative digit uses the negated entry, so each nonzero digit of k
        costs one 8-multiplication mixed addition. Each row is built from its affine base 2^(8j) * self in
        extended coordinates, with mixed additions for m = 2..128 and one
        doubling of 128 * 2^(8j) * self for the next row's base, and comes
        back to affine form, next base included, with one inversion of its
        own (Montgomery's trick): a build holds at most one row of
        extended points and books one inversion per row.

        The build costs about 28 wNAF multiples, so nothing calls it
        eagerly on curve1174: P ships its table, and SystemParams calls
        this for Ppub at its _COMB_AT-th signature check.
        """
        if self._table is None:
            c = self.curve
            p, d = c.p, c.d
            half = 1 << (_W - 1)
            ctr = _active_counter.get()
            table = []
            x, y = self.x, self.y
            for _ in range((c.cofactor * c.q).bit_length() // _W + 1):
                step = _cache(p, d, x, y)
                pt = (x, y, 1, x * y % p)
                ext = [pt]
                for _ in range(half - 1):
                    pt = _add(p, True, *pt, *step)
                    ext.append(pt)
                ext.append(_dbl(p, False, *pt[:3]))
                *row, (x, y) = _to_affine(p, ext, ctr)
                table.append(dict(zip(range(1, half + 1), [_cache(p, d, *xy) for xy in row])))
            self._table = table
        return self

    def __rmul__(self, k):
        """k * self, k an int or a Scalar mod q: a batch of one multiple."""
        if not isinstance(k, (int, Scalar)):
            return NotImplemented
        return self.multiples((k,))[0]

    def multiples(self, ks) -> list:
        """[k * self for k in ks], each k an int or a Scalar mod q, as one
        batch of one-term sums (sum_of_multiples): one inversion for the
        whole batch, none for a batch of zeros.

        Each k is taken mod q, as a Scalar holds it, and books one scalar
        multiplication; the multiple is then exact, (k mod q)*self, on
        self's comb if it has one and on the wNAF chain otherwise.
        """
        c = self.curve
        sums = []
        for k in ks:
            if isinstance(k, Scalar):
                if k.q != c.q:
                    raise ValueError("scalar from a different group")
                k = k.v
            elif not isinstance(k, int):
                raise TypeError("a multiple needs an int or a Scalar")
            sums.append([(self, k % c.q)])
        return sum_of_multiples(c, sums, ms=len(sums), ap=0)

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
            raise WireError("point encoding has wrong length")
        try:
            return cls(int.from_bytes(data[:w], "big"), int.from_bytes(data[w:], "big"), curve)
        except ValueError:
            raise WireError("point encoding not on curve") from None

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


# ---------------------------------------------------------------------------
# curve parameters

_CURVE_FILE_KEYS = ("name", "p", "d", "Px", "Py", "q", "cofactor")


class CurveParams:
    """Static description of one curve plus its chosen base point.

    The constructor owns every rule that needs no exponentiation and no
    multiple. parse_file, where a curve comes in from outside, adds the
    others: p and q prime, d a non-square and q*P == O."""

    __slots__ = ("name", "p", "d", "q", "cofactor", "coord_bytes", "_fold", "_base")

    def __init__(self, name: str, p: int, d: int, gx: int, gy: int, q: int, cofactor: int):
        if p < 3 or q < 2 or cofactor < 1:
            raise ValueError("curve: needs p >= 3, q >= 2 and cofactor >= 1")
        # a point of order q makes the group order a multiple of q in the
        # Hasse window, and q > 4*sqrt(p) leaves one there: cofactor * q,
        # which kills every point, as _sum's comb terms and the cofactored
        # check rely on
        if q * q <= 16 * p or not hasse_holds(cofactor * q, p):
            raise ValueError("curve: the Hasse bound does not pin cofactor * q as the group order")
        if d % p in (0, 1):
            raise ValueError("curve: d is 0 or 1")
        self.name = name
        self.p = p
        self.d = d % p
        self.q = q
        self.cofactor = cofactor
        self.coord_bytes = (p.bit_length() + 7) // 8
        self._fold = _fold_constants(p)
        self._base = Point(gx, gy, self)
        if self._base.is_neutral():
            raise ValueError("curve: base point is neutral")

    @property
    def base(self) -> Point:
        return self._base

    def neutral(self) -> Point:
        return Point._of(0, 1, self)

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
        # curve1174 is the built-in curve, with P's shipped table. The name
        # must match too: format_file, and so SystemParams.digest, has it.
        # tools/check_production_curve.py runs the rules below on its
        # constants, so a file that states them skips them.
        if curve.name == _CURVE1174["name"] and curve == production_curve():
            return production_curve()
        if not (is_probable_prime(curve.p) and is_probable_prime(curve.q)):
            raise ValueError("curve: p and q must be prime")
        if pow(curve.d, (curve.p - 1) // 2, curve.p) != curve.p - 1:
            raise ValueError("curve: d is a square, the addition law is not complete")
        if not in_prime_subgroup(curve.base):
            raise ValueError("curve: base point outside the prime-order subgroup")
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
# of the 4096 entries of Point(P).precompute()._table on curve1174, row by
# row, digit 1 first. tools/write_comb_table.py writes the file, and
# tools/check_production_curve.py compares it with a fresh build.
_CURVE1174_COMB_SHA256 = "88c13f9bf2703f2ec8a5d903fc9f90bd8690270599107639bcab8cc51badd56b"

_singletons: dict = {}


def _read_data(name: str) -> bytes:
    # a plain open next to this file: importing importlib.resources costs
    # more than reading either data file
    with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
        return fh.read()


class _ShippedRow(dict):
    """A row of a shipped comb table: digit m -> m's cached entry, decoded
    from the file's x || y the first time a multiple reads it. Two threads
    that miss the same digit decode and store the same value."""

    __slots__ = ("_curve", "_data", "_at")

    def __init__(self, curve: CurveParams, data: bytes, at: int):
        self._curve = curve
        self._data = data
        self._at = at

    def __missing__(self, m):
        if type(m) is not int or not 0 < m <= 1 << (_W - 1):
            raise KeyError(m)
        c = self._curve
        w = c.coord_bytes
        i = self._at + 2 * w * (m - 1)
        x = int.from_bytes(self._data[i:i + w], "big")
        y = int.from_bytes(self._data[i + w:i + 2 * w], "big")
        entry = self[m] = _cache(c.p, c.d, x, y)
        return entry


def _curve1174_comb(curve: CurveParams, data: bytes) -> list:
    """curve1174's comb table for P from the shipped x || y entries, as
    rows that decode each entry on first use.

    Refuses any data but the pinned file with ValueError: the entries are
    trusted as they are, with no on-curve or multiple-of-P check.
    """
    if hashlib.sha256(data).hexdigest() != _CURVE1174_COMB_SHA256:
        raise ValueError("curve1174 comb table does not match its pinned hash")
    size = 2 * curve.coord_bytes << (_W - 1)
    return [_ShippedRow(curve, data, at) for at in range(0, len(data), size)]


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
    non-residue whose curve has a prime-order subgroup of order q with
    q^2 > 16p (q = 131).
    """
    if "toy" not in _singletons:
        c = CurveParams.parse_file(_read_data("toy_curve.txt").decode())
        c.base.precompute()
        _singletons["toy"] = c
    return _singletons["toy"]


def curve_by_name(name: str) -> CurveParams:
    if name == "toy":
        return toy_curve()
    if name == "prod":
        return production_curve()
    raise ValueError(f"unknown curve {name!r}")


def in_prime_subgroup(pt: Point) -> bool:
    """True when pt lies in the order-q subgroup: the exact sum q*pt is
    the neutral point, with no inversion. A load check, like
    SystemParams' small-order rule, so it books no Ms and no Ap, only
    its inner steps."""
    return sum_is_neutral(pt.curve, [(pt, pt.curve.q)], ms=0, ap=0, cofactored=False)


def _sum(curve: CurveParams, terms, ctr):
    """sum of k_i*Q_i over terms (Q_i, k_i), int k_i, as extended
    (X, Y, Z) with no inversion, or None when no term is left; books its
    inner steps on ctr.

    The module's one rule: terms on equal points are summed first, and
    then a term on a point with a comb table (P or Ppub) counts k_i mod
    the group order n = cofactor*q on its comb unless k_i is +-1, which
    the comb reads as n - 1, and any other term runs as |k_i|*(+-Q_i) on
    the chain, with no reduction. n*Q == O for every Q, so the sum is
    exact in the scalars as given.

    Every term drops cached points into buckets by position, and one pass
    adds them all on one doubling chain (Straus's trick, as interleaving
    with NAFs in Hankerson, Menezes, Vanstone): a comb term drops one row
    entry per nonzero signed radix-2^_W digit, negated for a negative
    digit, at position 0; a chain term drops one of +-Q, +-3Q, ... per
    nonzero width-_WNAF NAF digit, at that digit's position. The pass
    starts from one point, loaded rather than added: the top digit of the
    chain term whose top position is highest, taken out of its bucket, or
    with no chain term the first comb entry. It then doubles once per
    position below and adds each position's bucket, with _dbl and _add
    written out.
    Only an addition reads T, so a doubling makes T only before a
    non-empty bucket, and an addition only when another one follows it.

    A comb digit above 2^(_W-1) becomes digit - 2^_W and carries one into
    the next: k < n < 2^b needs b // _W + 1 digits, one per row, and the
    top digit and its carry stay within 2^(_W-1). A chain term's odd
    multiples stay extended, so they are added with the general Z2 and the
    sum still inverts at most once; a term builds no multiple beyond the
    odd part of k, as no digit exceeds it.

    The pass folds instead of reducing, with the curve's (K, c), ck in the
    code: a value that only feeds the next product (A, B, E and F of a
    doubling; T*u2, Z*z2, E and H of an addition) once, and X, Y, Z and T,
    which carry from step to step, twice; it returns X, Y and Z mod p.
    The bound: a fold of any |v| <= n lies within
    f(n) = ((n >> K) + 1)*c + 2^K - 1 of zero. Let R = 2^K > p, every
    cached operand lie in [0, p], as _cache, _cache_ext and _neg make
    them, and X, Y, Z and T below 2R in absolute value. Then every
    once-folded value lies below (8c + 2)*R, every product that is folded
    twice below ((8c + 4)*R)^2, and its second fold within
    R + c^2*(8c + 4)^2 + 2c - 1 of zero. That is below 2R: for c >= 1,
    16c < 2^(K//4) <= R^(1/4) makes c^2*(8c + 4)^2 <= 144c^4 < R/455 and
    2c < R/2. The loaded point is reduced, so by induction X, Y, Z and T
    stay below 2R at every step, and the products stay below 2^(2K + 13)
    on curve1174.
    """
    p, d, n = curve.p, curve.d, curve.cofactor * curve.q
    K, ck = curve._fold
    lo = (1 << K) - 1
    merged = {}
    for pt, k in terms:
        if pt.curve is not curve and pt.curve != curve:
            raise ValueError("points on different curves")
        key = (pt.x, pt.y)
        if key in merged:
            merged[key][1] += k
        else:
            merged[key] = [pt, k]
    half, mask = 1 << (_W - 1), (1 << _W) - 1
    # position 0's bucket, chain terms (+-x, y, |k|)
    zero, chain = [], []
    for pt, k in merged.values():
        if pt._table is not None and k != 1 and k != -1:
            k %= n
            for row in pt._table:
                dgt = k & mask
                k >>= _W
                if dgt > half:
                    k += 1
                    x2, y2, u2 = row[mask + 1 - dgt]
                    zero.append((p - x2, y2, p - u2, 1))
                elif dgt:
                    x2, y2, u2 = row[dgt]
                    zero.append((x2, y2, u2, 1))
        elif k:
            chain.append((pt.x if k > 0 else -pt.x % p, pt.y, abs(k)))
    buckets = [zero]
    dbls = adds = 0
    top = -1
    for x, y, k in chain:
        odd = [(x, y, 1, x * y % p)]
        # no digit exceeds k's odd part, so k = 4 builds no 3Q
        n_odd = min(1 << (_WNAF - 2), (k // (k & -k) + 1) >> 1)
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
        digits = _wnaf(k)
        pos, dgt = digits[-1]
        buckets += [[] for _ in range(len(buckets), pos + 1)]
        for at, digit in digits:
            buckets[at].append(lut[digit])
        if pos > top:
            top, load, slot = pos, odd[dgt >> 1], len(buckets[pos]) - 1
    if chain:
        del buckets[top][slot]
        X, Y, Z, T = load
    elif zero:
        top = 0
        x, y = zero.pop(0)[:2]
        X, Y, Z, T = x, y, 1, x * y % p
    else:
        return None
    for pos in range(top, -1, -1):
        bucket = buckets[pos]
        if pos < top:
            A = X * X
            A = (A >> K) * ck + (A & lo)
            B = Y * Y
            B = (B >> K) * ck + (B & lo)
            E = 2 * X * Y
            E = (E >> K) * ck + (E & lo)
            G = A + B
            F = G - 2 * Z * Z
            F = (F >> K) * ck + (F & lo)
            H = A - B
            X = E * F
            X = (X >> K) * ck + (X & lo)
            X = (X >> K) * ck + (X & lo)
            Y = G * H
            Y = (Y >> K) * ck + (Y & lo)
            Y = (Y >> K) * ck + (Y & lo)
            Z = F * G
            Z = (Z >> K) * ck + (Z & lo)
            Z = (Z >> K) * ck + (Z & lo)
            if not bucket:
                continue
            T = E * H
            T = (T >> K) * ck + (T & lo)
            T = (T >> K) * ck + (T & lo)
        last = len(bucket) - 1
        adds += last + 1
        for i, (x2, y2, u2, z2) in enumerate(bucket):
            A = X * x2
            B = Y * y2
            C = T * u2
            C = (C >> K) * ck + (C & lo)
            if z2 == 1:
                D = Z
            else:
                D = Z * z2
                D = (D >> K) * ck + (D & lo)
            E = (X + Y) * (x2 + y2) - A - B
            E = (E >> K) * ck + (E & lo)
            H = B - A
            H = (H >> K) * ck + (H & lo)
            F = D - C
            G = D + C
            X = E * F
            X = (X >> K) * ck + (X & lo)
            X = (X >> K) * ck + (X & lo)
            Y = G * H
            Y = (Y >> K) * ck + (Y & lo)
            Y = (Y >> K) * ck + (Y & lo)
            Z = F * G
            Z = (Z >> K) * ck + (Z & lo)
            Z = (Z >> K) * ck + (Z & lo)
            if i < last:
                T = E * H
                T = (T >> K) * ck + (T & lo)
                T = (T >> K) * ck + (T & lo)
    if ctr is not None:
        ctr.inner_doubles += dbls + top
        ctr.inner_adds += adds
    return X % p, Y % p, Z % p


def _booked(ms: int, ap: int):
    """The installed counter, with ms scalar multiplications and ap
    additions booked on it, or None."""
    ctr = _active_counter.get()
    if ctr is not None:
        ctr.scalar_mults += ms
        ctr.point_adds += ap
    return ctr


def sum_of_multiples(curve: CurveParams, sums, ms: int, ap: int) -> list:
    """[sum of k_i*Q_i over terms (Q_i, k_i) for terms in sums], in affine
    form, with one inversion for the whole batch and none when no sum has
    a term left.

    Each sum is exact in its int scalars (_sum), negative or at least q
    alike. Books ms scalar multiplications and ap additions, the
    operations the batch stands for, and the inner steps.
    """
    ctr = _booked(ms, ap)
    ext = [_sum(curve, terms, ctr) for terms in sums]
    affine = iter(_to_affine(curve.p, [e for e in ext if e is not None], ctr))
    return [curve.neutral() if e is None else Point._of(*next(affine), curve) for e in ext]


def sum_is_neutral(curve: CurveParams, terms, ms: int, ap: int, *, cofactored: bool) -> bool:
    """sum of k_i*Q_i over terms (Q_i, k_i) == O; with cofactored, up to a
    torsion point.

    Computes one sum, exact in its int scalars as sum_of_multiples' is,
    and compares it with the neutral point in projective form, X == 0 and
    Y == Z, with no inversion: with cofactored=False a pure-torsion sum is
    refused, so the signature checks' terms s*P, -h*Ppub and -R catch a
    torsion error in R. With cofactored=True each k_i is first taken to
    its representative of k_i mod q nearest zero, then multiplied by the
    cofactor h, so the sum is [h]*(sum k_i*Q_i): the group order is h*q
    (the Hasse bound and a base point of order q pin it), so h*q*Q == O
    for every Q and h*k_i*Q_i == h*(k_i mod q)*Q_i. A sum of prime order
    never vanishes, so the only accepts the exact check would refuse are
    those whose sum is pure torsion. The chain is as long as the longest
    scaled scalar, hence the nearest representative.

    Books ms scalar multiplications and ap additions, the operations the
    equation stands for, and its inner steps.
    """
    p = curve.p
    if cofactored:
        half, h = curve.q // 2, curve.cofactor
        terms = [(pt, h * ((k + half) % curve.q - half)) for pt, k in terms]
    X, Y, Z = _sum(curve, terms, _booked(ms, ap)) or (0, 1, 1)
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
    "hasse_holds",
    "in_prime_subgroup",
    "inv_mod",
    "is_probable_prime",
    "parse_kv",
    "production_curve",
    "sum_is_neutral",
    "sum_of_multiples",
    "toy_curve",
]
