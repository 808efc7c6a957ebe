"""Exhaustive oracles for the toy curve: every point, brute-force logs.

They walk the whole field or the whole subgroup, so they refuse any field
above MAX_ENUMERABLE_P. Only the tests use them; the package does not.
"""

from edcred.curve import Point, Scalar, _add, _cache, inv_mod

# Hard cap for the exhaustive helpers; anything bigger is not a toy curve.
MAX_ENUMERABLE_P = 10_000


def enumerate_points(curve) -> list[Point]:
    """Every affine point of the curve, sorted by (x, y).

    Walks x and solves y^2 = (1-x^2)/(1-d*x^2) with a square-root table,
    so the cost is O(p) rather than O(p^2). Refuses non-toy fields.
    """
    p, d = curve.p, curve.d
    if p > MAX_ENUMERABLE_P:
        raise ValueError(f"enumeration capped at p <= {MAX_ENUMERABLE_P}")
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    pts = []
    for x in range(p):
        num = (1 - x * x) % p
        den = (1 - d * x * x) % p
        # d is a non-residue, so den vanishes for no x
        t = num * inv_mod(den, p) % p
        for y in roots.get(t, ()):
            pts.append(Point(x, y, curve))
    return pts


def dlp_bruteforce(target: Point, base: Point) -> Scalar:
    """Smallest k with k*base == target, by walking the subgroup.

    Only defined for toy curves and for base points of order dividing q;
    raises ValueError when target is not a multiple of base.
    """
    curve = base.curve
    if curve.p > MAX_ENUMERABLE_P:
        raise ValueError(f"brute force capped at p <= {MAX_ENUMERABLE_P}")
    if target.curve != curve:
        raise ValueError("points on different curves")
    p = curve.p
    tx, ty = target.x, target.y
    step = _cache(p, curve.d, base.x, base.y)
    X, Y, Z, T = 0, 1, 1, 0
    for k in range(curve.q):
        # (X:Y:Z) == (tx, ty) compared by cross-multiplying, no inversion
        if X == tx * Z % p and Y == ty * Z % p:
            return Scalar(k, curve.q)
        X, Y, Z, T = _add(p, True, X, Y, Z, T, *step)
    raise ValueError("target is not in the subgroup generated by base")
