"""Reference oracles for the tests; the package does not use them.

Exhaustive ones for the toy curve, every point and brute-force logs, walk
the whole field or the whole subgroup, so they refuse any field above
MAX_ENUMERABLE_P. The reference disclosure verifier checks the plain,
uncofactored equations one by one through Point operations.
"""

from edcred.curve import Point, Scalar, _add, _cache, inv_mod
from edcred.hashing import challenge_scalar, hash_block
from edcred.issuance import MAX_ATTRIBUTES

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


def reference_verify_disclosure(token, params) -> bool:
    """verify_disclosure's verdict by the exact equations: the partition
    audit, s*P == h*Ppub + R with h = prod H(P_i, R), then the shared
    challenge and r*P == A + c*Q for each hidden-index proof on its own."""
    curve = params.curve
    n = token.n_attrs
    hidden, disclosed = set(token.hidden_points), set(token.disclosed)
    if not 1 <= n <= MAX_ATTRIBUTES or 0 not in hidden or hidden & disclosed:
        return False
    if hidden | disclosed != set(range(n)) or set(token.proofs) != hidden:
        return False
    if token.sig_h.v == 0 or any(m.v == 0 for m in token.disclosed.values()):
        return False
    if not all(pt.on_curve() for pt in [token.sig_r, *token.hidden_points.values()]):
        return False
    points = {**token.hidden_points, **{i: m * curve.base for i, m in token.disclosed.items()}}
    h = hash_block([points[i] for i in range(n)], token.sig_r)
    if token.sig_s * curve.base != h * params.p_pub + token.sig_r:
        return False
    ts = [token.proofs[i] for i in sorted(hidden)]
    if any(t.statement != token.hidden_points[i] for i, t in zip(sorted(hidden), ts)):
        return False
    c = challenge_scalar([t.commitment for t in ts], [t.statement for t in ts],
                         token.body_prefix(params), curve)
    return all(t.challenge == c and t.response * curve.base == t.commitment + c * t.statement
               for t in ts)
