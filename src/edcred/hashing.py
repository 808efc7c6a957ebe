"""Hashing onto the exponent group.

All hash outputs are scalars in [1, q-1]: digests are reduced mod q (q is
the modulus every hash value is later multiplied or inverted under) and a
zero result is remapped to 1 so products of hash values stay invertible.
Each use site has its own domain tag, and points enter the digest through
their fixed-width encoding, so colliding inputs across roles would need a
SHA-256 collision.
"""

from __future__ import annotations

import hashlib

from .curve import CurveParams, Point, Scalar

TAG_ATTRIBUTE = b"ATTR"
TAG_POINT_PAIR = b"HPOINT"
TAG_CHALLENGE = b"FSCHAL"
TAG_BATCH_WEIGHT = b"FSBATCH"

# two vectors (t0, r0), (t1, r1), each with r == c*t (mod q)
Basis = tuple[tuple[int, int], tuple[int, int]]


def _to_scalar(tag: bytes, payload: bytes, curve: CurveParams) -> Scalar:
    digest = hashlib.sha256(tag + b":" + payload).digest()
    v = int.from_bytes(digest, "big") % curve.q
    return Scalar(v if v else 1, curve.q)


def _require_on_curve(pt: Point) -> Point:
    if not pt.on_curve():
        raise ValueError("refusing to hash an off-curve point")
    return pt


def hash_points(a: Point, b: Point) -> Scalar:
    """H(a, b): the commitment-times-nonce hash used throughout signing."""
    _require_on_curve(a)
    _require_on_curve(b)
    return _to_scalar(TAG_POINT_PAIR, a.encode() + b.encode(), a.curve)


def hash_block(commitments: list[Point], r_point: Point) -> Scalar:
    """Product of H(P_i, R) over all commitments, reduced mod q.

    Checks and encodes R once for the whole block. The product of values
    in [1, q-1] mod prime q stays in [1, q-1], and reordering the
    commitments cannot change it.
    """
    if not commitments:
        raise ValueError("empty commitment block")
    r = _require_on_curve(r_point).encode()
    curve = r_point.curve
    q = curve.q
    acc = 1
    for pt in commitments:
        acc = acc * _to_scalar(TAG_POINT_PAIR, _require_on_curve(pt).encode() + r, curve).v % q
    return Scalar(acc, q)


def attr_to_scalar(label, curve: CurveParams) -> Scalar:
    """Map an attribute label (str or bytes) to a nonzero scalar."""
    if isinstance(label, str):
        label = label.encode()
    if not label:
        raise ValueError("empty attribute label")
    return _to_scalar(TAG_ATTRIBUTE, label, curve)


def challenge_scalar(
    commitments: list[Point],
    statements: list[Point],
    context: bytes,
    curve: CurveParams,
) -> Scalar:
    """Challenge for proof transcripts: binds every commitment, every
    statement and the caller's context bytes. Lists are length-prefixed so
    adjacent fields cannot be reparsed into each other."""
    parts = [len(commitments).to_bytes(2, "big")]
    parts += [pt.encode() for pt in commitments]
    parts.append(len(statements).to_bytes(2, "big"))
    parts += [pt.encode() for pt in statements]
    parts.append(len(context).to_bytes(4, "big"))
    parts.append(context)
    return _to_scalar(TAG_CHALLENGE, b"".join(parts), curve)


def weight_basis(rows: Basis, c: int, q: int) -> Basis:
    """The two vectors that batch_weights maps its 64-bit halves through:
    rows, a basis of the lattice {(t, r) : r == c*t (mod q)} such as
    schnorr.euclid_rows gives, Lagrange-Gauss reduced, when 2^64 times the
    sum of its |t| and of its |r| are both below q; (2^64, 2^64*c) and
    (1, c) otherwise.

    Then two pairs (u, v) != (u', v') in [0, 2^64)^2 cannot give one z
    mod q: the difference vector (dz, dw) = du*(t0, r0) + dv*(t1, r1) has
    dz == 0 (mod q) and |dz| < q, so dz = 0, then dw == c*dz == 0 and
    |dw| < q, so dw = 0, and the basis has determinant +-q != 0, so
    du = dv = 0. A reduced basis of this lattice has both vectors near
    sqrt(q), so z and w run to about half q's bits plus 64: about 190 on
    curve1174, against 128 and 250 for (z, c*z). The fallback, whose z is
    u*2^64 + v itself and w = c*z, serves a c whose lattice has a vector
    much shorter than sqrt(q), such as 1, 2 or q - 1, and every c on a
    curve whose q is below 2^128.
    """
    (t0, r0), (t1, r1) = rows
    n0, n1 = t0 * t0 + r0 * r0, t1 * t1 + r1 * r1
    if n0 < n1:
        t0, r0, n0, t1, r1, n1 = t1, r1, n1, t0, r0, n0
    # (t1, r1) is the shorter: take from (t0, r0) the nearest multiple of
    # it, and swap while that makes (t0, r0) the shorter
    while True:
        m = (2 * (t0 * t1 + r0 * r1) + n1) // (2 * n1)
        t0, r0 = t0 - m * t1, r0 - m * r1
        n0 = t0 * t0 + r0 * r0
        if n0 >= n1:
            break
        t0, r0, n0, t1, r1, n1 = t1, r1, n1, t0, r0, n0
    if (abs(t0) + abs(t1)) << 64 < q and (abs(r0) + abs(r1)) << 64 < q:
        return (t0, r0), (t1, r1)
    return (1 << 64, c << 64), (1, c)


def batch_weights(
    challenge: Scalar, responses: list[Scalar], curve: CurveParams, basis: Basis
) -> list[tuple[int, int]]:
    """Weight pairs (z_1, w_1) = (1, c), (z_2, w_2), ..., (z_k, w_k), with
    w_i == c*z_i (mod q), that check k equations as one random linear
    combination (Bellare, Garay, Rabin, EUROCRYPT 1998): equation i takes
    z_i on its response and commitment and w_i on its statement.

    Every pair after the first maps the top 128 bits of SHA-256 over a seed
    and i, split into 64-bit halves u and v, through basis = ((t0, r0),
    (t1, r1)), two vectors with r == c*t (mod q): z_i = u*t0 + v*t1 and
    w_i = u*r0 + v*r1, both reduced mod q, with a z_i of 0 or 1 moved to
    (z_i + 2, w_i + 2c), so each z_i is in [2, q-1]. For a basis of that
    lattice with 2^64*(|t0| + |t1|) and 2^64*(|r0| + |r1|) below q
    (weight_basis) the map is injective, and for the fallback
    (2^64, 2^64*c), (1, c) it gives z_i the 128 bits themselves, mod q.
    Either way z_i is one of 2^128 residues, all equally likely, when q
    exceeds 2^128: one bad equation always shows, no later equation shares
    the first one's weight, and bad ones cancel each other with
    probability about 2^-128 (1/q on the toy curve).
    The seed hashes the challenge, which binds every commitment, every
    statement and the context, and every response, so the weights fall
    out only once the whole batch is fixed.
    """
    q, c = curve.q, challenge.v
    (t0, r0), (t1, r1) = basis
    w = curve.coord_bytes
    payload = challenge.to_bytes(w) + b"".join(r.to_bytes(w) for r in responses)
    seed = hashlib.sha256(TAG_BATCH_WEIGHT + b":" + payload).digest()
    weights = [(1, c)]
    for i in range(1, len(responses)):
        digest = hashlib.sha256(seed + i.to_bytes(2, "big")).digest()
        u, v = int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")
        z = (u * t0 + v * t1) % q
        if z > 1:
            weights.append((z, (u * r0 + v * r1) % q))
        else:
            weights.append((z + 2, (u * r0 + v * r1 + 2 * c) % q))
    return weights
