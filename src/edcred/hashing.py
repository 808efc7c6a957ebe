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

    The product of values in [1, q-1] mod prime q stays in [1, q-1], and
    reordering the commitments cannot change it.
    """
    if not commitments:
        raise ValueError("empty commitment block")
    q = r_point.curve.q
    acc = 1
    for pt in commitments:
        acc = acc * hash_points(pt, r_point).v % q
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


def batch_weights(challenge: Scalar, responses: list[Scalar], curve: CurveParams) -> list[int]:
    """Weights z_1 = 1, z_2, ..., z_k that check k equations as one
    random linear combination (Bellare, Garay, Rabin, EUROCRYPT 1998).

    Every z_i after the first is the top 128 bits of SHA-256 over a seed
    and i, reduced mod q, with 0 and 1 moved up by two, so each weight is
    in [2, q-1]: one bad equation always shows, no later equation shares
    the first one's weight, and bad ones cancel each other with probability
    about 2^-128 (1/q on the toy curve). The seed hashes the challenge,
    which binds every commitment, every statement and the context, and
    every response, so the weights fall out only once the whole batch is
    fixed.
    """
    w = curve.coord_bytes
    payload = challenge.to_bytes(w) + b"".join(r.to_bytes(w) for r in responses)
    seed = hashlib.sha256(TAG_BATCH_WEIGHT + b":" + payload).digest()
    weights = [1]
    for i in range(1, len(responses)):
        digest = hashlib.sha256(seed + i.to_bytes(2, "big")).digest()
        z = int.from_bytes(digest[:16], "big") % curve.q
        weights.append(z if z > 1 else z + 2)
    return weights
