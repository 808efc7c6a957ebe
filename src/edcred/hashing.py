"""Hashing onto the exponent group.

All hash outputs are scalars in [1, q-1]: digests are reduced mod q (q is
the modulus every hash value is later multiplied or inverted under) and a
zero result is remapped to 1 so products of hash values stay invertible.
Each use site has its own domain tag, and points enter the digest through
their fixed-width encoding, so colliding inputs across roles would need a
SHA-256 collision. Every domain tag is defined here, TAG_BATCH_WEIGHT
too: schnorr.check_weights hashes under it to the weight pairs of a
batched proof check, which are lattice pairs, not scalars of this kind.

Every secret a protocol step draws (a nonce, a blinding factor) goes through
hedged_scalar, which hashes the secret it guards with the rng's draw.
"""

from __future__ import annotations

import hashlib

from .curve import CurveParams, Point, Scalar

TAG_ATTRIBUTE = b"ATTR"
TAG_POINT_PAIR = b"HPOINT"
TAG_CHALLENGE = b"FSCHAL"
TAG_BATCH_WEIGHT = b"FSBATCH"
TAG_HEDGE = b"HEDGE"


def _to_scalar(tag: bytes, payload: bytes, curve: CurveParams) -> Scalar:
    digest = hashlib.sha256(tag + b":" + payload).digest()
    v = int.from_bytes(digest, "big") % curve.q
    return Scalar(v if v else 1, curve.q)


def hedged_scalar(curve: CurveParams, secret: Scalar, rng, context: bytes) -> Scalar:
    """A secret draw hedged with the secret it guards:
    H(tag, secret, rng.randrange(q), context) mod q, 0 mapped to 1.

    Takes one rng draw, so a seeded rng still gives identical bytes, but a
    guessed or weak stream no longer gives the drawn scalar to whoever
    lacks the secret (hedged randomness: Bellare et al., ASIACRYPT 2009;
    RFC 6979, section 3.6). A stream that repeats is still unsafe: equal
    draws under one secret and context give one scalar. context names the
    use site first, so that the draws one secret guards stay apart.
    """
    w = curve.coord_bytes
    draw = rng.randrange(curve.q)
    return _to_scalar(TAG_HEDGE, secret.to_bytes(w) + draw.to_bytes(w, "big") + context, curve)


def hash_points(a: Point, b: Point) -> Scalar:
    """H(a, b): the commitment-times-nonce hash used throughout signing."""
    return _to_scalar(TAG_POINT_PAIR, a.encode() + b.encode(), a.curve)


def hash_block(commitments: list[Point], r_point: Point) -> Scalar:
    """Product of H(P_i, R) over all commitments, each through hash_points,
    reduced mod q.

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
