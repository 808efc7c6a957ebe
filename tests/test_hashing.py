"""Hash-to-scalar maps, checked against an independent big-int oracle."""

import hashlib

import pytest

from edcred.curve import Scalar
from edcred.hashing import (
    TAG_ATTRIBUTE,
    TAG_HEDGE,
    TAG_POINT_PAIR,
    attr_to_scalar,
    challenge_scalar,
    hash_block,
    hash_points,
    hedged_scalar,
)

from conftest import make_rng


def oracle_pair_hash(a, b, curve):
    """Recompute H(A, B) from the wire-format definition by hand."""
    w = curve.coord_bytes
    payload = b"".join(v.to_bytes(w, "big") for v in (a.x, a.y, b.x, b.y))
    digest = hashlib.sha256(TAG_POINT_PAIR + b":" + payload).digest()
    v = int.from_bytes(digest, "big") % curve.q
    return v or 1


def test_hash_points_matches_oracle(toy, prod):
    for c in (toy, prod):
        rng = make_rng(f"hp:{c.name}")
        for _ in range(30):
            a = rng.randrange(1, c.q) * c.base
            b = rng.randrange(1, c.q) * c.base
            got = hash_points(a, b)
            assert got == Scalar(oracle_pair_hash(a, b, c), c.q)
            assert 1 <= got.v < c.q


def test_hash_points_order_sensitive(toy):
    a, b = 3 * toy.base, 4 * toy.base
    assert hash_points(a, b) != hash_points(b, a)


def test_hash_block_is_product_of_pair_hashes(toy, prod):
    # independent route: big-int product of the per-pair oracle values
    for c in (toy, prod):
        rng = make_rng(f"hb:{c.name}")
        r = rng.randrange(1, c.q) * c.base
        pts = [rng.randrange(1, c.q) * c.base for _ in range(6)]
        prodv = 1
        for pt in pts:
            prodv = prodv * oracle_pair_hash(pt, r, c) % c.q
        assert hash_block(pts, r) == Scalar(prodv, c.q)


def test_hash_block_single(toy):
    r = 5 * toy.base
    assert hash_block([toy.base], r) == hash_points(toy.base, r)


def test_hash_block_rejects_empty(toy):
    with pytest.raises(ValueError):
        hash_block([], toy.base)


def test_hash_block_depends_on_r(toy):
    pts = [2 * toy.base, 3 * toy.base]
    assert hash_block(pts, 4 * toy.base) != hash_block(pts, 5 * toy.base)


def test_attr_to_scalar_deterministic_and_nonzero(toy, prod):
    for c in (toy, prod):
        a = attr_to_scalar("age:30", c)
        assert a == attr_to_scalar("age:30", c)
        assert 1 <= a.v < c.q
    assert attr_to_scalar("age:30", toy) != attr_to_scalar("age:31", toy)


def test_attr_to_scalar_matches_definition(toy):
    digest = hashlib.sha256(TAG_ATTRIBUTE + b":" + "role".encode()).digest()
    expect = int.from_bytes(digest, "big") % toy.q or 1
    assert attr_to_scalar("role", toy) == Scalar(expect, toy.q)


def test_attr_to_scalar_rejects_empty(toy):
    with pytest.raises(ValueError):
        attr_to_scalar("", toy)


def test_challenge_scalar_binds_everything(toy):
    a, b = 3 * toy.base, 7 * toy.base
    base_c = challenge_scalar([a], [b], b"ctx", toy)
    assert base_c == challenge_scalar([a], [b], b"ctx", toy)
    assert base_c != challenge_scalar([b], [a], b"ctx", toy)
    assert base_c != challenge_scalar([a], [b], b"other", toy)
    assert base_c != challenge_scalar([a, a], [b, b], b"ctx", toy)
    assert 1 <= base_c.v < toy.q


def test_challenge_scalar_length_prefixing(toy):
    # moving a point between the two lists must change the digest even
    # though the concatenated bytes would be identical
    a, b = 3 * toy.base, 7 * toy.base
    assert challenge_scalar([a, b], [a], b"", toy) != challenge_scalar([a], [b, a], b"", toy)


def test_hedged_scalar_matches_oracle_and_takes_one_draw(toy, prod):
    """H(HEDGE, secret, draw, context) mod q with one rng.randrange(q)
    draw, so that a seeded stream runs on exactly as a plain draw leaves
    it; another secret or context gives another scalar."""
    for c in (toy, prod):
        w = c.coord_bytes
        rng, twin = make_rng(f"hedge:{c.name}"), make_rng(f"hedge:{c.name}")
        secrets = make_rng(f"hedge:secrets:{c.name}")
        for _ in range(30):
            secret = c.random_nonzero(secrets)
            got = hedged_scalar(c, secret, rng, b"ctx")
            draw = twin.randrange(c.q)
            assert rng.getstate() == twin.getstate()
            digest = hashlib.sha256(TAG_HEDGE + b":" + secret.to_bytes(w)
                                    + draw.to_bytes(w, "big") + b"ctx").digest()
            assert got == Scalar(int.from_bytes(digest, "big") % c.q or 1, c.q)
        if c is prod:
            draws = [make_rng("hedge:same") for _ in range(3)]
            one = c.scalar(1)
            assert len({hedged_scalar(c, one, draws[0], b"a"), hedged_scalar(c, one + 1, draws[1], b"a"),
                        hedged_scalar(c, one, draws[2], b"b")}) == 3

