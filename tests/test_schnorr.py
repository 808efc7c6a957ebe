"""Discrete-log proofs: completeness, soundness, extraction."""

import hashlib
import math

import pytest

from edcred.curve import OpCounter, Point, Scalar
from edcred.hashing import TAG_BATCH_WEIGHT, batch_weights, challenge_scalar, weight_basis
from edcred.schnorr import (
    SchnorrTranscript,
    euclid_rows,
    fs_prove,
    fs_prove_batch,
    fs_verify,
    fs_verify_batch,
    pk_commit,
    pk_respond,
    pk_verify,
)
from edcred.wire import Reader

from conftest import make_rng
from oracles import extract_witness


def test_respond_is_plain_field_arithmetic():
    # worked example, small modulus: r = c*mu + w = 3*5 + 2 = 17 = 6 mod 11
    q = 11
    r = pk_respond(Scalar(5, q), Scalar(2, q), Scalar(3, q))
    assert r == Scalar((3 * 5 + 2) % q, q) == Scalar(6, q)


def test_interactive_completeness(toy):
    rng = make_rng("ia")
    for _ in range(50):
        mu = toy.random_nonzero(rng)
        stmt = mu * toy.base
        w, a = pk_commit(toy, rng)
        c = toy.random_nonzero(rng)
        r = pk_respond(mu, w, c)
        assert pk_verify(SchnorrTranscript(a, c, r, stmt))


def test_interactive_soundness_wrong_secret(toy):
    rng = make_rng("is")
    for _ in range(50):
        mu = toy.random_nonzero(rng)
        lie = mu + 1
        stmt = mu * toy.base
        w, a = pk_commit(toy, rng)
        c = toy.random_nonzero(rng)
        r = pk_respond(lie, w, c)
        assert not pk_verify(SchnorrTranscript(a, c, r, stmt))


def test_fs_roundtrip(toy):
    rng = make_rng("fs")
    mu = toy.random_nonzero(rng)
    t = fs_prove(mu, mu * toy.base, b"ctx", rng)
    assert fs_verify(t, b"ctx")


def test_fs_rejects_mutations(toy):
    # these rejections are algebraic, not hash collisions, so the tiny
    # challenge space of the toy curve cannot fake an accept
    rng = make_rng("fsmut")
    mu = toy.random_nonzero(rng)
    t = fs_prove(mu, mu * toy.base, b"ctx", rng)
    bumped = SchnorrTranscript(t.commitment, t.challenge, t.response + 1, t.statement)
    assert not fs_verify(bumped, b"ctx")
    retold = SchnorrTranscript(t.commitment, t.challenge + 1, t.response, t.statement)
    assert not fs_verify(retold, b"ctx")


def test_fs_context_binding_production(prod):
    # context or commitment changes re-seed the hash; with a 131-element
    # challenge space that rejection is only statistical, so bind it on the
    # production curve where a collision will not happen
    rng = make_rng("fsbind")
    mu = prod.random_nonzero(rng)
    t = fs_prove(mu, mu * prod.base, b"ctx", rng)
    assert fs_verify(t, b"ctx")
    assert not fs_verify(t, b"other-ctx")
    moved = SchnorrTranscript(t.commitment + prod.base, t.challenge, t.response, t.statement)
    assert not fs_verify(moved, b"ctx")


def test_fs_batch_shares_one_challenge(toy):
    rng = make_rng("batch")
    secrets = [toy.random_nonzero(rng) for _ in range(4)]
    stmts = [m * toy.base for m in secrets]
    ts = fs_prove_batch(secrets, stmts, b"joint", toy, rng)
    assert len({t.challenge for t in ts}) == 1
    assert fs_verify_batch(ts, b"joint")
    assert not fs_verify_batch([], b"joint")


def test_fs_batch_binding_production(prod):
    # dropping members or renaming the context must re-seed the challenge
    rng = make_rng("batchbind")
    secrets = [prod.random_nonzero(rng) for _ in range(4)]
    stmts = [m * prod.base for m in secrets]
    ts = fs_prove_batch(secrets, stmts, b"joint", prod, rng)
    assert fs_verify_batch(ts, b"joint")
    assert not fs_verify_batch(ts, b"split")
    assert not fs_verify_batch(ts[:2], b"joint")


def test_fs_batch_rejects_single_bad_member(toy):
    rng = make_rng("batchbad")
    secrets = [toy.random_nonzero(rng) for _ in range(3)]
    stmts = [m * toy.base for m in secrets]
    ts = fs_prove_batch(secrets, stmts, b"joint", toy, rng)
    broken = ts[:1] + [SchnorrTranscript(ts[1].commitment, ts[1].challenge,
                                         ts[1].response + 1, ts[1].statement)] + ts[2:]
    assert not fs_verify_batch(broken, b"joint")


def test_fs_batch_shape_mismatch(toy):
    rng = make_rng("shape")
    with pytest.raises(ValueError):
        fs_prove_batch([toy.scalar(3)], [], b"", toy, rng)
    with pytest.raises(ValueError):
        fs_prove_batch([], [], b"", toy, rng)


def test_special_soundness_extraction(toy):
    rng = make_rng("extract")
    mu = toy.random_nonzero(rng)
    stmt = mu * toy.base
    w, a = pk_commit(toy, rng)
    c1, c2 = toy.scalar(17), toy.scalar(45)
    t1 = SchnorrTranscript(a, c1, pk_respond(mu, w, c1), stmt)
    t2 = SchnorrTranscript(a, c2, pk_respond(mu, w, c2), stmt)
    assert pk_verify(t1) and pk_verify(t2)
    assert extract_witness(t1, t2) == mu


def test_extraction_guards(toy):
    rng = make_rng("guards")
    mu = toy.random_nonzero(rng)
    stmt = mu * toy.base
    w, a = pk_commit(toy, rng)
    c = toy.scalar(9)
    t = SchnorrTranscript(a, c, pk_respond(mu, w, c), stmt)
    with pytest.raises(ValueError):
        extract_witness(t, t)  # same challenge
    w2, a2 = pk_commit(toy, rng)
    other = SchnorrTranscript(a2, toy.scalar(10), pk_respond(mu, w2, toy.scalar(10)), stmt)
    with pytest.raises(ValueError):
        extract_witness(t, other)  # different commitment


def test_transcript_bytes_roundtrip(toy, prod):
    for c in (toy, prod):
        rng = make_rng(f"wire:{c.name}")
        mu = c.random_nonzero(rng)
        stmt = mu * c.base
        t = fs_prove(mu, stmt, b"ctx", rng)
        data = t.to_bytes()
        assert len(data) == 4 * c.coord_bytes
        r = Reader(data, c)
        again = SchnorrTranscript.read(r, stmt)
        r.end()
        assert again == t and fs_verify(again, b"ctx")
    with pytest.raises(ValueError):
        SchnorrTranscript.read(Reader(data[:-1], c), stmt)


def test_nonce_reuse_leaks_witness(toy):
    # the reason pk_commit must draw fresh w every time
    rng = make_rng("reuse")
    mu = toy.random_nonzero(rng)
    stmt = mu * toy.base
    w, a = pk_commit(toy, rng)
    c1, c2 = toy.scalar(3), toy.scalar(8)
    r1, r2 = pk_respond(mu, w, c1), pk_respond(mu, w, c2)
    recovered = (r1 - r2) * (c1 - c2).inverse()
    assert recovered == mu


# -- the one cofactored equation ----------------------------------------------

def per_proof(ts, context):
    """Reference verdict: the shared challenge, then r*P == A + c*Q for
    each transcript on its own, through Point operations."""
    curve = ts[0].statement.curve
    c = challenge_scalar([t.commitment for t in ts], [t.statement for t in ts], context, curve)
    return all(
        t.challenge == c and t.response * curve.base == t.commitment + t.challenge * t.statement
        for t in ts
    )


def corrupt(t, kind, curve):
    a, c, r, q = t.commitment, t.challenge, t.response, t.statement
    if kind == "response":
        r = r + 1
    elif kind == "commitment":
        a = a + curve.base
    elif kind == "statement":
        q = q + curve.base
    else:
        c = c + 1
    return SchnorrTranscript(a, c, r, q)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_batch_verdict_equals_per_proof_reference(name, request):
    c = request.getfixturevalue(name)
    rng = make_rng(f"reference:{name}")
    sizes = [1, 16] + [rng.randrange(2, 16) for _ in range(3)]
    for k in sizes:
        secrets = [c.random_nonzero(rng) for _ in range(k)]
        ts = fs_prove_batch(secrets, [m * c.base for m in secrets], b"ref", c, rng)
        assert fs_verify_batch(ts, b"ref") == per_proof(ts, b"ref") is True
        for kind in ("response", "commitment", "statement", "challenge"):
            j = rng.randrange(k)
            bad = ts[:j] + [corrupt(ts[j], kind, c)] + ts[j + 1:]
            assert fs_verify_batch(bad, b"ref") == per_proof(bad, b"ref") is False, (k, kind)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_compensating_responses_rejected(name, request):
    # r_1 + delta and r_2 - delta leave the unweighted sum of the two
    # equations intact; the weights z_2 != z_1 = 1 break it
    c = request.getfixturevalue(name)
    rng = make_rng(f"compensate:{name}")
    secrets = [c.random_nonzero(rng) for _ in range(3)]
    ts = fs_prove_batch(secrets, [m * c.base for m in secrets], b"pair", c, rng)
    delta = c.random_nonzero(rng)
    a, b = ts[0], ts[1]
    bad = [SchnorrTranscript(a.commitment, a.challenge, a.response + delta, a.statement),
           SchnorrTranscript(b.commitment, b.challenge, b.response - delta, b.statement),
           ts[2]]
    lhs = (bad[0].response + bad[1].response) * c.base
    rhs = a.commitment + b.commitment + a.challenge * (a.statement + b.statement)
    assert lhs == rhs  # what an unweighted sum would accept
    assert not fs_verify_batch(bad, b"pair")
    assert not fs_verify_batch(bad[:2], b"pair")


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_torsion_policy(name, request):
    """Cofactored verification: an error that is pure torsion is accepted,
    an error with a prime-order part is not."""
    c = request.getfixturevalue(name)
    rng = make_rng(f"torsion:{name}")
    two = Point(0, c.p - 1, c)  # order 2
    mu = c.random_nonzero(rng)
    stmt = mu * c.base
    w = c.random_nonzero(rng)
    a = w * c.base + two
    ch = challenge_scalar([a], [stmt], b"tor", c)  # re-challenged over the new A
    t = SchnorrTranscript(a, ch, pk_respond(mu, w, ch), stmt)
    assert t.response * c.base != t.commitment + t.challenge * t.statement
    assert pk_verify(t) and fs_verify(t, b"tor")
    off = SchnorrTranscript(a, ch, t.response + 1, stmt)  # error P - (0, p-1)
    assert not pk_verify(off) and not fs_verify(off, b"tor")
    # the same holds for a member of a batch, whatever its weight
    secrets = [c.random_nonzero(rng) for _ in range(2)] + [mu]
    stmts = [m * c.base for m in secrets]
    nonces = [c.random_nonzero(rng) for _ in range(3)]
    commits = [n * c.base for n in nonces]
    commits[2] = commits[2] + two
    ch = challenge_scalar(commits, stmts, b"tor", c)
    ts = [SchnorrTranscript(A, ch, pk_respond(m, n, ch), s)
          for A, m, n, s in zip(commits, secrets, nonces, stmts)]
    assert fs_verify_batch(ts, b"tor") and not per_proof(ts, b"tor")
    ts[2] = SchnorrTranscript(ts[2].commitment, ch, ts[2].response + 1, ts[2].statement)
    assert not fs_verify_batch(ts, b"tor")


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_batch_books_its_plain_equations(name, request):
    c = request.getfixturevalue(name)
    rng = make_rng(f"book:{name}")
    for k in (1, 2, 5, 16):
        secrets = [c.random_nonzero(rng) for _ in range(k)]
        ts = fs_prove_batch(secrets, [m * c.base for m in secrets], b"ops", c, rng)
        with OpCounter() as ops:
            assert fs_verify_batch(ts, b"ops")
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2 * k, k, 0)
    with OpCounter() as ops:
        assert pk_verify(ts[0])
    assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (2, 1, 0)


@pytest.mark.parametrize("name", ["toy", "prod"])
def test_batch_folds_one_equation(name, request):
    """An extra equation sum k_j*X_j == O rides in the same check at weight
    1, books what its caller says, and any error in it or in a proof
    fails the whole check unless the error is pure torsion."""
    c = request.getfixturevalue(name)
    rng = make_rng(f"fold:{name}")
    for k in (1, 4):
        secrets = [c.random_nonzero(rng) for _ in range(k)]
        ts = fs_prove_batch(secrets, [m * c.base for m in secrets], b"eq", c, rng)
        x = c.random_nonzero(rng)
        big_x = x * c.base
        with OpCounter() as ops:
            assert fs_verify_batch(ts, b"eq", ([(c.base, x.v), (big_x, -1)], 3, 1))
        assert (ops.scalar_mults, ops.point_adds, ops.inversions) == (3 + 2 * k, 1 + k, 0)
        assert not fs_verify_batch(ts, b"eq", ([(c.base, x.v + 1), (big_x, -1)], 0, 0))
        two = Point(0, c.p - 1, c)
        assert fs_verify_batch(ts, b"eq", ([(c.base, x.v), (big_x + two, -1)], 0, 0))
        bad = ts[:-1] + [corrupt(ts[-1], "response", c)]
        assert not fs_verify_batch(bad, b"eq", ([(c.base, x.v), (big_x, -1)], 0, 0))


def basis_for(c, q):
    return weight_basis(euclid_rows(c, q), c, q)


def fallback(c):
    return (1 << 64, c << 64), (1, c)


def hashed_weights(challenge, responses, curve):
    """The weights before lattice reduction, written out: the top 128 bits
    of each SHA-256 digest after the first index, mod q, 0 and 1 moved up
    by two."""
    w = curve.coord_bytes
    payload = challenge.to_bytes(w) + b"".join(r.to_bytes(w) for r in responses)
    seed = hashlib.sha256(TAG_BATCH_WEIGHT + b":" + payload).digest()
    out = [1]
    for i in range(1, len(responses)):
        z = int.from_bytes(hashlib.sha256(seed + i.to_bytes(2, "big")).digest()[:16], "big") % curve.q
        out.append(z if z > 1 else z + 2)
    return out


def test_batch_weights(prod, toy):
    rng = make_rng("weights")
    for c in (prod, toy):
        ch = c.random_nonzero(rng)
        rs = [c.random_nonzero(rng) for _ in range(16)]
        basis = basis_for(ch.v, c.q)
        z = batch_weights(ch, rs, c, basis)
        assert z[0] == (1, ch.v) and len(z) == 16
        for zi, wi in z[1:]:
            assert 2 <= zi < c.q and 0 <= wi < c.q and wi == ch.v * zi % c.q
        assert batch_weights(ch, rs, c, basis) == z  # deterministic
        assert batch_weights(ch, rs[:1], c, basis) == [(1, ch.v)]
    # the challenge and every response move every weight after the first
    ch = prod.random_nonzero(rng)
    rs = [prod.random_nonzero(rng) for _ in range(4)]
    z = batch_weights(ch, rs, prod, basis_for(ch.v, prod.q))
    assert all(min(zi, prod.q - zi) > 1 << 100 for zi, _ in z[1:])  # not small exponents
    for j in range(4):
        bumped = rs[:j] + [rs[j] + 1] + rs[j + 1:]
        other = batch_weights(ch, bumped, prod, basis_for(ch.v, prod.q))
        assert all(u != v for u, v in zip(z[1:], other[1:]))
    moved = batch_weights(ch + 1, rs, prod, basis_for(ch.v + 1, prod.q))
    assert all(u != v for u, v in zip(z[1:], moved[1:]))


def test_batch_weights_move_zero_up(prod):
    """A z of 0 mod q takes (2, 2c), as the hashed weights did; only a
    degenerate basis reaches it."""
    ch = prod.scalar(12345)
    rs = [prod.scalar(v) for v in (1, 2, 3)]
    z = batch_weights(ch, rs, prod, ((prod.q, 0), (0, prod.q)))
    assert z == [(1, 12345)] + [(2, 2 * 12345)] * 2


def test_short_multiplier(toy, prod):
    """The last Euclid row is the short multiplier of c: a*c == b (mod q)
    with a != 0 and |a|, b of at most half q's bits: every c on the toy
    curve, seeded and edge values on curve1174."""
    rng = make_rng("short")
    root = math.isqrt(prod.q)
    edges = [1, 2, prod.q - 1, prod.q - 2, root, root + 1]
    for c, values in ((toy, range(1, toy.q)),
                      (prod, edges + [rng.randrange(1, prod.q) for _ in range(10_000)])):
        q = c.q
        half = -(-q.bit_length() // 2)
        for v in values:
            a, b = euclid_rows(v, q)[1]
            assert a % q != 0 and (a * v - b) % q == 0, v
            assert abs(a).bit_length() <= half and abs(b).bit_length() <= half, v


def short_vector_challenge(q, t, r):
    """The c whose lattice holds (t, r): r == c*t (mod q)."""
    return r * pow(t, -1, q) % q


def test_weight_basis(toy, prod):
    """Euclid's rows span the lattice r == c*t (mod q) with determinant
    +-q; the weight basis is a reduced basis of it that meets the
    injectivity bound, or the fallback (2^64, 2^64*c), (1, c), whose
    weights are the unreduced hashed ones exactly."""
    rng = make_rng("basis")
    q = prod.q
    crafted = [1, 2, q - 1, q - 2,
               short_vector_challenge(q, (1 << 40) + 7, 3 ** 25),  # a 2^40 vector: fallback
               short_vector_challenge(q, (1 << 100) + 3, 5 ** 43)]  # a 2^100 vector: reduced
    cases = [(toy, v) for v in range(1, toy.q)]
    cases += [(prod, v) for v in crafted + [rng.randrange(1, q) for _ in range(2000)]]
    reduced = set()
    for curve, v in cases:
        q = curve.q
        rows = euclid_rows(v, q)
        (t0, r0), (t1, r1) = rows
        assert abs(t0 * r1 - t1 * r0) == q, v
        basis = weight_basis(rows, v, q)
        for (t0, r0), (t1, r1) in (rows, basis):
            assert (r0 - v * t0) % q == 0 and (r1 - v * t1) % q == 0, v
        if basis == fallback(v):
            ch = curve.scalar(v)
            rs = [curve.random_nonzero(rng) for _ in range(5)]
            weights = batch_weights(ch, rs, curve, basis)
            assert [z for z, _ in weights] == hashed_weights(ch, rs, curve), v
            assert all(w == v * z % q for z, w in weights), v
        else:
            (t0, r0), (t1, r1) = basis
            assert abs(t0 * r1 - t1 * r0) == q, v
            assert (abs(t0) + abs(t1)) << 64 < q and (abs(r0) + abs(r1)) << 64 < q, v
            reduced.add(v)
    # the toy curve and the short-vector c's always fall back; a random c
    # on curve1174 never does, and its vectors stay near sqrt(q), about
    # 2^125, so its weights near 190 bits
    assert not reduced & set(range(1, toy.q)) and not reduced & set(crafted[:5])
    assert crafted[5] in reduced and len(reduced) == 2001
    sizes = [max(abs(x) for row in basis_for(v, prod.q) for x in row).bit_length()
             for v in reduced - {crafted[5]}]
    assert sum(b <= 126 for b in sizes) >= 0.9 * len(sizes) and max(sizes) <= 131


def test_reduced_weights_are_injective_in_small():
    """The injectivity argument on a lattice small enough to enumerate:
    with q a 22-bit prime and 4-bit halves in place of 64-bit ones, every
    (u, v) gives a distinct z mod q when the bound holds."""
    q = 4_194_301  # prime, 2^22 - 3
    rng = make_rng("inject")
    hits = 0
    for _ in range(200):
        c = rng.randrange(2, q - 1)
        (t0, r0), (t1, r1) = euclid_rows(c, q)
        if (abs(t0) + abs(t1)) << 4 >= q or (abs(r0) + abs(r1)) << 4 >= q:
            continue
        zs = {(u * t0 + v * t1) % q for u in range(16) for v in range(16)}
        assert len(zs) == 256, c
        hits += 1
    assert hits > 100


def test_one_proof_runs_a_half_length_chain(prod):
    """fs_verify on curve1174: P's comb, a chain of about 125 doublings for
    A and Q under the short multiplier, and the cofactor's two."""
    rng = make_rng("halfchain")
    for _ in range(20):
        mu = prod.random_nonzero(rng)
        t = fs_prove(mu, mu * prod.base, b"half", rng)
        with OpCounter() as ops:
            assert fs_verify(t, b"half")
        # no comb doubling, a chain from a top wNAF digit at bit 125 or
        # below, one doubling each for the 3A and 3Q tables, cofactor 4
        assert ops.inner_doubles <= 125 + 2 + 2
