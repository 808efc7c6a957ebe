"""Proofs of knowledge of a discrete log with respect to the curve base.

The prover holds mu with statement = mu * P. Interactive flow: prover sends
A = w * P, verifier answers a random challenge c, prover responds with
r = c * mu + w, and the verifier accepts when r * P == A + c * statement.
The non-interactive variant derives c by hashing the commitment, the
statement and a caller-supplied context, so a transcript is bound to the
session it was made for.

The non-interactive prover (fs_prove, fs_prove_batch) takes the caller's
nonces w and commitments A = w * P: it hashes and responds, and draws and
multiplies nothing. A holder step draws each w fresh, hedged with the
secret it proves (hashing.hedged_scalar), and computes every A in the one
batch of multiples it makes anyway, so the step pays one inversion for its
return to affine form, proofs included. pk_commit is the commit of a
proof made on its own: it draws w the same way and computes w * P.

Several statements can be proven at once under one shared challenge; the
challenge then hashes every commitment and every statement, which ties the
individual transcripts into a single conjunction.

Every check, of one transcript or of a batch, is one cofactored equation

    [cofactor] * ((sum z_i*r_i) * P - sum z_i*A_i - sum w_i*Q_i) == O

with weight pairs w_i == c*z_i (mod q), z_i >= 2, hashed from the
challenge and every response (check_weights) for every transcript
after the first: one multiple on P's comb and one doubling chain over
every A_i and Q_i (curve.sum_is_neutral), however many transcripts there
are. One bad transcript always makes it fail. Multiplying by the cofactor
accepts a transcript whose error r*P - A - c*Q is a torsion point, which
the plain equation refuses; only the holder of the witness can make one,
since the challenge hashes every point. A transcript still books the
2 Ms + 1 Ap of its plain equation.

The chain is as long as the longest weight. A pair is not (z, c*z), a
128-bit z and a full ~250-bit c*z, but the two 64-bit halves of the hashed
128 bits taken through a reduced basis of the lattice of (t, r) with
r == c*t (mod q) (euclid_rows, weight_basis), so both z_i and w_i
have about 190 bits and the chain about 190 doublings. The map from the
halves to z mod q is one-to-one, so z_i stays uniform over 2^128 residues;
a c whose lattice is too skewed for that falls back to (z, c*z) itself.
Every weight, and P's coefficient, is passed as it is computed: the
cofactored check runs each as its representative nearest zero
(curve.sum_is_neutral), so a z_i == -5 (mod q) takes a short chain, not
a 249-bit one.

The first transcript's weight is the short multiplier z_1 = a of the
challenge (the last row of euclid_rows): a*c == b (mod q) with |a| and |b|
below sqrt(q) (Antipa, Brown, Gallant, Lambert, Struik, Vanstone, SAC 2005;
Pornin, ePrint 2020/454). A_1 and Q_1 then take the ~125-bit scalars -a
and -b, so a single proof (pk_verify, fs_verify) runs a chain of about 125
doublings, not the ~250 that z_1 = 1 and the full scalar c would cost.
a is nonzero mod q, so [cofactor]*a*E == O exactly when [cofactor]*E == O:
the verdict is the one z_1 = 1 gives.

A caller can fold one more equation sum k_j*X_j == O into the same check
(fs_verify_batch's equation): it takes weight 1, and every transcript then
takes a hashed weight pair, z_i >= 2, hashed over the equation's scalars
too. A weight of 1 on both would let an error in the equation cancel the
opposite error in a proof. The disclosure verifier folds its signature
equation in this way.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .curve import CurveParams, Point, Scalar, sum_is_neutral
from .hashing import TAG_BATCH_WEIGHT, challenge_scalar, hedged_scalar
from .wire import Reader


# a dataclass: perfbench/workloads.py's tamper helpers call dataclasses.replace on it
@dataclass(frozen=True)
class SchnorrTranscript:
    """One accepted or offered proof: (A, c, r) for a statement."""

    commitment: Point
    challenge: Scalar
    response: Scalar
    statement: Point

    def to_bytes(self) -> bytes:
        w = self.commitment.curve.coord_bytes
        return (
            self.commitment.encode()
            + self.challenge.to_bytes(w)
            + self.response.to_bytes(w)
        )

    @classmethod
    def read(cls, reader: Reader, statement: Point) -> "SchnorrTranscript":
        """The fields to_bytes writes, from a Reader over the enclosing
        record."""
        return cls(reader.point(), reader.scalar(), reader.scalar(), statement)


def pk_commit(
    curve: CurveParams, secret: Scalar, rng, context: bytes = b""
) -> tuple[Scalar, Point]:
    """Draw the proof nonce w for a proof of knowledge of secret, hedged
    with it (hashing.hedged_scalar), and commit A = w * P: the commit of
    one proof, a batch of its own."""
    w = hedged_scalar(curve, secret, rng, b"PK:" + context)
    return w, w * curve.base


def pk_respond(secret: Scalar, nonce: Scalar, challenge: Scalar) -> Scalar:
    return challenge * secret + nonce


def pk_verify(t: SchnorrTranscript) -> bool:
    return _check([t])


def euclid_rows(c: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The last two rows (t0, r0), (t1, r1) of the extended Euclidean
    algorithm on (q, c), stopped at the first remainder r1 below sqrt(q).

    Every row keeps r_i == t_i*c (mod q), and t0*r1 - t1*r0 == +-q, so the
    two rows are a basis of the lattice {(t, r) : r == c*t (mod q)}. The
    last one is the short multiplier of c: t1 != 0 and |t1|, r1 <= sqrt(q),
    because |t_i|*r_(i-1) + |t_(i-1)|*r_i == q bounds |t1| by q over r0,
    which is still at least sqrt(q); t_i is never 0, since the t_i
    alternate in sign and grow from t_1 = 1.
    """
    bound = math.isqrt(q - 1) + 1  # r1*r1 >= q exactly when r1 >= bound
    r0, r1 = q, c % q
    t0, t1 = 0, 1
    while r1 >= bound:
        quo = r0 // r1
        r0, r1 = r1, r0 - quo * r1
        t0, t1 = t1, t0 - quo * t1
    return (t0, r0), (t1, r1)


def weight_basis(
    rows: tuple[tuple[int, int], tuple[int, int]], c: int, q: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two vectors that check_weights maps its 64-bit halves through:
    rows, a basis of the lattice {(t, r) : r == c*t (mod q)} such as
    euclid_rows gives, Lagrange-Gauss reduced, when 2^64 times the sum of
    its |t| and of its |r| are both below q; (2^64, 2^64*c) and (1, c)
    otherwise.

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


def check_weights(
    curve: CurveParams, challenge: Scalar, folded: list[int], responses: list[Scalar]
) -> list[tuple[int, int]]:
    """One weight pair (z_i, w_i), w_i == c*z_i (mod q), per response: _check
    checks the transcripts of challenge c, and the caller's equation, whose
    scalars are folded, at weight 1, as one random linear combination
    (Bellare, Garay, Rabin, EUROCRYPT 1998), in which transcript i takes
    z_i on its response and commitment and w_i on its statement.

    With nothing folded, the first transcript takes the short multiplier
    of c, the last of euclid_rows. Every other pair maps the top 128 bits
    of SHA-256 over a seed and its index j, split into 64-bit halves u and
    v, through weight_basis = ((t0, r0), (t1, r1)): z_i = u*t0 + v*t1 and
    w_i = u*r0 + v*r1, both reduced mod q, with a z_i of 0 or 1 moved to
    (z_i + 2, w_i + 2c), so each hashed z_i is in [2, q-1] and none takes
    the folded equation's weight 1. The indices count the folded scalars
    first: transcript i takes j = len(folded) + i. For a reduced basis
    the map is injective, and for the fallback (2^64, 2^64*c), (1, c) it
    gives z_i the 128 bits themselves, mod q. Either way z_i is one of
    2^128 residues, all equally likely, when q exceeds 2^128: one bad
    equation always shows, and bad ones cancel each other with
    probability about 2^-128 (1/q on the toy curve).
    The seed hashes the challenge, which binds every commitment, every
    statement and the context, then the folded scalars and every
    response, so the weights fall out only once the whole batch is fixed.
    """
    q, c = curve.q, challenge.v
    rows = euclid_rows(c, q)
    weights = [] if folded else [rows[1]]
    hashed = range(len(folded) + len(weights), len(folded) + len(responses))
    if not hashed:
        return weights
    (t0, r0), (t1, r1) = weight_basis(rows, c, q)
    scalars = [c] + [k % q for k in folded] + [r.v for r in responses]
    payload = b"".join(k.to_bytes(curve.coord_bytes, "big") for k in scalars)
    seed = hashlib.sha256(TAG_BATCH_WEIGHT + b":" + payload).digest()
    for j in hashed:
        digest = hashlib.sha256(seed + j.to_bytes(2, "big")).digest()
        u, v = int.from_bytes(digest[:8], "big"), int.from_bytes(digest[8:16], "big")
        z, w = (u * t0 + v * t1) % q, (u * r0 + v * r1) % q
        weights.append((z, w) if z > 1 else (z + 2, (w + 2 * c) % q))
    return weights


def _check(transcripts: list[SchnorrTranscript], equation=((), 0, 0)) -> bool:
    """The cofactored equation over transcripts that share one challenge,
    each under its pair from check_weights, plus the caller's equation
    (terms, ms, ap) at weight 1."""
    curve = transcripts[0].statement.curve
    terms, ms, ap = equation
    weights = check_weights(curve, transcripts[0].challenge, [k for _, k in terms],
                            [t.response for t in transcripts])
    terms = list(terms)
    terms.append((curve.base, sum(z * t.response.v for (z, _), t in zip(weights, transcripts))))
    terms += [(t.commitment, -z) for (z, _), t in zip(weights, transcripts)]
    terms += [(t.statement, -w) for (_, w), t in zip(weights, transcripts)]
    n = len(transcripts)
    return sum_is_neutral(curve, terms, ms=ms + 2 * n, ap=ap + n, cofactored=True)


def fs_prove_batch(
    secrets: list[Scalar],
    statements: list[Point],
    nonces: list[Scalar],
    commitments: list[Point],
    context: bytes,
) -> list[SchnorrTranscript]:
    """Prove every statement under one hash-derived challenge, with the
    caller's nonces w_i and commitments A_i = w_i * P, which it does not
    check. Each w_i must be drawn fresh from [1, q-1] for this proof
    alone: a nonce used twice gives the secret away (r - r' == (c - c')*mu).
    """
    if not secrets or not len(secrets) == len(statements) == len(nonces) == len(commitments):
        raise ValueError("need matching nonempty secrets, statements, nonces and commitments")
    c = challenge_scalar(commitments, statements, context, statements[0].curve)
    return [
        SchnorrTranscript(a, c, pk_respond(mu, w, c), stmt)
        for a, w, mu, stmt in zip(commitments, nonces, secrets, statements)
    ]


def fs_verify_batch(
    transcripts: list[SchnorrTranscript], context: bytes, equation=((), 0, 0)
) -> bool:
    """Accept when every transcript carries the challenge hashed over all of
    them and the context, and the one cofactored equation holds.

    equation, when given, is (terms, ms, ap): one more equation
    sum k_j*X_j == O over terms (X_j, k_j) with int scalars, checked at
    weight 1 in the same pass, and the Ms and Ap it books. The weights hash
    its scalars but not its points, so the context must bind those.
    """
    if not transcripts:
        return False
    curve = transcripts[0].statement.curve
    c = challenge_scalar(
        [t.commitment for t in transcripts],
        [t.statement for t in transcripts],
        context,
        curve,
    )
    if any(t.challenge != c for t in transcripts):
        return False
    return _check(transcripts, equation)


def fs_prove(
    secret: Scalar, statement: Point, nonce: Scalar, commitment: Point, context: bytes
) -> SchnorrTranscript:
    """fs_prove_batch for one statement."""
    return fs_prove_batch([secret], [statement], [nonce], [commitment], context)[0]


def fs_verify(t: SchnorrTranscript, context: bytes) -> bool:
    return fs_verify_batch([t], context)

