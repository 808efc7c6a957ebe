"""Proofs of knowledge of a discrete log with respect to the curve base.

The prover holds mu with statement = mu * P. Interactive flow: prover sends
A = w * P, verifier answers a random challenge c, prover responds with
r = c * mu + w, and the verifier accepts when r * P == A + c * statement.
The non-interactive variant derives c by hashing the commitment, the
statement and a caller-supplied context, so a transcript is bound to the
session it was made for.

Several statements can be proven at once under one shared challenge; the
challenge then hashes every commitment and every statement, which ties the
individual transcripts into a single conjunction.

Every check, of one transcript or of a batch, is one cofactored equation

    [cofactor] * ((sum z_i*r_i) * P - sum z_i*A_i - sum w_i*Q_i) == O

with weight pairs w_i == c*z_i (mod q), z_i >= 2, hashed from the
challenge and every response (hashing.batch_weights) for every transcript
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
r == c*t (mod q) (euclid_rows, hashing.weight_basis), so both z_i and w_i
have about 190 bits and the chain about 190 doublings. The map from the halves
to z mod q is one-to-one, so z_i stays uniform over 2^128 residues; a c
whose lattice is too skewed for that falls back to (z, c*z) itself.

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

import math
from dataclasses import dataclass

from .curve import CurveParams, Point, Scalar, sum_is_neutral
from .hashing import Basis, batch_weights, challenge_scalar, weight_basis
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


def pk_commit(curve: CurveParams, rng) -> tuple[Scalar, Point]:
    """Draw the proof nonce w from [1, q-1] and commit A = w * P."""
    w = curve.random_nonzero(rng)
    return w, w * curve.base


def pk_respond(secret: Scalar, nonce: Scalar, challenge: Scalar) -> Scalar:
    return challenge * secret + nonce


def pk_verify(t: SchnorrTranscript) -> bool:
    return _check([t])


def euclid_rows(c: int, q: int) -> Basis:
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


def _check(transcripts: list[SchnorrTranscript], equation=((), 0, 0)) -> bool:
    """The cofactored equation over transcripts that share one challenge,
    plus the caller's equation (terms, ms, ap) at weight 1. The weights
    hash the equation's scalars ahead of the responses, and the
    transcripts take those after the equation's; with no equation, the
    first transcript takes the challenge's short multiplier in place of
    batch_weights' (1, c)."""
    curve = transcripts[0].statement.curve
    for t in transcripts:
        if not (t.commitment.on_curve() and t.statement.on_curve()):
            return False
    c = transcripts[0].challenge
    q = curve.q
    terms, ms, ap = equation
    rows = euclid_rows(c.v, q)
    seed = [curve.scalar(k) for _, k in terms] + [t.response for t in transcripts]
    weights = batch_weights(c, seed, curve, weight_basis(rows, c.v, q))[len(terms):]
    if not terms:
        weights[0] = rows[1]
    terms = list(terms)
    terms.append((curve.base, sum(z * t.response.v for (z, _), t in zip(weights, transcripts))))
    terms += [(t.commitment, -z) for (z, _), t in zip(weights, transcripts)]
    terms += [(t.statement, -w) for (_, w), t in zip(weights, transcripts)]
    n = len(transcripts)
    return sum_is_neutral(curve, terms, ms=ms + 2 * n, ap=ap + n, cofactored=True)


def fs_prove_batch(
    secrets: list[Scalar],
    statements: list[Point],
    context: bytes,
    curve: CurveParams,
    rng,
) -> list[SchnorrTranscript]:
    """Prove every statement under one hash-derived challenge."""
    if len(secrets) != len(statements) or not secrets:
        raise ValueError("need matching nonempty secrets and statements")
    nonces = [curve.random_nonzero(rng) for _ in secrets]
    commitments = curve.base.multiples(nonces)
    c = challenge_scalar(commitments, statements, context, curve)
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
    its scalars but not its points, so the context must bind those, and
    the caller must have checked that they are on the curve.
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


def fs_prove(secret: Scalar, statement: Point, context: bytes, rng) -> SchnorrTranscript:
    return fs_prove_batch([secret], [statement], context, statement.curve, rng)[0]


def fs_verify(t: SchnorrTranscript, context: bytes) -> bool:
    return fs_verify_batch([t], context)

