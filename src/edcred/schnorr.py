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

    [cofactor] * ((sum z_i*r_i) * P - sum z_i*A_i - sum (c*z_i)*Q_i) == O

with z_1 = 1 and 128-bit weights z_i >= 2 hashed from the challenge and
every response (hashing.batch_weights): one multiple on P's comb and one
doubling chain over every A_i and Q_i (curve.cofactored_equal), however many
transcripts there are. One bad transcript always makes it fail. Multiplying
by the cofactor accepts a transcript whose error r*P - A - c*Q is a torsion
point, which the plain equation refuses; only the holder of the witness can
make one, since the challenge hashes every point. A transcript still books
the 2 Ms + 1 Ap of its plain equation.

A caller can fold one more equation sum k_j*X_j == O into the same check
(fs_verify_batch's equation): it takes weight 1, and every transcript then
takes a weight z_i >= 2 hashed over the equation's scalars too. A weight of
1 on both would let an error in the equation cancel the opposite error in a
proof. The disclosure verifier folds its signature equation in this way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import CurveParams, Point, Scalar, cofactored_equal
from .hashing import batch_weights, challenge_scalar


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
    def from_bytes(cls, data: bytes, statement: Point) -> "SchnorrTranscript":
        curve = statement.curve
        w = curve.coord_bytes
        if len(data) != 4 * w:
            raise ValueError("transcript encoding has wrong length")
        return cls(
            commitment=Point.decode(data[: 2 * w], curve),
            challenge=Scalar.from_bytes(data[2 * w : 3 * w], curve.q),
            response=Scalar.from_bytes(data[3 * w :], curve.q),
            statement=statement,
        )


def transcript_size(curve: CurveParams) -> int:
    return 4 * curve.coord_bytes


def pk_commit(curve: CurveParams, rng) -> tuple[Scalar, Point]:
    """Draw the proof nonce w from [1, q-1] and commit A = w * P."""
    w = curve.random_nonzero(rng)
    return w, w * curve.base


def pk_respond(secret: Scalar, nonce: Scalar, challenge: Scalar) -> Scalar:
    return challenge * secret + nonce


def pk_verify(t: SchnorrTranscript) -> bool:
    return _check([t])


def _check(transcripts: list[SchnorrTranscript], equation=((), 0, 0)) -> bool:
    """The cofactored equation over transcripts that share one challenge,
    plus the caller's equation (terms, ms, ap) at weight 1. The weights
    hash the equation's scalars ahead of the responses, and the
    transcripts take those after the equation's, so a transcript gets
    weight 1 only when there is no equation."""
    curve = transcripts[0].statement.curve
    for t in transcripts:
        if not (t.commitment.on_curve() and t.statement.on_curve()):
            return False
    c = transcripts[0].challenge
    q = curve.q
    terms, ms, ap = equation
    seed = [curve.scalar(k) for _, k in terms] + [t.response for t in transcripts]
    weights = batch_weights(c, seed, curve)[len(terms):]
    terms = list(terms)
    terms.append((curve.base, sum(z * t.response.v for z, t in zip(weights, transcripts))))
    terms += [(t.commitment, -z) for z, t in zip(weights, transcripts)]
    terms += [(t.statement, -z * c.v % q) for z, t in zip(weights, transcripts)]
    n = len(transcripts)
    return cofactored_equal(curve, terms, ms=ms + 2 * n, ap=ap + n)


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
    nonces = []
    commitments = []
    for _ in secrets:
        w, a = pk_commit(curve, rng)
        nonces.append(w)
        commitments.append(a)
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


def extract_witness(t1: SchnorrTranscript, t2: SchnorrTranscript) -> Scalar:
    """Special soundness: two accepting transcripts with the same commitment
    but different challenges reveal the witness as (r1-r2)/(c1-c2)."""
    if t1.commitment != t2.commitment or t1.statement != t2.statement:
        raise ValueError("transcripts must share commitment and statement")
    if t1.challenge == t2.challenge:
        raise ValueError("challenges must differ")
    return (t1.response - t2.response) * (t1.challenge - t2.challenge).inverse()
