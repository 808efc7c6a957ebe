"""Blind issuance of attribute credentials.

The issuer contributes a fresh nonce point, the user blinds everything the
issuer sees, and the result is an ordinary signature the issuer cannot link
back to the session:

    issuer: draw k from [1, q-1], send R' = k * P
    user:   draw alpha, beta from [1, q-1]
            R = alpha * R' + beta * P
            P_i = m_i * P for each attribute, h = prod H(P_i, R)
            h' = h / alpha, prove knowledge of m_0, send (h', P_0, proof)
    issuer: check the proof, send s' = h' * x + k
    user:   check s' * P == h' * Ppub + R', then s = alpha * s' + beta

The credential (attrs, R, s, h) satisfies s * P == h * Ppub + R. The first
attribute m_0 is the user's master secret: it is never revealed, and the
proof of knowledge for P_0 is what the issuer requires before signing.

Of the commitments only P_0 crosses the wire: the issuer does not even
learn how many attributes the credential carries.
"""

from __future__ import annotations

from contextlib import nullcontext

from .credential import Credential, PresentationSignature, check_attrs, check_equation
from .curve import OpCounter, Point, Scalar, sum_of_multiples
from .errors import InvalidProofError, IssuerMisbehavior, SessionError
from .hashing import hash_block, hedged_scalar
from .params import IssuerKey, SystemParams
from .schnorr import SchnorrTranscript, fs_prove, fs_verify, pk_commit, pk_respond, pk_verify


class IssuanceRequest:
    """What the user sends to be signed, well-formed by construction: the
    constructor raises ValueError, which decode_request reports as
    WireError, unless commitment0 is a Point, h' a nonzero Scalar mod its
    curve's q and the proof, if any, is about commitment0. With h' = 0
    the response s' = h' * x + k is the bare nonce k, which signs nothing;
    a proof about another point says nothing of the master secret."""

    __slots__ = ("h_bar", "commitment0", "proof", "pk_commitment")

    def __init__(
        self,
        h_bar: Scalar,
        commitment0: Point,
        proof: SchnorrTranscript | None = None,
        pk_commitment: Point | None = None,
    ):
        if not isinstance(commitment0, Point):
            raise ValueError("commitment is not a point")
        if not isinstance(h_bar, Scalar) or h_bar.q != commitment0.curve.q:
            raise ValueError("blinded hash is not a scalar mod q")
        if h_bar.v == 0:
            raise ValueError("blinded hash is zero")
        if proof is not None and proof.statement != commitment0:
            raise ValueError("proof is not about the master commitment")
        self.h_bar = h_bar
        self.commitment0 = commitment0
        self.proof = proof
        self.pk_commitment = pk_commitment


class IssuerSession:
    """One signing session on an issuer key.

    A key holds one live nonce k, that of the session started on it last:
    starting a session wipes the nonce of the one before, which can then
    neither challenge nor sign (SessionError). Sessions on one key object
    therefore sign one at a time, the setting in which blind Schnorr is
    proven secure; from bits(q) sessions open at once a user could make
    one credential more than the issuer signed (ROS). Signing takes the
    nonce, so a session never signs twice. A refused request (sign raising
    on a missing or failing proof, or on a request of another curve)
    leaves the nonce live, so the same session can still sign a valid
    request.

    k hashes x and the params digest with its rng draw
    (hashing.hedged_scalar), so a guessed rng stream does not give k, and
    with it x, from one transcript. Two sessions whose streams repeat
    still share k, whatever it hashes, and give x away: the rng must never
    repeat."""

    def __init__(self, key: IssuerKey, params: SystemParams, rng):
        self._key = key
        self._params = params
        k = hedged_scalar(params.curve, key.x, rng, b"ISSUER-K:" + params.digest())
        self.r_bar = k * params.curve.base
        self._challenge = None
        with key._lock:
            key._nonce = (self, k)

    def _check_live(self) -> None:
        if self._key._nonce[0] is not self:
            raise SessionError("session has signed, or a later one on its key started")

    def issue_challenge(self, rng) -> Scalar:
        """Interactive proof path: hand out a fresh challenge, once."""
        self._check_live()
        if self._challenge is not None:
            raise SessionError("challenge already issued")
        self._challenge = self._params.curve.random_nonzero(rng)
        return self._challenge

    def sign(
        self,
        request: IssuanceRequest,
        *,
        pk_response: Scalar | None = None,
        context: bytes = b"",
        pk_ops: OpCounter | None = None,
    ) -> Scalar:
        """Verify the proof of knowledge for P_0, then sign blindly.

        The session accepts either a non-interactive proof in the request or,
        after issue_challenge, the bare response to its own challenge.
        Takes the key's live nonce, and refuses if the session no longer
        holds it.
        """
        with pk_ops if pk_ops is not None else nullcontext():
            if self._challenge is not None:
                if pk_response is None or request.pk_commitment is None:
                    raise InvalidProofError("interactive proof is incomplete")
                transcript = SchnorrTranscript(
                    commitment=request.pk_commitment,
                    challenge=self._challenge,
                    response=pk_response,
                    statement=request.commitment0,
                )
                ok = pk_verify(transcript)
            else:
                if request.proof is None:
                    raise InvalidProofError("request carries no proof")
                ok = fs_verify(request.proof, context)
        if not ok:
            raise InvalidProofError("proof of knowledge for the master secret failed")

        with self._key._lock:
            self._check_live()
            # signed before the nonce goes, so a request on another
            # curve, refused here with ValueError, leaves it live
            s_bar = sign_response(request.h_bar, self._key.x, self._key._nonce[1])
            self._key._nonce = (None, None)
        return s_bar


def sign_response(h_bar: Scalar, x: Scalar, k: Scalar) -> Scalar:
    """The issuer's actual signing arithmetic: s' = h' * x + k mod q."""
    return h_bar * x + k


def issuer_start(key: IssuerKey, params: SystemParams, rng) -> tuple[IssuerSession, Point]:
    session = IssuerSession(key, params, rng)
    return session, session.r_bar


class UserBlindState:
    """Everything the user must remember between blinding and unblinding."""

    __slots__ = ("alpha", "beta", "r_bar", "r_point", "h", "h_bar", "attrs", "pk_nonce")

    def __init__(
        self,
        alpha: Scalar,
        beta: Scalar,
        r_bar: Point,
        r_point: Point,
        h: Scalar,
        h_bar: Scalar,
        attrs: tuple,
        pk_nonce: Scalar | None = None,
    ):
        self.alpha = alpha
        self.beta = beta
        self.r_bar = r_bar
        self.r_point = r_point
        self.h = h
        self.h_bar = h_bar
        self.attrs = attrs
        self.pk_nonce = pk_nonce


def user_blind(
    r_bar: Point,
    attrs,
    params: SystemParams,
    rng,
    *,
    interactive: bool = False,
    context: bytes = b"",
    pk_ops: OpCounter | None = None,
) -> tuple[UserBlindState, IssuanceRequest]:
    """Blind the issuer nonce and build the signing request.

    attrs is the full attribute list with the master secret first. With
    interactive=True the request carries only the proof commitment and the
    caller must answer the issuer's challenge via user_pk_respond.

    R = alpha*R' + beta*P, booked as 2 Ms + 1 Ap, and the n commitments
    m_i*P are one batch of sums with one return to affine form. R is
    exact, torsion in R' included, and user_unblind's exact check refuses
    a session whose R' carries torsion. Both modes then commit to the proof
    nonce with pk_commit under pk_ops, the proof-of-knowledge column of
    `edcred bench`, a batch of its own, so blinding pays two inversions.
    alpha, beta and the proof nonce each hash m_0 and context with their
    rng draw (hashing.hedged_scalar), so an issuer that guesses the user's
    rng neither links the credential nor learns m_0.
    """
    curve = params.curve
    attrs = check_attrs(attrs, curve.q)
    m0 = attrs[0]
    alpha = hedged_scalar(curve, m0, rng, b"BLIND-ALPHA:" + context)
    beta = hedged_scalar(curve, m0, rng, b"BLIND-BETA:" + context)
    sums = [[(r_bar, alpha.v), (curve.base, beta.v)]] + [[(curve.base, m.v)] for m in attrs]
    r_point, *commitments = sum_of_multiples(curve, sums, ms=2 + len(attrs), ap=1)
    h = hash_block(commitments, r_point)
    h_bar = h * alpha.inverse()

    state = UserBlindState(
        alpha=alpha,
        beta=beta,
        r_bar=r_bar,
        r_point=r_point,
        h=h,
        h_bar=h_bar,
        attrs=attrs,
    )
    with pk_ops if pk_ops is not None else nullcontext():
        w, a = pk_commit(curve, m0, rng, context)
        if interactive:
            state.pk_nonce = w
            request = IssuanceRequest(h_bar=h_bar, commitment0=commitments[0], pk_commitment=a)
        else:
            proof = fs_prove(m0, commitments[0], w, a, context)
            request = IssuanceRequest(h_bar=h_bar, commitment0=commitments[0], proof=proof)
    return state, request


def user_pk_respond(state: UserBlindState, challenge: Scalar) -> Scalar:
    if state.pk_nonce is None:
        raise SessionError("no interactive proof pending")
    response = pk_respond(state.attrs[0], state.pk_nonce, challenge)
    state.pk_nonce = None
    return response


def user_unblind(state: UserBlindState, s_bar: Scalar, params: SystemParams) -> Credential:
    """Check the issuer's response against its nonce, then strip the blinding:
    s = alpha * s' + beta. Raises IssuerMisbehavior when the check fails.

    The check s' * P == h' * Ppub + R' is credential.check_equation on the
    blinded triple (R', s', h'): exact, so a torsion error in R' is
    refused.
    """
    if s_bar.q != params.curve.q:
        raise ValueError("response is not a scalar mod q")
    if not check_equation(PresentationSignature(state.r_bar, s_bar, state.h_bar), params):
        raise IssuerMisbehavior("blinded response fails the check equation")
    s = state.alpha * s_bar + state.beta
    return Credential(attrs=state.attrs, r_point=state.r_point, s=s, h=state.h)
