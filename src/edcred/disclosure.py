"""Selective disclosure: reveal chosen attributes, prove the rest.

The holder splits the attribute set into disclosed indices (the verifier
learns the scalar m_i and recomputes P_i itself) and hidden indices (the
verifier gets the commitment P_i plus a proof of knowledge of its discrete
log). Index 0 is the master secret and is always hidden.

The verifier recomputes h = prod_i H(P_i, R) from the commitments and the
revealed scalars (P_i = m_i * P for a disclosed index), never the full
attribute list, and checks the signature equation s * P == h * Ppub + R.
The token is built from the issuance-time R: the hashes commit to that
exact nonce point, so a randomized triple cannot be used here and tokens
from the same credential share R by construction.

All hidden-index proofs share one challenge that hashes the whole token
body, so a commitment and its proof cannot be swapped into another token.
The verifier checks the signature and every proof with one cofactored
equation (schnorr.fs_verify_batch with the signature as its extra
equation):

    [cofactor] * ((s + sum z_i*r_i) * P - h * Ppub - R
                  - sum z_i*A_i - sum w_i*Q_i) == O

with the signature at weight 1 and every proof at a hashed weight pair
(z_i, w_i), w_i == c*z_i (mod q) and z_i >= 2, both of about 190 bits:
one comb multiple for P, one for Ppub once it has its table, and one
doubling chain over R and every commitment and hidden point. A bad
signature or proof makes the whole token fail; the verdict does not say
which. As for proofs, the cofactor admits a signature whose error
s * P - h * Ppub - R is pure torsion; since R is hashed into h, that gives
no forgery (see the README's Security notes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .credential import (
    Credential,
    PresentationSignature,
    check_count,
    refuse_zero_h,
    signature_of,
)
from .curve import Point, Scalar
from .errors import WireError
# hash_points is unused here, but perfbench/spans.py wraps disclosure.hash_points
from .hashing import hash_block, hash_points, hedged_scalar  # noqa: F401
from .params import SystemParams
from .schnorr import SchnorrTranscript, fs_prove_batch, fs_verify_batch
from .wire import Reader, new_session_id

_BITMAP_BYTES = 8  # one bit per attribute index, MAX_ATTRIBUTES = 64


def _encode_fields(params: SystemParams, sig: PresentationSignature, n: int, disclosed: dict,
                   hidden_points: dict) -> bytes:
    """Every field from R to the hidden points, in token order: what the
    challenge context and the encoding both carry."""
    w = params.curve.coord_bytes
    bits = sum(1 << i for i in hidden_points)
    parts = [sig.encode(), n.to_bytes(2, "big"), bits.to_bytes(_BITMAP_BYTES, "big")]
    parts += [disclosed[i].to_bytes(w) for i in sorted(disclosed)]
    parts += [hidden_points[i].encode() for i in sorted(hidden_points)]
    return b"".join(parts)


def _context(params: SystemParams, session_id: bytes, fields: bytes) -> bytes:
    """The challenge context: every token field except the proofs and
    their challenge, from the fields _encode_fields wrote."""
    return b"DISCLOSE:" + params.digest() + session_id + fields


# a dataclass: perfbench/workloads.py's tamper helpers call dataclasses.replace on it
@dataclass(frozen=True)
class DisclosureToken:
    """A disclosure token, well-formed by construction and immutable once
    built. The constructor raises ValueError, which from_bytes reports as
    WireError, unless credential.check_count allows n_attrs, the
    disclosed and hidden indices partition range(n_attrs), index 0 is
    hidden, no disclosed scalar is zero, proofs holds one pair per hidden
    index and the signature triple has h != 0. verify_disclosure checks
    none of these again.

    Index 0 stays hidden because m_0 is the master secret: revealing it
    hands the verifier the secret that every later proof of the holder
    rests on."""

    sig_r: Point
    sig_s: Scalar
    sig_h: Scalar
    n_attrs: int
    disclosed: dict  # index -> Scalar
    hidden_points: dict  # index -> Point
    proofs: dict  # index -> (A_i, r_i), proving knowledge of hidden_points[i]
    challenge: Scalar  # the one challenge every proof shares
    session_id: bytes

    def __post_init__(self):
        n = self.n_attrs
        check_count(n)
        if sorted([*self.hidden_points, *self.disclosed]) != list(range(n)):
            raise ValueError("disclosed and hidden indices do not partition the attributes")
        if 0 in self.disclosed:
            raise ValueError("index 0, the master secret, is disclosed")
        if not all(self.disclosed.values()):
            raise ValueError("token carries a zero disclosed attribute")
        if self.proofs.keys() != self.hidden_points.keys():
            raise ValueError("proofs are not one per hidden index")
        refuse_zero_h(self.sig_h)

    def hidden_indices(self) -> list[int]:
        return sorted(self.hidden_points)

    def disclosed_indices(self) -> list[int]:
        return sorted(self.disclosed)

    def _fields(self, params: SystemParams) -> bytes:
        sig = PresentationSignature(self.sig_r, self.sig_s, self.sig_h)
        return _encode_fields(params, sig, self.n_attrs, self.disclosed, self.hidden_points)

    def body_prefix(self, params: SystemParams) -> bytes:
        """The token's challenge context (_context)."""
        return _context(params, self.session_id, self._fields(params))

    def to_bytes(self, params: SystemParams) -> bytes:
        w = params.curve.coord_bytes
        parts = [params.digest(), self._fields(params)]
        for i in self.hidden_indices():
            a, resp = self.proofs[i]
            parts += [a.encode(), resp.to_bytes(w)]
        parts.append(self.challenge.to_bytes(w))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, params: SystemParams, session_id: bytes) -> "DisclosureToken":
        r = Reader(data, params.curve)
        r.deployment(params)
        sig = PresentationSignature.read(r)
        n = r.uint(2)
        bits = r.uint(_BITMAP_BYTES)
        if bits >> n:
            raise WireError("hidden bitmap names indices out of range")
        disclosed = {i: r.scalar() for i in range(n) if not bits >> i & 1}
        hidden_points = {i: r.point() for i in range(n) if bits >> i & 1}
        proofs = {i: (r.point(), r.scalar()) for i in hidden_points}
        challenge = r.scalar()
        r.end()
        return r.build(cls, sig.r_point, sig.s, sig.h, n, disclosed, hidden_points, proofs,
                       challenge, session_id)


def present(cred: Credential, disclose, params: SystemParams, rng) -> DisclosureToken:
    """Build a disclosure token revealing exactly the given indices.

    disclose may be empty (everything stays hidden); it may never contain
    index 0 or an index outside the credential. Draws the session id, then
    one proof nonce w_i per hidden index, hedged with m_i
    (hashing.hedged_scalar), and takes the h hidden m_i * P and the h
    commitments w_i * P as one batch of 2h Ms with one inversion.
    """
    n = len(cred.attrs)
    disclose = list(disclose)
    for i in disclose:
        # a bool is an int, but True is no index
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i < n:
            raise ValueError(f"cannot disclose index {i!r}")
    disclose = sorted(set(disclose))
    session_id = new_session_id(rng)
    curve = params.curve
    hidden = [i for i in range(n) if i not in disclose]
    secrets = [cred.attrs[i] for i in hidden]
    context = b"PRESENT-W:" + params.digest() + session_id
    nonces = [hedged_scalar(curve, cred.attrs[i], rng, context + i.to_bytes(2, "big"))
              for i in hidden]
    multiples = curve.base.multiples(secrets + nonces)
    points, commitments = multiples[:len(hidden)], multiples[len(hidden):]
    disclosed = {i: cred.attrs[i] for i in disclose}
    hidden_points = dict(zip(hidden, points))
    fields = _encode_fields(params, signature_of(cred), n, disclosed, hidden_points)
    transcripts = fs_prove_batch(secrets, points, nonces, commitments,
                                 _context(params, session_id, fields))
    proofs = {i: (t.commitment, t.response) for i, t in zip(hidden, transcripts)}
    return DisclosureToken(cred.r_point, cred.s, cred.h, n, disclosed, hidden_points, proofs,
                           transcripts[0].challenge, session_id)


def verify_disclosure(token: DisclosureToken, params: SystemParams) -> bool:
    """Check the signature and every hidden-index proof as one equation.
    The token is well-formed by construction, so only the equation is
    left to check."""
    curve = params.curve
    revealed = token.disclosed_indices()
    points = dict(zip(revealed, curve.base.multiples([token.disclosed[i] for i in revealed])))
    points.update(token.hidden_points)
    h = hash_block([points[i] for i in range(token.n_attrs)], token.sig_r).v
    # s*P - h*Ppub - R == O, booked as 3 Ms + 1 Ap: the count of the split
    # form h_hidden*Ppub == h_disc^-1*(s*P - R), which perfbench's
    # disclosure count gate pins
    signature = (params.signature_terms(token.sig_s.v, h, token.sig_r), 3, 1)
    transcripts = [SchnorrTranscript(a, token.challenge, resp, token.hidden_points[i])
                   for i, (a, resp) in sorted(token.proofs.items())]
    return fs_verify_batch(transcripts, token.body_prefix(params), signature)
