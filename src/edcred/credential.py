"""Credentials, their verification, randomization and full-show
presentation tokens.

A credential is the attribute scalars and the signature triple (R, s, h)
that issuance (issuance.py) leaves the holder; this module owns its bytes,
the triple's bytes and the one exact check of the triple. A signature
triple (R, s, h) verifies through s * P == h * Ppub + R. Anyone
holding one can re-randomize it: pick r, set s^ = s + r and R^ = R + r * P;
the triple (R^, s^, h) verifies again and is unlinkable to the original as
a pair, while h deliberately stays fixed. Verifiers of a triple use the h
they were handed, which is what keeps randomized triples verifiable. Only
whoever holds the attributes, as with a raw credential, can recompute
h = prod H(m_i * P, R) and so tell an issued triple from a keyless one.

A presentation token carries the triple, the master-secret commitment P_0
and a proof of knowledge for it, all bound under one hash context so none
of the parts can be swapped out individually.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import Point, Scalar, sum_is_neutral, sum_of_multiples
from .errors import WireError
from .hashing import hash_block, hedged_scalar
from .params import SystemParams
from .schnorr import SchnorrTranscript, fs_prove, fs_verify
from .wire import Reader, new_session_id

MAX_ATTRIBUTES = 64


def check_count(n: int) -> None:
    """The rule on every attribute count, a credential's or a disclosure
    token's, stated once: n in [1, MAX_ATTRIBUTES]. Raises ValueError."""
    if not 1 <= n <= MAX_ATTRIBUTES:
        raise ValueError(f"attribute count must be in [1, {MAX_ATTRIBUTES}]")


def check_attrs(attrs, q: int) -> tuple[Scalar, ...]:
    """The rules on every attribute list, stated once: a count that
    check_count allows, and each value a nonzero Scalar mod q. A zero m_i
    makes P_i the neutral point, which no proof of knowledge hides.
    Returns the list as a tuple; raises ValueError."""
    attrs = tuple(attrs)
    check_count(len(attrs))
    for i, m in enumerate(attrs):
        if not isinstance(m, Scalar) or m.q != q:
            raise ValueError(f"attribute {i} is not a scalar mod q")
        if m.v == 0:
            raise ValueError(f"attribute {i} is zero")
    return attrs


def refuse_zero_h(h: Scalar) -> None:
    """The rule on every signature triple's h, stated once: with h = 0 the
    equation s*P == h*Ppub + R no longer involves the key, and any
    s*P == R passes it. Raises ValueError."""
    if h.v == 0:
        raise ValueError("signature carries a zero h: h = 0")


# a dataclass: perfbench/workloads.py's tamper helpers call dataclasses.replace on it
@dataclass(frozen=True)
class PresentationSignature:
    """The public part of a credential: the triple (R, s, h), immutable once
    built. h is never zero by construction (refuse_zero_h), and read
    reports the refusal as WireError, so no check looks again."""

    r_point: Point
    s: Scalar
    h: Scalar

    def __post_init__(self):
        refuse_zero_h(self.h)

    def encode(self) -> bytes:
        w = self.r_point.curve.coord_bytes
        return self.r_point.encode() + self.s.to_bytes(w) + self.h.to_bytes(w)

    @classmethod
    def read(cls, reader: Reader) -> "PresentationSignature":
        """The fields encode writes, from a Reader over the enclosing record."""
        return reader.build(cls, reader.point(), reader.scalar(), reader.scalar())


class Credential:
    """What the user walks away with: attribute scalars and the signature
    triple (R, s, h) satisfying s * P == h * Ppub + R. Well-formed by
    construction: the constructor raises ValueError, which from_bytes
    reports as WireError, unless the attributes pass check_attrs under
    R's curve and h != 0 (refuse_zero_h). attrs is stored as a tuple.
    Immutable once built, as the token types are: setting or deleting a
    field raises AttributeError, so no field can skip those rules."""

    __slots__ = ("attrs", "r_point", "s", "h")

    MAGIC = b"CRD1"

    def __init__(self, attrs, r_point: Point, s: Scalar, h: Scalar):
        refuse_zero_h(h)
        attrs = check_attrs(attrs, r_point.curve.q)
        for name, value in zip(self.__slots__, (attrs, r_point, s, h)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Credential is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Credential is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.attrs, self.r_point, self.s, self.h) == (
            other.attrs, other.r_point, other.s, other.h)

    def to_bytes(self, params: SystemParams) -> bytes:
        w = params.curve.coord_bytes
        body = [self.MAGIC, params.digest(), len(self.attrs).to_bytes(2, "big")]
        body += [m.to_bytes(w) for m in self.attrs]
        body.append(signature_of(self).encode())
        return b"".join(body)

    @classmethod
    def from_bytes(cls, data: bytes, params: SystemParams) -> "Credential":
        r = Reader(data, params.curve)
        if r.take(4) != cls.MAGIC:
            raise WireError("not a credential file")
        r.deployment(params)
        attrs = [r.scalar() for _ in range(r.uint(2))]
        sig = PresentationSignature.read(r)
        r.end()
        return r.build(cls, attrs, sig.r_point, sig.s, sig.h)


def signature_of(cred: Credential) -> PresentationSignature:
    return PresentationSignature(r_point=cred.r_point, s=cred.s, h=cred.h)


def check_equation(sig: PresentationSignature, params: SystemParams) -> bool:
    """The bare curve equation s*P == h*Ppub + R, booked as the two
    multiplications and one addition it stands for.

    Checked exactly, as s*P - h*Ppub - R == O in one projective sum with
    no inversion: a torsion error in R is refused. This is the one exact
    check of a triple; user_unblind checks the blinded triple (R', s', h')
    through it.
    """
    terms = params.signature_terms(sig.s.v, sig.h.v, sig.r_point)
    return sum_is_neutral(params.curve, terms, ms=2, ap=1, cofactored=False)


def verify_credential(cred: Credential, params: SystemParams) -> bool:
    """A raw credential: the equation and the binding h == prod H(m_i * P, R).

    The equation alone accepts keyless triples (s drawn first, then
    R = s*P - h*Ppub); the binding is what only an issued credential
    satisfies.
    """
    if not check_equation(signature_of(cred), params):
        return False
    return hash_block(params.curve.base.multiples(cred.attrs), cred.r_point) == cred.h


def _randomized(sig: PresentationSignature, r: Scalar | None, curve, sums):
    """(sig randomized by r, the results of sums), from one batch of sums
    with one inversion: the triple is (R + r * P, s + r, h), its sum
    R + r * P booked as 1 Ms + 1 Ap, and each of sums, one multiple, as
    1 Ms. r None leaves sig as it is."""
    if r is None:
        return sig, sum_of_multiples(curve, sums, ms=len(sums), ap=0)
    *out, r_point = sum_of_multiples(curve, [*sums, [(sig.r_point, 1), (curve.base, r.v)]],
                                     ms=len(sums) + 1, ap=1)
    return PresentationSignature(r_point=r_point, s=sig.s + r, h=sig.h), out


def randomize(
    sig: PresentationSignature,
    params: SystemParams,
    rng=None,
    *,
    r: Scalar | None = None,
) -> PresentationSignature:
    """Fresh verifying triple: (R + r * P, s + r, h) for r in [1, q-1].

    R + r * P is one sum, booked as 1 Ms + 1 Ap, with one inversion.
    Randomizations compose additively: applying r1 then r2 lands on the
    same triple as applying r1 + r2 once.
    """
    curve = params.curve
    if r is None:
        if rng is None:
            raise ValueError("need an rng or an explicit r")
        r = curve.random_nonzero(rng)
    elif r.q != curve.q:
        raise ValueError("r is not a scalar mod q")
    return _randomized(sig, r, curve, [])[0]


# a dataclass: perfbench/workloads.py's tamper helpers call dataclasses.replace on it
@dataclass(frozen=True)
class PresentationToken:
    """A full show: randomized triple, P_0 and its proof of knowledge,
    immutable once built."""

    sig: PresentationSignature
    commitment0: Point
    proof: SchnorrTranscript
    session_id: bytes

    def to_bytes(self, params: SystemParams) -> bytes:
        return (
            params.digest()
            + self.sig.encode()
            + self.commitment0.encode()
            + self.proof.to_bytes()
        )

    @classmethod
    def from_bytes(cls, data: bytes, params: SystemParams, session_id: bytes) -> "PresentationToken":
        r = Reader(data, params.curve)
        r.deployment(params)
        sig = PresentationSignature.read(r)
        commitment0 = r.point()
        proof = SchnorrTranscript.read(r, commitment0)
        r.end()
        return cls(sig=sig, commitment0=commitment0, proof=proof, session_id=session_id)


def presentation_context(params: SystemParams, session_id: bytes, sig: PresentationSignature) -> bytes:
    """Everything the token proof must be bound to, except the proof itself."""
    return b"PRESENT:" + params.digest() + session_id + sig.encode()


def make_presentation(
    cred: Credential,
    params: SystemParams,
    rng,
    *,
    fresh: bool = True,
) -> PresentationToken:
    """Build a token under a fresh session id, randomizing the triple by
    default.

    Draws the session id, then r when fresh, then the proof nonce w, r and
    w each hedged with m_0 (hashing.hedged_scalar), and takes
    P_0 = m_0 * P, A = w * P and, when fresh, R + r * P as one batch with
    one inversion, booked as 3 Ms + 1 Ap (2 Ms when not fresh).
    """
    session_id = new_session_id(rng)
    curve = params.curve
    m0 = cred.attrs[0]
    context = params.digest() + session_id
    r = hedged_scalar(curve, m0, rng, b"SHOW-R:" + context) if fresh else None
    w = hedged_scalar(curve, m0, rng, b"SHOW-W:" + context)
    sums = [[(curve.base, m0.v)], [(curve.base, w.v)]]
    sig, (p0, a) = _randomized(signature_of(cred), r, curve, sums)
    proof = fs_prove(m0, p0, w, a, presentation_context(params, session_id, sig))
    return PresentationToken(sig=sig, commitment0=p0, proof=proof, session_id=session_id)


def verify_presentation(token: PresentationToken, params: SystemParams) -> bool:
    """Equation plus master-secret proof under the token's context; both
    must hold."""
    if not check_equation(token.sig, params):
        return False
    return fs_verify(token.proof, presentation_context(params, token.session_id, token.sig))
