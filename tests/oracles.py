"""Reference oracles and security arguments for the tests; the package
does not use them.

Exhaustive ones for the toy curve, every point and brute-force logs, walk
the whole field or the whole subgroup, so they refuse any field above
MAX_ENUMERABLE_P. The reference disclosure verifier checks the plain,
uncofactored equations one by one through Point operations.

The security arguments are executable:

* blindness: from any valid issuer view (R', h', s') and any valid
  credential triple (R, s, h), blinding factors alpha = h / h' and
  beta = s - alpha * s' always exist and satisfy R == alpha * R' + beta * P,
  so the issuer's transcript is consistent with every credential and links
  to none;

* the keyless issuing simulator: choosing s_i first and bending the nonce
  to R_i = s_i * P - h_i * Ppub yields triples that satisfy the curve
  equation without the secret key, which is exactly why acceptance must
  also demand the master-secret proof and its hash binding;

* special soundness: two accepting proof transcripts with one commitment
  and two challenges reveal the witness.

The known attacks are executable too (tests/test_known_attacks.py pins
each outcome): a keyless presentation token, a hidden attribute read off
a guess list, the ROS forgery that bits(q) concurrent signing
sessions allow, the issuer key from two sessions under one nonce, and the
secrets behind a token or transcript drawn from a guessable seed.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

from edcred.credential import (
    MAX_ATTRIBUTES,
    PresentationSignature,
    PresentationToken,
    presentation_context,
)
from edcred.curve import Point, Scalar, _add, _cache, inv_mod, sum_of_multiples
from edcred.errors import SessionError
from edcred.hashing import attr_to_scalar, challenge_scalar, hash_block, hash_points
from edcred.issuance import (
    Credential,
    IssuanceRequest,
    UserBlindState,
    issuer_start,
    user_unblind,
)
from edcred.protocol import _body_scalar, decode_request
from edcred.schnorr import fs_prove, fs_verify, pk_commit
from edcred.wire import MSG_ISS1, MSG_ISS2, MSG_ISS3, new_session_id

# Hard cap for the exhaustive helpers; anything bigger is not a toy curve.
MAX_ENUMERABLE_P = 10_000


def enumerate_points(curve) -> list[Point]:
    """Every affine point of the curve, sorted by (x, y).

    Walks x and solves y^2 = (1-x^2)/(1-d*x^2) with a square-root table,
    so the cost is O(p) rather than O(p^2). Refuses non-toy fields.
    """
    p, d = curve.p, curve.d
    if p > MAX_ENUMERABLE_P:
        raise ValueError(f"enumeration capped at p <= {MAX_ENUMERABLE_P}")
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    pts = []
    for x in range(p):
        num = (1 - x * x) % p
        den = (1 - d * x * x) % p
        # d is a non-residue, so den vanishes for no x
        t = num * inv_mod(den, p) % p
        for y in roots.get(t, ()):
            pts.append(Point(x, y, curve))
    return pts


def dlp_bruteforce(target: Point, base: Point) -> Scalar:
    """Smallest k with k*base == target, by walking the subgroup.

    Only defined for toy curves and for base points of order dividing q;
    raises ValueError when target is not a multiple of base.
    """
    curve = base.curve
    if curve.p > MAX_ENUMERABLE_P:
        raise ValueError(f"brute force capped at p <= {MAX_ENUMERABLE_P}")
    if target.curve != curve:
        raise ValueError("points on different curves")
    p = curve.p
    tx, ty = target.x, target.y
    step = _cache(p, curve.d, base.x, base.y)
    X, Y, Z, T = 0, 1, 1, 0
    for k in range(curve.q):
        # (X:Y:Z) == (tx, ty) compared by cross-multiplying, no inversion
        if X == tx * Z % p and Y == ty * Z % p:
            return Scalar(k, curve.q)
        X, Y, Z, T = _add(p, True, X, Y, Z, T, *step)
    raise ValueError("target is not in the subgroup generated by base")


def reference_verify_disclosure(token, params) -> bool:
    """verify_disclosure's verdict by the exact equations: the partition
    audit, s*P == h*Ppub + R with h = prod H(P_i, R), then the shared
    challenge and r*P == A + c*Q for each hidden-index proof on its own."""
    curve = params.curve
    n = token.n_attrs
    hidden, disclosed = set(token.hidden_points), set(token.disclosed)
    if not 1 <= n <= MAX_ATTRIBUTES or 0 not in hidden or hidden & disclosed:
        return False
    if hidden | disclosed != set(range(n)) or set(token.proofs) != hidden:
        return False
    if token.sig_h.v == 0 or any(m.v == 0 for m in token.disclosed.values()):
        return False
    if not all(pt.on_curve() for pt in [token.sig_r, *token.hidden_points.values()]):
        return False
    points = {**token.hidden_points, **{i: m * curve.base for i, m in token.disclosed.items()}}
    h = hash_block([points[i] for i in range(n)], token.sig_r)
    if token.sig_s * curve.base != h * params.p_pub + token.sig_r:
        return False
    order = sorted(hidden)
    c = challenge_scalar([token.proofs[i][0] for i in order],
                         [token.hidden_points[i] for i in order],
                         token.body_prefix(params), curve)
    return token.challenge == c and all(
        r * curve.base == a + c * token.hidden_points[i] for i, (a, r) in token.proofs.items())


# -- disclosure token bytes ----------------------------------------------------

def disclosure_fields(params, sig_r, sig_s, sig_h, n_attrs, disclosed, hidden_points) -> bytes:
    """A disclosure token's fields from R to the hidden points, written from
    the layout: R, s, h, n (2 bytes), the hidden bitmap (8 bytes), then the
    disclosed m_i and the hidden P_i, each by index. Takes values that no
    DisclosureToken holds, a zero h, a zero m_i or m_0 disclosed."""
    w = params.curve.coord_bytes
    bits = sum(1 << i for i in hidden_points)
    out = [sig_r.encode(), sig_s.to_bytes(w), sig_h.to_bytes(w),
           n_attrs.to_bytes(2, "big"), bits.to_bytes(8, "big")]
    out += [disclosed[i].to_bytes(w) for i in sorted(disclosed)]
    out += [hidden_points[i].encode() for i in sorted(hidden_points)]
    return b"".join(out)


def disclosure_context(params, session_id, fields: bytes) -> bytes:
    """The challenge context of a token whose disclosure_fields are fields."""
    return b"DISCLOSE:" + params.digest() + session_id + fields


def disclosure_bytes(token, params, **changes) -> bytes:
    """token's bytes written from the layout, with the fields named in
    changes replaced: the digest, disclosure_fields, one (A_i, r_i) per
    hidden index by index, then the challenge."""
    f = {**vars(token), **changes}
    w = params.curve.coord_bytes
    proofs = [a.encode() + r.to_bytes(w) for _, (a, r) in sorted(f["proofs"].items())]
    fields = disclosure_fields(params, f["sig_r"], f["sig_s"], f["sig_h"], f["n_attrs"],
                               f["disclosed"], f["hidden_points"])
    return b"".join([params.digest(), fields, *proofs, f["challenge"].to_bytes(w)])


# -- blindness ---------------------------------------------------------------

class IssuerView(NamedTuple):
    """Everything a signing session shows the issuer."""

    r_bar: Point
    h_bar: Scalar
    s_bar: Scalar


@dataclass(frozen=True)
class BlindPairing:
    """One attempted match of a session view against a credential."""

    alpha: Scalar
    beta: Scalar
    consistent: bool


def pair_blinding(view, output, params) -> BlindPairing:
    """Derive the unique blinding candidate linking view to output, a
    PresentationSignature.

    Both tuples must be internally valid; garbage is rejected up front so a
    False result always means the linkage itself failed, not the inputs.
    """
    base = params.curve.base
    if view.s_bar * base != view.h_bar * params.p_pub + view.r_bar:
        raise ValueError("issuer view is not a valid session")
    if output.s * base != output.h * params.p_pub + output.r_point:
        raise ValueError("output is not a valid credential triple")
    alpha = output.h * view.h_bar.inverse()
    beta = output.s - alpha * view.s_bar
    consistent = output.r_point == alpha * view.r_bar + beta * base
    return BlindPairing(alpha=alpha, beta=beta, consistent=consistent)


def blindness_crosscheck(view, output, params) -> bool:
    return pair_blinding(view, output, params).consistent


def issuer_view_from_transcript(transcript, params) -> IssuerView:
    """Read (R', h', s') out of a recorded issuance, i.e. reconstruct the
    issuer's view from the actual wire bytes."""
    curve = params.curve
    r_bar = h_bar = s_bar = None
    for entry in transcript:
        body = entry.message.body
        if entry.message.msg_type == MSG_ISS1:
            r_bar = Point.decode(body, curve)
        elif entry.message.msg_type == MSG_ISS2:
            h_bar = decode_request(body, params).h_bar
        elif entry.message.msg_type == MSG_ISS3:
            s_bar = _body_scalar(body, params)
    if r_bar is None or h_bar is None or s_bar is None:
        raise ValueError("transcript does not contain a full issuance")
    return IssuerView(r_bar=r_bar, h_bar=h_bar, s_bar=s_bar)


# -- issuing-oracle simulation -----------------------------------------------

def simulate_issue(h_i: Scalar, params, rng) -> tuple:
    """Produce (R_i, s_i) satisfying s_i * P == h_i * Ppub + R_i without the
    secret key, by drawing s_i first and solving for the nonce point."""
    curve = params.curve
    s_i = Scalar(rng.randrange(1, curve.q), curve.q)
    r_i = s_i * curve.base - h_i * params.p_pub
    return r_i, s_i


def attempt_master_binding(h_i: Scalar, r_point: Point, params, rng) -> bool:
    """Do what a keyless forger can: pick a fresh witness, commit to it and
    prove knowledge. The proof always verifies; what never holds is the
    binding H(P_0, R_i) == h_i, and that binding is the check that separates
    simulated triples from issued ones."""
    curve = params.curve
    mu = curve.random_nonzero(rng)
    p0 = mu * curve.base
    proof = fs_prove(mu, p0, *pk_commit(curve, mu, rng), b"")
    return fs_verify(proof, b"") and hash_points(p0, r_point) == h_i


# -- special soundness -------------------------------------------------------

def extract_witness(t1, t2) -> Scalar:
    """Two accepting transcripts with the same commitment but different
    challenges reveal the witness as (r1-r2)/(c1-c2)."""
    if t1.commitment != t2.commitment or t1.statement != t2.statement:
        raise ValueError("transcripts must share commitment and statement")
    if t1.challenge == t2.challenge:
        raise ValueError("challenges must differ")
    return (t1.response - t2.response) * (t1.challenge - t2.challenge).inverse()


# -- known attacks -------------------------------------------------------------

def key_from_two_views(v1: IssuerView, v2: IssuerView) -> Scalar:
    """The issuer secret from two sessions signed under one nonce k:
    s'_i = h'_i * x + k, so x = (s'_1 - s'_2) / (h'_1 - h'_2)."""
    return (v1.s_bar - v2.s_bar) * (v1.h_bar - v2.h_bar).inverse()


def guessed_stream(session_id: bytes, role: str, seeds):
    """The stream random.Random(f"{role}:{seed}"), as `edcred <command>
    --seed` draws it, of the first seed in seeds whose first draw is
    session_id, positioned after that draw; None if no seed gives it."""
    for seed in seeds:
        rng = random.Random(f"{role}:{seed}")
        if new_session_id(rng) == session_id:
            return rng
    return None


def secrets_from_a_guessed_seed(token, params, seeds) -> dict:
    """{index: m_i} for each proof of a holder token, read off the nonces a
    guessed seed redraws: m_i = (r_i - w_i) / c. The stream gives the
    session id, then a full show's r and w, or a disclosure token's w_i
    in index order."""
    rng = guessed_stream(token.session_id, "present", seeds)
    q = params.curve.q
    if isinstance(token, PresentationToken):
        rng.randrange(q)  # r
        responses, c = {0: token.proof.response}, token.proof.challenge
    else:
        responses = {i: token.proofs[i][1] for i in token.hidden_indices()}
        c = token.challenge
    return {i: (r - Scalar(rng.randrange(q), q)) * c.inverse() for i, r in responses.items()}


def key_from_a_guessed_seed(transcript, params, seeds) -> Scalar:
    """The issuer secret from one issuance transcript, read off the nonce k
    a guessed seed redraws after the session id: x = (s' - k) / h'."""
    view = issuer_view_from_transcript(transcript, params)
    session_id = next(iter(transcript)).message.session_id
    k = guessed_stream(session_id, "issuer", seeds).randrange(params.curve.q)
    return (view.s_bar - k) * view.h_bar.inverse()


def forge_presentation(params, rng) -> PresentationToken:
    """A full-show token with no issuance behind it: a simulate_issue
    triple on a random h, with the forger's own master secret, P_0 and a
    proof for it under the token's context."""
    curve = params.curve
    h = curve.random_nonzero(rng)
    r_point, s = simulate_issue(h, params, rng)
    sig = PresentationSignature(r_point=r_point, s=s, h=h)
    m0 = curve.random_nonzero(rng)
    p0 = m0 * curve.base
    session_id = new_session_id(rng)
    proof = fs_prove(m0, p0, *pk_commit(curve, m0, rng),
                     presentation_context(params, session_id, sig))
    return PresentationToken(sig=sig, commitment0=p0, proof=proof, session_id=session_id)


def guess_hidden(token, index: int, labels, params):
    """The label among labels whose attribute scalar commits to the hidden
    point at index of a disclosure token, or None: one multiple per
    guess."""
    curve = params.curve
    target = token.hidden_points[index]
    for label in labels:
        if attr_to_scalar(label, curve) * curve.base == target:
            return label
    return None


def ros_forge(key, params, honest: tuple, other: tuple, forged: tuple, rng) -> list:
    """bits(q) + 1 credentials that pass verify_credential from bits(q)
    signing sessions held open at once, the last on the attributes forged,
    which no session signed (Benhamouda, Lepoint, Loss, Orru, Raykova,
    EUROCRYPT 2021).

    honest and other are two attribute lists with one master secret. Each
    session i blinds its nonce R'_i once, to R_i = alpha_i*R'_i + beta_i*P,
    and so has two hash-bound candidates c_i^b = H_b(R_i) / alpha_i, one
    per list. With a_i = 2^i / (c_i^1 - c_i^0), the forged nonce is
    R* = sum a_i*R'_i + (sum a_i*c_i^0)*Ppub and its h* = H(forged, R*).
    Session i is signed on c_i^(bit i of h*), so that
    sum a_i*c_i = sum a_i*c_i^0 + h*, and then s* = sum a_i*s'_i
    satisfies s* * P == h* * Ppub + R*.

    A session the issuer refuses with SessionError gives None in place of
    its credential and adds nothing to s*.
    """
    curve = params.curve
    base, q = curve.base, curve.q
    commitments = [base.multiples(attrs) for attrs in (honest, other)]
    p0 = commitments[0][0]
    if commitments[1][0] != p0:
        raise ValueError("the two attribute lists need one master secret")
    # the proof binds no session, so one proof serves every request
    proof = fs_prove(honest[0], p0, *pk_commit(curve, honest[0], rng), b"")
    sessions = [issuer_start(key, params, rng) for _ in range(q.bit_length())]
    blinds = []
    for _, r_bar in sessions:
        while True:
            alpha, beta = curve.random_nonzero(rng), curve.random_nonzero(rng)
            r_point = alpha * r_bar + beta * base
            hs = [hash_block(block, r_point) for block in commitments]
            if hs[0] != hs[1]:
                break
        blinds.append((alpha, beta, r_bar, r_point, hs, [h * alpha.inverse() for h in hs]))
    weights = [Scalar(1 << i, q) * (cs[1] - cs[0]).inverse()
               for i, (*_, cs) in enumerate(blinds)]
    shift = sum((a * cs[0] for a, (*_, cs) in zip(weights, blinds)), Scalar(0, q))
    terms = [(r_bar, a.v) for a, (_, _, r_bar, *_) in zip(weights, blinds)]
    r_star, = sum_of_multiples(curve, [terms + [(params.p_pub, shift.v)]], ms=len(terms) + 1,
                               ap=len(terms))
    h_star = hash_block(base.multiples(forged), r_star)
    creds, s_star = [], Scalar(0, q)
    for i, ((session, _), a, (alpha, beta, r_bar, r_point, hs, cs)) in enumerate(
            zip(sessions, weights, blinds)):
        b = h_star.v >> i & 1
        try:
            s_bar = session.sign(IssuanceRequest(h_bar=cs[b], commitment0=p0, proof=proof))
        except SessionError:
            creds.append(None)
            continue
        state = UserBlindState(alpha=alpha, beta=beta, r_bar=r_bar, r_point=r_point,
                               h=hs[b], h_bar=cs[b], attrs=(honest, other)[b])
        creds.append(user_unblind(state, s_bar, params))
        s_star = s_star + a * s_bar
    return creds + [Credential(attrs=forged, r_point=r_star, s=s_star, h=h_star)]
