"""Executable security arguments and operation accounting.

Three things live here because they cut across the protocol modules:

* the blindness crosscheck: from any valid issuer view (R', h', s') and any
  valid credential triple (R, s, h), blinding factors alpha = h / h' and
  beta = s - alpha * s' always exist and satisfy R == alpha * R' + beta * P,
  so the issuer's transcript is consistent with every credential and links
  to none;

* the keyless issuing simulator: choosing s_i first and bending the nonce
  to R_i = s_i * P - h_i * Ppub yields triples that satisfy the curve
  equation without the secret key, which is exactly why acceptance must
  also demand the master-secret proof and its hash binding;

* operation counters for issuance and verification, with the proof of
  knowledge kept in separate columns and a per-step breakdown so any
  discrepancy against the published costs is attributable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .credential import PresentationSignature, check_equation, signature_of
from .curve import OpCounter, Point, Scalar
from .errors import ProtocolError
from .hashing import hash_points
from .issuance import issuer_start, user_blind, user_unblind
from .params import IssuerKey, SystemParams, setup
from .schnorr import fs_prove, fs_verify
from .wire import MSG_ISS1, MSG_ISS2, MSG_ISS3, Transcript


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


def pair_blinding(
    view: IssuerView, output: PresentationSignature, params: SystemParams
) -> BlindPairing:
    """Derive the unique blinding candidate linking view to output.

    Both tuples must be internally valid; garbage is rejected up front so a
    False result always means the linkage itself failed, not the inputs.
    """
    curve = params.curve
    base = curve.base
    if view.s_bar * base != view.h_bar * params.p_pub + view.r_bar:
        raise ValueError("issuer view is not a valid session")
    if output.s * base != output.h * params.p_pub + output.r_point:
        raise ValueError("output is not a valid credential triple")
    alpha = output.h * view.h_bar.inverse()
    beta = output.s - alpha * view.s_bar
    consistent = output.r_point == alpha * view.r_bar + beta * base
    return BlindPairing(alpha=alpha, beta=beta, consistent=consistent)


def blindness_crosscheck(
    view: IssuerView, output: PresentationSignature, params: SystemParams
) -> bool:
    return pair_blinding(view, output, params).consistent


def issuer_view_from_transcript(transcript: Transcript, params: SystemParams) -> IssuerView:
    """Read (R', h', s') out of a recorded issuance, i.e. reconstruct the
    issuer's view from the actual wire bytes."""
    from .protocol import _body_scalar, decode_request  # local import, protocol imports upward

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


# -- issuing-oracle simulation ----------------------------------------------

def simulate_issue(h_i: Scalar, params: SystemParams, rng) -> tuple[Point, Scalar]:
    """Produce (R_i, s_i) satisfying s_i * P == h_i * Ppub + R_i without the
    secret key, by drawing s_i first and solving for the nonce point."""
    curve = params.curve
    s_i = Scalar(rng.randrange(1, curve.q), curve.q)
    r_i = s_i * curve.base - h_i * params.p_pub
    return r_i, s_i


def attempt_master_binding(h_i: Scalar, r_point: Point, params: SystemParams, rng) -> bool:
    """Do what a keyless forger can: pick a fresh witness, commit to it and
    prove knowledge. The proof always verifies; what never holds is the
    binding H(P_0, R_i) == h_i, and that binding is the check that separates
    simulated triples from issued ones."""
    curve = params.curve
    mu = curve.random_nonzero(rng)
    p0 = mu * curve.base
    proof = fs_prove(mu, p0, b"", rng)
    return fs_verify(proof, b"") and hash_points(p0, r_point) == h_i


# -- operation accounting ----------------------------------------------------

@dataclass(frozen=True)
class ProtocolReport:
    """Measured group-operation counts for one protocol at one size."""

    protocol: str
    n: int
    measured_ms: int
    paper_ms: int
    measured_ap: int
    paper_ap: int
    pk_ms: int
    pk_ap: int
    steps: dict


def paper_issuance_ms(n: int) -> int:
    return n + 6


PAPER_ISSUANCE_AP = 2
PAPER_VERIFY_MS = 2
PAPER_VERIFY_AP = 1


def _measure_once(n: int, params: SystemParams, key: IssuerKey, rng):
    steps = {}
    pk = OpCounter()
    attrs = [params.curve.random_nonzero(rng) for _ in range(n)]

    with OpCounter() as ops:
        session, r_bar = issuer_start(key, params, rng)
    steps["issuer nonce"] = (ops.scalar_mults, ops.point_adds)

    with OpCounter() as ops:
        blind, request = user_blind(r_bar, attrs, params, rng, pk_ops=pk)
    steps["user blind"] = (ops.scalar_mults, ops.point_adds)

    with OpCounter() as ops:
        s_bar = session.sign(request, pk_ops=pk)
    steps["issuer sign"] = (ops.scalar_mults, ops.point_adds)

    with OpCounter() as ops:
        cred = user_unblind(blind, s_bar, params)
    steps["user unblind"] = (ops.scalar_mults, ops.point_adds)

    issuance = ProtocolReport(
        protocol="issuance",
        n=n,
        measured_ms=sum(ms for ms, _ in steps.values()),
        paper_ms=paper_issuance_ms(n),
        measured_ap=sum(ap for _, ap in steps.values()),
        paper_ap=PAPER_ISSUANCE_AP,
        pk_ms=pk.scalar_mults,
        pk_ap=pk.point_adds,
        steps=dict(steps),
    )

    # verification: the holder shows the triple with a fresh proof; proving
    # happens outside the counters, the verifier's equation and proof check
    # each under their own
    sig = signature_of(cred)
    p0 = attrs[0] * params.curve.base
    proof = fs_prove(attrs[0], p0, b"bench", rng)
    with OpCounter() as ops:
        equation = check_equation(sig, params)
    with OpCounter() as pk_v:
        proof_ok = fs_verify(proof, b"bench")
    if not (equation and proof_ok):
        raise ProtocolError("bench credential failed to verify")
    verification = ProtocolReport(
        protocol="verification",
        n=n,
        measured_ms=ops.scalar_mults,
        paper_ms=PAPER_VERIFY_MS,
        measured_ap=ops.point_adds,
        paper_ap=PAPER_VERIFY_AP,
        pk_ms=pk_v.scalar_mults,
        pk_ap=pk_v.point_adds,
        steps={"check equation": (ops.scalar_mults, ops.point_adds)},
    )
    return [issuance, verification]


def opcount_bench(
    n: int,
    params: SystemParams | None = None,
    key: IssuerKey | None = None,
    rng=None,
    repeat: int = 1,
) -> list[ProtocolReport]:
    """Count group operations for a full issuance and a verification of a
    credential with n attributes (master secret included in n).

    With repeat > 1 the measurement runs repeatedly and must come out
    identical every time; counts are determined by the protocol, not the
    inputs.
    """
    if rng is None:
        import random

        rng = random.Random(20250 + n)
    if params is None or key is None:
        params, key = setup("production", rng)
    rows = _measure_once(n, params, key, rng)
    for _ in range(repeat - 1):
        again = _measure_once(n, params, key, rng)
        for a, b in zip(rows, again):
            if (a.measured_ms, a.measured_ap, a.pk_ms, a.pk_ap) != (
                b.measured_ms,
                b.measured_ap,
                b.pk_ms,
                b.pk_ap,
            ):
                raise ProtocolError("operation counts drifted between repeats")
    return rows


def render_table(rows: list[ProtocolReport], breakdown: bool = True) -> str:
    headers = (
        "protocol",
        "n",
        "measured_Ms",
        "paper_Ms",
        "measured_Ap",
        "paper_Ap",
        "pk_Ms",
        "pk_Ap",
    )
    table = [headers] + [
        (
            r.protocol,
            str(r.n),
            str(r.measured_ms),
            str(r.paper_ms),
            str(r.measured_ap),
            str(r.paper_ap),
            str(r.pk_ms),
            str(r.pk_ap),
        )
        for r in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    if breakdown:
        lines.append("")
        for r in rows:
            if len(r.steps) < 2:
                continue
            lines.append(f"{r.protocol} n={r.n} step breakdown:")
            for name, (ms, ap) in r.steps.items():
                lines.append(f"  {name}: Ms={ms} Ap={ap}")
    return "\n".join(lines)
