"""Operation counts for `edcred bench`.

opcount_bench runs one issuance and one verification of a credential with
n attributes under OpCounter, and render_table prints the measured counts
next to the published costs, with the proof of knowledge kept in separate
columns and a per-step breakdown so any discrepancy is attributable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .credential import check_equation, signature_of
from .curve import OpCounter
from .errors import ProtocolError
from .issuance import issuer_start, user_blind, user_unblind
from .params import IssuerKey, SystemParams
from .schnorr import fs_prove, fs_verify


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
    n: int, params: SystemParams, key: IssuerKey, rng, repeat: int = 1
) -> list[ProtocolReport]:
    """Count group operations for a full issuance and a verification of a
    credential with n attributes (master secret included in n).

    With repeat > 1 the measurement runs repeatedly and must come out
    identical every time; counts are determined by the protocol, not the
    inputs.
    """
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


def render_table(rows: list[ProtocolReport]) -> str:
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
    lines.append("")
    for r in rows:
        if len(r.steps) < 2:
            continue
        lines.append(f"{r.protocol} n={r.n} step breakdown:")
        for name, (ms, ap) in r.steps.items():
            lines.append(f"  {name}: Ms={ms} Ap={ap}")
    return "\n".join(lines)
