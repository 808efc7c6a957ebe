"""Operation counts for `edcred bench`.

opcount_bench runs one issuance and one verification of a credential with
n attributes, each protocol step under its own OpCounter, and render_table
prints the measured counts next to the published costs, with the proof of
knowledge kept in separate columns and a per-step breakdown, inner steps
included, so any discrepancy is attributable.
"""

from __future__ import annotations

from collections import namedtuple

from .credential import check_equation, signature_of
from .curve import OpCounter
from .errors import ProtocolError
from .issuance import issuer_start, user_blind, user_unblind
from .params import IssuerKey, SystemParams
from .schnorr import fs_prove, fs_verify, pk_commit


def paper_issuance_ms(n: int) -> int:
    return n + 6


PAPER_ISSUANCE_AP = 2
PAPER_VERIFY_MS = 2
PAPER_VERIFY_AP = 1

# the table's columns; each header, lower-cased, names the row attribute
COLUMNS = ("protocol", "n", "measured_Ms", "paper_Ms", "measured_Ap", "paper_Ap", "pk_Ms", "pk_Ap")


class ProtocolReport(namedtuple("ProtocolReport", "protocol n steps pk paper_ms paper_ap")):
    """One protocol at one size: the OpCounter of each step (in order), the
    proof-of-knowledge counter, and the published (Ms, Ap)."""

    __slots__ = ()

    @property
    def measured_ms(self) -> int:
        return sum(ops.scalar_mults for ops in self.steps.values())

    @property
    def measured_ap(self) -> int:
        return sum(ops.point_adds for ops in self.steps.values())

    @property
    def pk_ms(self) -> int:
        return self.pk.scalar_mults

    @property
    def pk_ap(self) -> int:
        return self.pk.point_adds

    def cells(self) -> list[str]:
        return [str(getattr(self, column.lower())) for column in COLUMNS]


def _measure_once(n: int, params: SystemParams, key: IssuerKey, rng):
    steps = {}
    pk = OpCounter()
    attrs = [params.curve.random_nonzero(rng) for _ in range(n)]
    with OpCounter() as steps["issuer nonce"]:
        session, r_bar = issuer_start(key, params, rng)
    with OpCounter() as steps["user blind"]:
        blind, request = user_blind(r_bar, attrs, params, rng, pk_ops=pk)
    with OpCounter() as steps["issuer sign"]:
        s_bar = session.sign(request, pk_ops=pk)
    with OpCounter() as steps["user unblind"]:
        cred = user_unblind(blind, s_bar, params)
    issuance = ProtocolReport("issuance", n, steps, pk, paper_issuance_ms(n), PAPER_ISSUANCE_AP)

    # verification: the holder shows the triple with a fresh proof; proving
    # happens outside the counters, the verifier's equation and proof check
    # each under their own
    steps = {}
    sig = signature_of(cred)
    p0 = attrs[0] * params.curve.base
    proof = fs_prove(attrs[0], p0, *pk_commit(params.curve, attrs[0], rng), b"bench")
    with OpCounter() as steps["check equation"]:
        equation = check_equation(sig, params)
    with OpCounter() as pk:
        proof_ok = fs_verify(proof, b"bench")
    if not (equation and proof_ok):
        raise ProtocolError("bench credential failed to verify")
    verification = ProtocolReport("verification", n, steps, pk, PAPER_VERIFY_MS, PAPER_VERIFY_AP)
    return [issuance, verification]


def opcount_bench(
    n: int, params: SystemParams, key: IssuerKey, rng, repeat: int = 1
) -> list[ProtocolReport]:
    """Count group operations for a full issuance and a verification of a
    credential with n attributes (master secret included in n).

    With repeat > 1 the measurement runs repeatedly and its table cells
    must come out identical every time; Ms and Ap are determined by the
    protocol, not the inputs. The inner steps vary with the drawn scalars,
    so they are not compared. A repeat below 1 is a ValueError.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, not {repeat}")
    rows = _measure_once(n, params, key, rng)
    for _ in range(repeat - 1):
        again = _measure_once(n, params, key, rng)
        if [r.cells() for r in again] != [r.cells() for r in rows]:
            raise ProtocolError("operation counts drifted between repeats")
    return rows


def render_table(rows: list[ProtocolReport]) -> str:
    table = [COLUMNS] + [r.cells() for r in rows]
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    lines.append("")
    for r in rows:
        if len(r.steps) < 2:
            continue
        lines.append(f"{r.protocol} n={r.n} step breakdown:")
        for name, ops in r.steps.items():
            lines.append(f"  {name}: Ms={ops.scalar_mults} Ap={ops.point_adds}"
                         f"  inner adds={ops.inner_adds} doubles={ops.inner_doubles}"
                         f" inversions={ops.inversions}")
    return "\n".join(lines)
