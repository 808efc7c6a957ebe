#!/usr/bin/env python3
"""Re-derive every claim made about the shipped production curve constants.

Builds a curve1174 deployment, whose constructors refuse cofactor * q
outside the Hasse window around p + 1, d = 0 or 1 and a base point off
the curve or neutral. Runs on it params.validate_params, the audit `edcred
setup` runs: p and q prime, d a quadratic non-residue (the completeness
condition), and the base point and public key of exact order q. Also checks that the comb table for
the base point shipped in data/curve1174_comb.bin equals a fresh build,
entry by entry, each read through the shipped rows' decoding. Exits
nonzero on any failure.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from edcred.curve import Point, production_curve  # noqa: E402
from edcred.params import setup, validate_params  # noqa: E402


def same_table(shipped: list, fresh: list) -> bool:
    # a shipped row holds only the entries read so far, so compare by digit
    return len(shipped) == len(fresh) and all(
        row[m] == entry for row, fresh_row in zip(shipped, fresh) for m, entry in fresh_row.items())


def main():
    c = production_curve()
    problems = validate_params(setup(c, random.Random("check_production_curve"))[0]).problems
    for problem in problems:
        print(f"FAIL  {problem}")
    print(f"validate_params on a curve1174 deployment  {'FAIL' if problems else 'ok'}")
    fresh = same_table(c.base._table, Point(c.base.x, c.base.y, c).precompute()._table)
    print(f"shipped comb table is a fresh build         {'ok' if fresh else 'FAIL'}")
    return 1 if problems or not fresh else 0


if __name__ == "__main__":
    raise SystemExit(main())
