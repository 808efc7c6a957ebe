#!/usr/bin/env python3
"""Re-derive every claim made about the shipped production curve constants.

Checks, from p and d alone: p and q prime, d a quadratic non-residue (the
completeness condition), cofactor * q inside the Hasse window around p + 1,
the base point on curve and of exact order q, and a cofactor that is a
power of two, which proof checks clear by doubling. Also checks that the comb
table for the base point shipped in data/curve1174_comb.bin equals a fresh
build, entry by entry, each read through the shipped rows' decoding. Exits
nonzero on any failure.
"""

import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from edcred.curve import Point, in_prime_subgroup, is_probable_prime, production_curve  # noqa: E402


def same_table(shipped: list, fresh: list) -> bool:
    # a shipped row holds only the entries read so far, so compare by digit
    return len(shipped) == len(fresh) and all(
        row[m] == entry for row, fresh_row in zip(shipped, fresh) for m, entry in fresh_row.items())


def main():
    c = production_curve()
    checks = {
        "p prime": is_probable_prime(c.p),
        "q prime": is_probable_prime(c.q),
        "d not 0 or 1": c.d % c.p not in (0, 1),
        "d non-residue": pow(c.d, (c.p - 1) // 2, c.p) == c.p - 1,
        "group order in Hasse window": abs(c.cofactor * c.q - (c.p + 1)) <= 2 * math.isqrt(c.p) + 1,
        "cofactor a power of two": c.cofactor > 0 and c.cofactor & (c.cofactor - 1) == 0,
        "base on curve": c.base.on_curve(),
        "base not neutral": not c.base.is_neutral(),
        # q prime and base not neutral: order exactly q. (q * base) would
        # reduce q to 0 and call any point neutral.
        "base in order-q subgroup": in_prime_subgroup(c.base),
        "shipped comb table is a fresh build":
            same_table(c.base._table, Point(c.base.x, c.base.y, c).precompute()._table),
    }
    width = max(len(k) for k in checks)
    failed = False
    for name, ok in checks.items():
        print(f"{name:<{width}}  {'ok' if ok else 'FAIL'}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
