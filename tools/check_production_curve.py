#!/usr/bin/env python3
"""Re-derive every claim made about the shipped production curve constants.

Parses a curve1174 deployment's params text under another curve name,
so that the loader treats it as any curve from outside and runs every
rule it has: the constructors' (cofactor * q pinned as the group order by
the Hasse bound, d not 0 or 1, the base point on the curve and not
neutral, the public key not of small order) and the parse functions' (p
and q prime, d a quadratic non-residue, which makes the addition law
complete, and the base point and public key of order q). Checks that the
same text under its own name parses to the built-in curve, which skips
the curve rules on the strength of this script. Also checks that the
comb table for the base point shipped in data/curve1174_comb.bin equals a
fresh build, entry by entry, each read through the shipped rows'
decoding. Exits nonzero on any failure.
"""

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from edcred.curve import Point, production_curve  # noqa: E402
from edcred.params import SystemParams, setup  # noqa: E402


def same_table(shipped: list, fresh: list) -> bool:
    # a shipped row holds only the entries read so far, so compare by digit
    return len(shipped) == len(fresh) and all(
        row[m] == entry for row, fresh_row in zip(shipped, fresh) for m, entry in fresh_row.items())


def main():
    c = production_curve()
    text = setup(c, random.Random("check_production_curve"))[0].format_file()
    try:
        renamed = SystemParams.parse_file(text.replace(f"name={c.name}\n", "name=renamed\n"))
        rules = renamed.curve == c and renamed.curve is not c
    except ValueError as e:
        print(f"FAIL  {e}")
        rules = False
    print(f"loader's rules on curve1174, renamed           {'ok' if rules else 'FAIL'}")
    builtin = SystemParams.parse_file(text).curve is c
    print(f"curve1174 by name parses to the built-in curve {'ok' if builtin else 'FAIL'}")
    fresh = same_table(c.base._table, Point(c.base.x, c.base.y, c).precompute()._table)
    print(f"shipped comb table is a fresh build            {'ok' if fresh else 'FAIL'}")
    return 0 if rules and builtin and fresh else 1


if __name__ == "__main__":
    raise SystemExit(main())
