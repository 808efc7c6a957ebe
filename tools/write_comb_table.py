#!/usr/bin/env python3
"""Write src/edcred/data/curve1174_comb.bin, curve1174's comb table for P.

The file holds x || y of each entry of a freshly built table, row by row
and digit 1 first in each row, each coordinate 32 bytes big-endian: with
_W = 8, 32 rows of 128 entries, 262 144 bytes. An entry's third word,
d*x*y, is not stored; a row computes it when it decodes the entry. Run it
after a change to the comb geometry (_W in curve.py), then paste the
SHA-256 it prints into _CURVE1174_COMB_SHA256 in curve.py;
tools/check_production_curve.py confirms that the shipped table equals a
fresh build.
"""

import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# the built-in curve reads the file this script writes, so build from the
# constants instead
from edcred.curve import _CURVE1174, _W, CurveParams, Point  # noqa: E402

PATH = os.path.join(ROOT, "src", "edcred", "data", "curve1174_comb.bin")


def table_bytes() -> bytes:
    c = CurveParams(**_CURVE1174)
    table = Point(c.base.x, c.base.y, c).precompute()._table
    w = c.coord_bytes
    digits = range(1, (1 << (_W - 1)) + 1)
    return b"".join(row[m][0].to_bytes(w, "big") + row[m][1].to_bytes(w, "big") for row in table for m in digits)


def main():
    data = table_bytes()
    with open(PATH, "wb") as fh:
        fh.write(data)
    print(f"{PATH}: {len(data)} bytes, sha256 {hashlib.sha256(data).hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
