#!/usr/bin/env python3
"""Selection script for the shipped toy curve, kept for provenance.

Scans d upward over the quadratic non-residues mod p and keeps the first
curve x^2+y^2 = 1+d*x^2*y^2 whose point count factors as cofactor * ell with
ell prime and ell^2 > 16p, the rule under which CurveParams loads a curve
(the Hasse window then holds one multiple of ell). The base point is the
cofactor multiple of the lexicographically first point that lands on an
element of exact order ell.

Running it reprints the content of src/edcred/data/toy_curve.txt:

    $ python tools/find_toy_curve.py
"""

P = 1009


def legendre_is_nonresidue(a, p):
    return pow(a % p, (p - 1) // 2, p) == p - 1


def enumerate_curve(p, d):
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    pts = []
    for x in range(p):
        t = (1 - x * x) * pow((1 - d * x * x) % p, -1, p) % p
        for y in roots.get(t, ()):
            pts.append((x, y))
    return pts


def largest_prime_factor(n):
    f, d = 1, 2
    while d * d <= n:
        while n % d == 0:
            f, n = d, n // d
        d += 1
    return max(f, n) if n > 1 else f


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def main():
    for d in range(2, P):
        if not legendre_is_nonresidue(d, P):
            continue

        def add(a, b):
            x1, y1 = a
            x2, y2 = b
            t = d * x1 * x2 * y1 * y2 % P
            return (
                (x1 * y2 + x2 * y1) * pow(1 + t, -1, P) % P,
                (y1 * y2 - x1 * x2) * pow(1 - t, -1, P) % P,
            )

        def mul(k, pt):
            acc = (0, 1)
            while k:
                if k & 1:
                    acc = add(acc, pt)
                pt = add(pt, pt)
                k >>= 1
            return acc

        pts = enumerate_curve(P, d)
        order = len(pts)
        ell = largest_prime_factor(order)
        if not (is_prime(ell) and ell * ell > 16 * P and order % ell == 0 and (order // ell) % ell != 0):
            continue
        cofactor = order // ell
        for q0 in sorted(pts):
            base = mul(cofactor, q0)
            if base != (0, 1) and mul(ell, base) == (0, 1):
                print("name=toy%d" % P)
                print("p=%d" % P)
                print("d=%d" % d)
                print("Px=%d" % base[0])
                print("Py=%d" % base[1])
                print("q=%d" % ell)
                print("cofactor=%d" % cofactor)
                return
    raise SystemExit("no curve found")


if __name__ == "__main__":
    main()
