import random

import pytest

from edcred import setup
from edcred.curve import Point, is_probable_prime, production_curve, toy_curve


@pytest.fixture(scope="session")
def toy():
    return toy_curve()


@pytest.fixture(scope="session")
def prod():
    return production_curve()


@pytest.fixture(scope="session")
def toy_deploy():
    """(params, issuer key) on the 1009-point curve, fixed draw."""
    return setup("toy", random.Random("fixtures:toy"))


@pytest.fixture(scope="session")
def prod_deploy():
    return setup("prod", random.Random("fixtures:prod"))


def make_rng(label):
    # string seeds give the same stream on every run and every platform
    return random.Random(f"test:{label}")


@pytest.fixture
def rng(request):
    return make_rng(request.node.name)


def outside_prime_order(params, bad: str) -> dict:
    """The fields to change in params' file so that it states a group that
    is not of prime order q, in a way that only loading checks:

    - torsioned-Ppub: Ppub + (0, p-1), the order-2 point added;
    - torsioned-base: P + (0, p-1);
    - composite-p: 1007 = 19*53 on the toy curve; on curve1174 the Hasse
      rule needs p near cofactor*q, so (2^61 - 1)*s with s the least prime
      above cofactor*q // (2^61 - 1), which no trial division finds;
    - square-d: d = 4.

    The last three take (0, p-1) as the base point, on every curve of
    every d, and rename the curve, since a file that states curve1174's
    constants is the built-in curve.
    """
    c = params.curve
    t = Point(0, c.p - 1, c)
    if bad == "torsioned-Ppub":
        pt = params.p_pub + t
        return {"Ppubx": pt.x, "Ppuby": pt.y}
    if bad == "torsioned-base":
        pt = c.base + t
        return {"name": "renamed", "Px": pt.x, "Py": pt.y}
    if bad == "composite-p":
        if c.p == 1009:
            p = 1007
        else:
            r = 2**61 - 1
            s = c.cofactor * c.q // r
            while not is_probable_prime(s):
                s += 1
            p = r * s
        return {"name": "renamed", "p": p, "Px": 0, "Py": p - 1}
    assert bad == "square-d"
    return {"name": "renamed", "d": 4, "Px": 0, "Py": c.p - 1}
