import random

import pytest

from edcred import setup
from edcred.curve import production_curve, toy_curve


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
