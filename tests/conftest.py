import random

import pytest

from padicpolygons import RingConfig


@pytest.fixture(scope="session")
def cfg7():
    """p = 7, k = F_49, e = 2, E = u^2 - 7, prec 7: the main family ring."""
    return RingConfig(7, 2, 2, [-7, 0, 1], prec=7, r=2)


@pytest.fixture(scope="session")
def cfg7m1():
    """p = 7, k = F_7, e = 2, E = u^2 - 7."""
    return RingConfig(7, 1, 2, [-7, 0, 1], prec=7, r=2)


@pytest.fixture(scope="session")
def cfg7e1():
    """p = 7, k = F_49, e = 1, E = u - 7."""
    return RingConfig(7, 2, 1, [-7, 1], prec=7, r=2)


@pytest.fixture(scope="session")
def cfg13():
    """p = 13, k = F_13, e = 5, E = u^5 - 13 (for the mod-p solver)."""
    return RingConfig(13, 1, 5, [-13, 0, 0, 0, 0, 1], prec=8, r=2)


@pytest.fixture()
def rng():
    return random.Random(20240)
