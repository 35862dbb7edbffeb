import pytest

from retreatwave import find_wave_speed, make_logistic


@pytest.fixture(scope="session")
def logistic1():
    return make_logistic(1.0)


@pytest.fixture(scope="session")
def speed_ref(logistic1):
    """Selected wave speed for the canonical case d=1, delta=2."""
    return find_wave_speed(1.0, logistic1, 2.0, tol=1e-10)
