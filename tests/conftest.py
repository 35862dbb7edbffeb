import sys
from pathlib import Path

import numpy as np
import pytest

from retreatwave import find_wave_speed, make_logistic


@pytest.fixture(scope="session")
def logistic1():
    return make_logistic(1.0)


@pytest.fixture(scope="session")
def exact_zero_speed():
    """The logistic closed form P0(q) = -sqrt((2/d) * int_q^1 r*u*(1 - u) du), from the
    antiderivative r*(q - 1)**2*(2q + 1)/6, which does not cancel near q = 1."""
    def oracle(q, r: float, d: float):
        return -np.abs(q - 1.0) * np.sqrt(r * (2.0 * q + 1.0) / (3.0 * d))
    return oracle


@pytest.fixture(scope="session")
def speed_ref(logistic1):
    """Selected wave speed for the canonical case d=1, delta=2."""
    return find_wave_speed(1.0, logistic1, 2.0, tol=1e-10)


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's ``perfbench/workloads.py``, which imports its sibling ``spans`` by name."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads
