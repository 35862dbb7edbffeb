import sys
from pathlib import Path

import pytest

from retreatwave import find_wave_speed, make_logistic


@pytest.fixture(scope="session")
def logistic1():
    return make_logistic(1.0)


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
