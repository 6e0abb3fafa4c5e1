import cmath
import math

import numpy as np
import pytest

from circlequad import MeasureSpec, UnitPoint, moment_chain
from circlequad._kernels import szego_eval


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Trigger any jit compilation once so timed tests measure math only."""
    szego_eval(np.array([0.1 + 0.0j]), np.array([1.0 + 0.0j]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture(scope="session")
def lebesgue():
    return MeasureSpec("lebesgue")


@pytest.fixture(scope="session")
def rogers_half():
    return MeasureSpec("rogers_szego", q=0.5)


def unit(theta):
    return UnitPoint.from_theta(theta)


def random_tau(rng):
    return cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


# (moments, reflection coefficients) sized for an (n, ell) rule
chain = moment_chain
