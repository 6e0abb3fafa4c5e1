import numpy as np
import pytest

from circlequad import MeasureSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20260824)


@pytest.fixture(scope="session")
def lebesgue():
    return MeasureSpec("lebesgue")


@pytest.fixture(scope="session")
def rogers_half():
    return MeasureSpec("rogers_szego", q=0.5)
