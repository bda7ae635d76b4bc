import hypothesis
import numpy as np
import pytest

from sfp import build_example_s4

# derandomized: every @given test draws the same examples on every run and in CI
hypothesis.settings.register_profile("numeric", deadline=None, max_examples=100, derandomize=True)
hypothesis.settings.load_profile("numeric")


@pytest.fixture(scope="session")
def s4():
    return build_example_s4()


@pytest.fixture(scope="session")
def x_star():
    return np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0])
