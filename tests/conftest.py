import numpy as np
import pytest

from l0sign import numcore as nc


@pytest.fixture(autouse=True)
def _reset_op_units():
    """Keep the op counter from leaking between tests."""
    yield
    nc.reset_op_units()


@pytest.fixture
def rng():
    return np.random.default_rng(0)
