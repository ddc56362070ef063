# matprod is imported before numpy: importing it caps OpenBLAS at one thread,
# and the cap only holds if it is set before numpy loads OpenBLAS.
from matprod import rademacher, standard_gaussian, uniform_symmetric  # isort: skip

import numpy as np
import pytest


@pytest.fixture
def gauss():
    return standard_gaussian()


@pytest.fixture
def rad():
    return rademacher()


@pytest.fixture
def unif():
    return uniform_symmetric()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
