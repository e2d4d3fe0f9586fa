import os

# One BLAS thread unless the caller sets a count: OpenBLAS threads spin on the
# larger products, so with more threads than idle cores the run time depends
# on the host's load.  Set before numpy loads, which reads it once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest

from fibanyon.model import fibonacci_model
from fibanyon.states import ket, superpose
from fibanyon.trees import enumerate_basis, grouped_shape


@pytest.fixture(scope="session")
def model():
    return fibonacci_model()


@pytest.fixture(scope="session")
def basis2(model):
    """2-anyon basis in the grouped shape (0 1)."""
    return enumerate_basis(model, grouped_shape(1, 1))


@pytest.fixture(scope="session")
def basis4(model):
    """4-anyon basis in the grouped shape ((0 1)(2 3))."""
    return enumerate_basis(model, grouped_shape(2, 2))


@pytest.fixture()
def unequal_marginals_state(basis2):
    """(|e,tau;tau> + |tau,tau;tau>)/sqrt(2): the marginal-ambiguity state."""
    state, _ = superpose([(1.0, ket(basis2, "e,tau;tau")), (1.0, ket(basis2, "tau,tau;tau"))])
    return state


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
