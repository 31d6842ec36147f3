import os

# BLAS runs on one thread, as in the benchmark: the SVD's block products
# otherwise start threads above a size, which on a small host compete with
# each other and with the test process. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from geninv import cmatrix  # noqa: E402


@pytest.fixture
def a1():
    return cmatrix([[2, 0, 1], [0, 0, 2], [0, 0, 0]])


@pytest.fixture
def a2():
    return cmatrix([[1, 0, 0], [1, 0, 1], [0, 0, 0]])


@pytest.fixture
def a3():
    return cmatrix([[2, 0, 0], [0, 0, 0], [2, 2, 0]])


@pytest.fixture
def b3():
    return cmatrix([[2, 0, 0], [0, 0, 0], [1, 0, 1]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_complex(rng, m, n):
    return (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
