"""Guard for the summation order :mod:`repro.core.kernels` relies on.

The sweep kernels reproduce Algorithm 2 only because SciPy's private
``_sparsetools.csr_matvecs`` adds each row's products left to right onto
the existing contents of the output buffer.  A SciPy release that
reorders, vectorises or fuses that loop would silently change every
result; these tests make such a change fail loudly, naming the SciPy
version.
"""

import numpy as np
import pytest
import scipy

from repro.core import build_fbmpk_operator, kernels
from repro.matrices import banded_random
from repro.sparse import CSRMatrix

from ..oracle import reference_power

ORDER_HINT = (
    f"SciPy {scipy.__version__} changed the accumulation order of the "
    "private scipy.sparse._sparsetools.csr_matvecs loop; "
    "repro.core.kernels no longer reproduces Algorithm 2 bitwise")


def _cancelling_matrix():
    """Rows whose sum depends on the order of the additions: large
    values that cancel, interleaved with small ones."""
    big = 2.0 ** 53
    dense = np.array([
        [big, 1.0, -big, 1.0, 0.5, -0.25],
        [1.0, big, 3.0, -big, 0.75, 1e-3],
        [-big, 0.5, big, 0.5, 1.0, 3.0],
        [1e-3, -1.0, 1e16, 7.0, -1e16, 0.1],
    ])
    return CSRMatrix.from_dense(dense)


def _python_rows(a, X, seed):
    """Left-to-right row sums onto ``seed``, in plain Python floats."""
    Y = seed.copy()
    for i in range(a.n_rows):
        for c in range(X.shape[1]):
            acc = float(Y[i, c])
            for p in range(a.indptr[i], a.indptr[i + 1]):
                acc += float(a.data[p]) * float(X[a.indices[p], c])
            Y[i, c] = acc
    return Y


def test_cancelling_data_is_order_sensitive():
    """The guard data must actually discriminate orders: summing the
    same products right to left gives different bits."""
    a = _cancelling_matrix()
    X = np.array([[1.0, 3.0], [1.0, -1.0], [1.0, 0.5],
                  [1.0, 2.0], [1.0, 1.0], [1.0, -2.0]])
    seed = np.array([[0.75, -1.0], [1.0, 2.0], [-0.5, 0.25], [3.0, 1.0]])
    forward = _python_rows(a, X, seed)
    reversed_ = seed.copy()
    for i in range(a.n_rows):
        for c in range(X.shape[1]):
            acc = float(reversed_[i, c])
            for p in range(a.indptr[i + 1] - 1, a.indptr[i] - 1, -1):
                acc += float(a.data[p]) * float(X[a.indices[p], c])
            reversed_[i, c] = acc
    assert not np.array_equal(forward, reversed_)


@pytest.mark.parametrize("width", [1, 2, 5])
def test_seeded_csr_matvecs_sums_left_to_right(width):
    a = _cancelling_matrix()
    rng = np.random.default_rng(width)
    X = np.ascontiguousarray(
        np.round(rng.uniform(-4.0, 4.0, size=(a.n_cols, width)), 1))
    X[:, 0] = 1.0
    seed = np.round(rng.uniform(-2.0, 2.0, size=(a.n_rows, width)), 2)
    expected = _python_rows(a, X, seed)
    Y = seed.copy()
    kernels.accumulate((a.indptr, a.indices, a.data), X, Y)
    assert np.array_equal(Y, expected), ORDER_HINT
    # A row range addressed by a slice of indptr (absolute offsets into
    # the full arrays) is summed the same way.
    part = seed[1:3].copy()
    kernels.accumulate(kernels.row_range(a, 1, 3), X, part)
    assert np.array_equal(part, expected[1:3]), ORDER_HINT


@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_default_power_equals_reference(k):
    a = banded_random(150, 9, 12, symmetric=False, seed=4)
    x = np.random.default_rng(k).standard_normal(a.n_rows)
    op = build_fbmpk_operator(a)
    assert np.array_equal(op.power(x, k), reference_power(op, x, k)), \
        ORDER_HINT

