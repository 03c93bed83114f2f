"""Property-based tests of the autotuner's central invariant: whatever
plan wins, tuned execution is bit-identical to the default path — on
arbitrary square sparse matrices, vectors and powers.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fbmpk import build_fbmpk_operator
from repro.sparse import CSRMatrix
from repro.tune import (
    ExecutionPlan,
    autotune_power,
    autotune_spmv,
    default_power_plan,
    default_spmv_plan,
    fingerprint_matrix,
)

# Small but exercising candidate set: default, a grouping alternative,
# the threaded executor, and the (rejectable) unfused variant.
PROP_CANDIDATES = [
    default_power_plan(),
    ExecutionPlan("power", {"variant": "fused", "strategy": "levels",
                            "block_size": 1, "executor": "serial"}),
    ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                            "block_size": 1,
                            "executor": "threads", "n_threads": 2}),
    ExecutionPlan("power", {"variant": "unfused", "strategy": "none",
                            "block_size": 1, "executor": "serial"}),
]


@st.composite
def square_csr_with_vector(draw, max_n=20):
    n = draw(st.integers(min_value=2, max_value=max_n))
    density = draw(st.floats(min_value=0.05, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, size=(n, n))
    mask = rng.random((n, n)) < density
    dense = np.where(mask, dense, 0.0)
    np.fill_diagonal(dense, rng.uniform(0.5, 1.5, size=n))
    x = rng.uniform(-1.0, 1.0, size=n)
    return CSRMatrix.from_dense(dense), x


@settings(max_examples=25, deadline=None)
@given(data=square_csr_with_vector(),
       k=st.integers(min_value=1, max_value=6))
def test_tuned_power_always_bit_identical(data, k):
    a, x = data
    op, res = autotune_power(a, k=k, cache=False, repeats=1, warmup=0,
                             candidates=PROP_CANDIDATES)
    ref = build_fbmpk_operator(a)
    try:
        assert np.array_equal(op.power(x, k), ref.power(x, k))
        # Whatever won, the default trial must have been measured.
        assert res.trials[0].plan == default_power_plan()
    finally:
        op.close()
        ref.close()


@settings(max_examples=25, deadline=None)
@given(data=square_csr_with_vector())
def test_tuned_spmv_always_bit_identical(data):
    a, x = data
    fn, res = autotune_spmv(a, cache=False, repeats=1, warmup=0)
    assert np.array_equal(fn(x), a.matvec(x))
    assert res.trials[0].plan == default_spmv_plan()


@settings(max_examples=30, deadline=None)
@given(data=square_csr_with_vector(), seed=st.integers(0, 2 ** 31))
def test_fingerprint_value_invariance(data, seed):
    """Fingerprints ignore values and track structure, on arbitrary
    matrices."""
    a, _ = data
    rng = np.random.default_rng(seed)
    same_structure = CSRMatrix(a.indptr, a.indices,
                               rng.uniform(-1, 1, size=a.nnz), a.shape,
                               check=False)
    assert fingerprint_matrix(same_structure).key() \
        == fingerprint_matrix(a).key()
