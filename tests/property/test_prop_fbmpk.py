"""Property-based tests of the FBMPK equivalence — the library's central
invariant: every pipeline computes exactly the standard MPK result on
*arbitrary* square sparse matrices and vectors, and every fused
schedule (ABMC at any block size, levels, levels-blocked) on every
executor is bitwise equal to Algorithm 2 (``fbmpk_reference``) on its
own row ordering.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.fbmpk import (
    build_fbmpk_operator,
    fbmpk_reference,
    fbmpk_unfused,
)
from repro.core.mpk import mpk_reference_dense
from repro.core.partition import split_ldu
from repro.core.sspmv import sspmv_fbmpk, sspmv_standard
from repro.sparse import CSRMatrix

from ..oracle import reference_power


@st.composite
def square_csr(draw, max_n=24):
    """Random square CSR matrix with bounded values (entries in
    [-1, 1] so powers cannot overflow for small k)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, size=(n, n))
    mask = rng.random((n, n)) < density
    dense = np.where(mask, dense, 0.0)
    return CSRMatrix.from_dense(dense)


@st.composite
def csr_with_vector(draw, max_n=24):
    a = draw(square_csr(max_n=max_n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, size=a.n_rows)
    return a, x


@settings(max_examples=60, deadline=None)
@given(data=csr_with_vector(), k=st.integers(min_value=0, max_value=6))
def test_reference_and_unfused_match_dense(data, k):
    a, x = data
    expected = mpk_reference_dense(a, x, k)
    part = split_ldu(a)
    np.testing.assert_allclose(fbmpk_reference(part, x, k), expected,
                               rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(fbmpk_unfused(part, x, k), expected,
                               rtol=1e-9, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(data=csr_with_vector(), k=st.integers(min_value=0, max_value=6),
       strategy=st.sampled_from(["abmc", "levels"]),
       block_size=st.sampled_from([1, 3, 8]))
def test_fused_operator_matches_dense(data, k, strategy, block_size):
    a, x = data
    op = build_fbmpk_operator(a, strategy=strategy, block_size=block_size)
    y = op.power(x, k)
    np.testing.assert_allclose(y, mpk_reference_dense(a, x, k),
                               rtol=1e-9, atol=1e-11)
    assert np.array_equal(y, reference_power(op, x, k))


@settings(max_examples=40, deadline=None)
@given(data=csr_with_vector(), k=st.integers(min_value=0, max_value=7),
       schedule=st.sampled_from([("abmc", 1), ("abmc", 256),
                                 ("levels", 1), ("levels-blocked", 4),
                                 ("levels-blocked", 256)]))
def test_fused_schedules_bitwise_equal_reference(data, k, schedule):
    """Serial fused sweeps of every schedule family reproduce Algorithm
    2's arithmetic exactly (odd and even k, tails included)."""
    a, x = data
    strategy, block_size = schedule
    op = build_fbmpk_operator(a, strategy=strategy, block_size=block_size)
    assert np.array_equal(op.power(x, k), reference_power(op, x, k))


@settings(max_examples=6, deadline=None)
@given(data=csr_with_vector(), k=st.sampled_from([3, 4]),
       executor=st.sampled_from(["threads", "processes"]),
       schedule=st.sampled_from([("abmc", 1), ("abmc", 256),
                                 ("levels", 1), ("levels-blocked", 4)]))
def test_parallel_executors_bitwise_equal_reference(data, k, executor,
                                                    schedule):
    a, x = data
    strategy, block_size = schedule
    op = build_fbmpk_operator(a, strategy=strategy, block_size=block_size,
                              executor=executor, n_threads=2)
    try:
        assert np.array_equal(op.power(x, k), reference_power(op, x, k))
    finally:
        op.close()


@settings(max_examples=40, deadline=None)
@given(data=csr_with_vector(),
       alphas=st.lists(st.floats(min_value=-2.0, max_value=2.0),
                       min_size=1, max_size=6))
def test_sspmv_combination_equivalence(data, alphas):
    a, x = data
    op = build_fbmpk_operator(a, strategy="levels")
    np.testing.assert_allclose(sspmv_fbmpk(op, x, alphas),
                               sspmv_standard(a, x, alphas),
                               rtol=1e-8, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(data=csr_with_vector(), k=st.integers(min_value=1, max_value=6))
def test_iterate_callback_yields_prefix_powers(data, k):
    """Every intermediate iterate reported by on_iterate equals the
    corresponding standard power."""
    a, x = data
    op = build_fbmpk_operator(a, strategy="levels")
    seen = {}
    op.power(x, k, on_iterate=lambda i, xi: seen.setdefault(i, xi))
    assert sorted(seen) == list(range(1, k + 1))
    for i, xi in seen.items():
        np.testing.assert_allclose(xi, mpk_reference_dense(a, x, i),
                                   rtol=1e-9, atol=1e-11)
