"""Differential tests of the serving path's batching invariant: a
stacked multi-RHS ``power_block`` sweep must be **bitwise identical**,
column for column, to per-request ``power`` calls — across input
dtypes, k values, batch widths and all three executors.  This is the
property that lets the solve service batch concurrent tenants' requests
without changing a single bit of anyone's answer.

The oracle is Algorithm 2 itself (``fbmpk_reference``) on the operator's
own row ordering: every batched column must equal it bit for bit, for
ABMC at block sizes 1 and 256, levels and levels-blocked, at odd and
even k, on every executor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fbmpk import build_fbmpk_operator
from repro.matrices.generators import banded_random, poisson2d
from repro.sparse import CSRMatrix

from ..oracle import reference_power

EXECUTORS = ["serial", "threads", "processes"]
K_VALUES = [0, 1, 2, 3, 5, 8]
#: (strategy, block_size) of every schedule family.
SCHEDULES = [("abmc", 1), ("abmc", 256), ("levels", 1),
             ("levels-blocked", 64)]


def _block_matches_per_vector(op, X, k):
    Y = op.power_block(X.copy(), k)
    for j in range(X.shape[1]):
        y = op.power(X[:, j].copy(), k)
        if not np.array_equal(Y[:, j], y) \
                or not np.array_equal(y, reference_power(op, X[:, j], k)):
            return False, j
    return True, None


@pytest.fixture(scope="module")
def mat():
    return banded_random(140, bandwidth=6, nnz_per_row=9,
                         symmetric=True, seed=11)


# -- executors × k ---------------------------------------------------------
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("k", K_VALUES)
def test_block_bitwise_identical_per_executor(mat, executor, k):
    kwargs = {"n_threads": 2} if executor != "serial" else {}
    op = build_fbmpk_operator(mat, executor=executor, **kwargs)
    try:
        rng = np.random.default_rng(k)
        X = rng.standard_normal((mat.n_rows, 5))
        ok, col = _block_matches_per_vector(op, X, k)
        assert ok, f"column {col} differs (executor={executor}, k={k})"
    finally:
        op.close()


# -- strategies and widths -------------------------------------------------
@pytest.mark.parametrize("strategy", ["abmc", "levels"])
@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_block_bitwise_identical_per_strategy_and_width(strategy, width):
    a = poisson2d(7, seed=2)
    op = build_fbmpk_operator(a, strategy=strategy)
    try:
        X = np.random.default_rng(width).standard_normal(
            (a.n_rows, width))
        ok, col = _block_matches_per_vector(op, X, 4)
        assert ok, f"column {col} differs (strategy={strategy})"
    finally:
        op.close()


# -- every schedule family against Algorithm 2 ------------------------------
@pytest.fixture(scope="module")
def grid24():
    """576 rows: three ABMC blocks at block size 256."""
    return poisson2d(24, seed=5)


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("schedule", SCHEDULES,
                         ids=[f"{s}-b{b}" for s, b in SCHEDULES])
@pytest.mark.parametrize("k", [3, 4])
def test_block_matches_reference_per_schedule(grid24, executor, schedule,
                                              k):
    strategy, block_size = schedule
    kwargs = {"n_threads": 2} if executor != "serial" else {}
    op = build_fbmpk_operator(grid24, strategy=strategy,
                              block_size=block_size, executor=executor,
                              **kwargs)
    try:
        X = np.random.default_rng(k).standard_normal((grid24.n_rows, 3))
        op.power_block(X, k)
        # A parallel executor runs the block sweeps on its own pool.
        assert (op.last_stats is None) == (executor == "serial")
        ok, col = _block_matches_per_vector(op, X, k)
        assert ok, f"column {col} differs ({schedule}, {executor})"
    finally:
        op.close()


@pytest.mark.parametrize("width", range(1, 9))
def test_block_widths_match_reference(grid24, width):
    op = build_fbmpk_operator(grid24)
    try:
        X = np.random.default_rng(width).standard_normal(
            (grid24.n_rows, width))
        ok, col = _block_matches_per_vector(op, X, 5)
        assert ok, f"column {col} differs (width={width})"
    finally:
        op.close()


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("k", [3, 4])
def test_levels_blocked_matches_reference(grid24, executor, k):
    kwargs = {"n_threads": 2} if executor != "serial" else {}
    op = build_fbmpk_operator(grid24, strategy="levels-blocked",
                              block_size=64, executor=executor, **kwargs)
    try:
        rng = np.random.default_rng(k)
        x = rng.standard_normal(grid24.n_rows)
        assert np.array_equal(op.power(x, k), reference_power(op, x, k))
        for width in range(1, 9):
            X = rng.standard_normal((grid24.n_rows, width))
            ok, col = _block_matches_per_vector(op, X, k)
            assert ok, f"column {col} differs (width={width})"
    finally:
        op.close()


# -- input dtypes ----------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
def test_block_bitwise_identical_across_input_dtypes(mat, dtype):
    """Inputs of any dtype are converted to float64 once, identically
    on both paths — a float32 or integer RHS batches bit-exactly too."""
    op = build_fbmpk_operator(mat)
    try:
        rng = np.random.default_rng(0)
        if np.issubdtype(dtype, np.integer):
            X = rng.integers(-5, 5, size=(mat.n_rows, 4)).astype(dtype)
        else:
            X = rng.standard_normal((mat.n_rows, 4)).astype(dtype)
        Y = op.power_block(X, 3)
        assert Y.dtype == np.float64
        for j in range(X.shape[1]):
            y = op.power(np.asarray(X[:, j], dtype=np.float64), 3)
            assert np.array_equal(Y[:, j], y)
    finally:
        op.close()


# -- hypothesis sweep ------------------------------------------------------
@st.composite
def square_csr(draw, max_n=20):
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    rng = np.random.default_rng(seed)
    dense = rng.uniform(-1.0, 1.0, size=(n, n))
    mask = rng.random((n, n)) < density
    return CSRMatrix.from_dense(np.where(mask, dense, 0.0))


@settings(max_examples=40, deadline=None)
@given(a=square_csr(), k=st.integers(min_value=0, max_value=6),
       width=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_block_bitwise_identical_arbitrary_matrices(a, k, width, seed):
    op = build_fbmpk_operator(a)
    try:
        X = np.random.default_rng(seed).uniform(
            -1.0, 1.0, size=(a.n_rows, width))
        ok, col = _block_matches_per_vector(op, X, k)
        assert ok, f"column {col} differs (n={a.n_rows}, k={k})"
    finally:
        op.close()


# -- deadline-annotated batching -------------------------------------------
@settings(max_examples=15, deadline=None)
@given(width=st.integers(min_value=1, max_value=6),
       k=st.integers(min_value=0, max_value=5),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_deadline_annotated_batching_bitwise_identical(width, k, seed):
    """Attaching generous ``deadline_ms`` budgets to batched requests
    must not change a single bit of any response: the deadline is pure
    admission control, never arithmetic."""
    import asyncio

    from repro.serve import ServeConfig, SolveService

    spec_rows = 64
    payloads = []
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(spec_rows) for _ in range(width)]
    for i, x in enumerate(xs):
        req = {"id": f"r{i}", "op": "power", "k": k,
               "tenant": f"t{i % 2}",
               "matrix": {"standin": "cant", "rows": spec_rows,
                          "seed": 1},
               "x": x.tolist()}
        if i % 2 == 0:  # mix annotated and unannotated in one batch
            req["deadline_ms"] = 600_000
        payloads.append(req)

    async def main():
        svc = SolveService(ServeConfig(tune="off",
                                       gather_window_s=0.02))
        resps = await asyncio.gather(*[svc.handle(p) for p in payloads])
        await svc.close()
        return resps

    resps = asyncio.run(main())
    assert all(r["ok"] for r in resps), resps

    from repro.matrices import generate_standin

    a = generate_standin("cant", n_rows=spec_rows, seed=1)
    op = build_fbmpk_operator(a)
    try:
        for x, r in zip(xs, resps):
            ref = op.power(x.copy(), k)
            assert np.array_equal(np.asarray(r["y"]), ref)
    finally:
        op.close()
