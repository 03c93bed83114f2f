"""Differential matrix: tuned execution must be bit-identical to the
default path — and so to Algorithm 2 (``fbmpk_reference``) on the
default ABMC ordering — for every (matrix class x k x executor)
combination.

This is the acceptance property of the whole tuner: whatever plan wins,
``tuned`` and ``default`` produce the same bits — because the autotuner
refuses to accept anything else.  The executor dimension is driven by
pinning the candidate list to a single plan per executor, so both the
serial and the threaded tuned paths are exercised even when neither
would win a free search on this host.
"""

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.solvers import bicgstab, conjugate_gradient, gmres
from repro.solvers.chebyshev import chebyshev_solve
from repro.tune import ExecutionPlan, autotune_power, default_power_plan

from ..oracle import reference_power

POWERS = [1, 2, 3, 8]


def _default_on(executor):
    return ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                                   "block_size": 1, "executor": executor,
                                   "n_threads": 2})


CANDIDATES = {
    "serial": [default_power_plan()],
    "threads": [
        default_power_plan(),  # reference for the identity gate
        _default_on("threads"),
    ],
    "processes": [default_power_plan(), _default_on("processes")],
}


@pytest.mark.parametrize("executor", ["serial", "threads"])
@pytest.mark.parametrize("k", POWERS)
def test_tuned_power_bit_identical(any_matrix, k, executor, rng):
    a = any_matrix
    op, res = autotune_power(a, k=k, cache=False, repeats=1, warmup=0,
                             candidates=CANDIDATES[executor],
                             racing=False)
    ref = build_fbmpk_operator(a)
    try:
        for _ in range(2):  # fresh inputs, not the tuning probe
            x = rng.standard_normal(a.n_rows)
            y = op.power(x, k)
            assert np.array_equal(y, ref.power(x, k))
            assert np.array_equal(y, reference_power(ref, x, k))
    finally:
        op.close()
        ref.close()


#: Every schedule family, each compared on its own row ordering.
SCHEDULES = [("abmc", 1), ("abmc", 256), ("levels", 1),
             ("levels-blocked", 64)]


@pytest.mark.parametrize("executor", ["serial", "threads", "processes"])
@pytest.mark.parametrize("schedule", SCHEDULES,
                         ids=[f"{s}-b{b}" for s, b in SCHEDULES])
@pytest.mark.parametrize("k", [3, 8])
def test_plan_bitwise_equal_reference(grid, schedule, executor, k, rng):
    """Whatever plan the tuner instantiates, its output equals
    Algorithm 2 on that plan's row ordering, for odd and even k."""
    from repro.tune.registry import instantiate_power

    strategy, block_size = schedule
    params = {"variant": "fused", "strategy": strategy,
              "block_size": block_size, "executor": executor}
    if executor != "serial":
        params["n_threads"] = 2
    op = instantiate_power(ExecutionPlan("power", params), grid)
    try:
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, k), reference_power(op, x, k))
        if hasattr(op, "power_block"):
            X = rng.standard_normal((grid.n_rows, 4))
            Y = op.power_block(X, k)
            for j in range(X.shape[1]):
                assert np.array_equal(Y[:, j],
                                      reference_power(op, X[:, j], k))
    finally:
        op.close()


def test_processes_winner_forced(grid, rng):
    op, res = autotune_power(grid, k=5, cache=False, repeats=1, warmup=0,
                             candidates=CANDIDATES["processes"],
                             racing=False)
    try:
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, 5), reference_power(op, x, 5))
    finally:
        op.close()


def test_threaded_winner_forced(grid, rng):
    """When only a threaded plan competes against the default and both
    are identical, whichever wins still matches the default bits."""
    op, res = autotune_power(grid, k=8, cache=False, repeats=1, warmup=0,
                             candidates=CANDIDATES["threads"],
                             racing=False)
    ref = build_fbmpk_operator(grid)
    try:
        threaded = next(t for t in res.trials
                        if t.plan.params.get("executor") == "threads")
        assert threaded.identical is True  # bit-identical by design
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, 8), ref.power(x, 8))
    finally:
        op.close()
        ref.close()


# -- solver-level differential --------------------------------------------
def test_cg_tuned_identical_iterates(small_sym, rng):
    b = rng.standard_normal(small_sym.n_rows)
    plain = conjugate_gradient(small_sym, b, tol=1e-10)
    tuned = conjugate_gradient(small_sym, b, tol=1e-10, tuned=True,
                               plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)
    assert tuned.residual_norms == plain.residual_norms


def test_gmres_tuned_identical_iterates(small_unsym, rng):
    b = rng.standard_normal(small_unsym.n_rows)
    plain = gmres(small_unsym, b, tol=1e-10)
    tuned = gmres(small_unsym, b, tol=1e-10, tuned=True,
                  plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)


def test_bicgstab_tuned_identical_iterates(small_unsym, rng):
    b = rng.standard_normal(small_unsym.n_rows)
    plain = bicgstab(small_unsym, b, tol=1e-10)
    tuned = bicgstab(small_unsym, b, tol=1e-10, tuned=True,
                     plan_cache_dir=False)
    assert tuned.iterations == plain.iterations
    assert np.array_equal(tuned.x, plain.x)


def test_chebyshev_tuned_identical(small_sym, rng):
    from repro.solvers.power import gershgorin_bounds

    b = rng.standard_normal(small_sym.n_rows)
    lo, hi = gershgorin_bounds(small_sym)
    lo = max(lo, 1e-3)
    x_p, it_p, conv_p = chebyshev_solve(small_sym, b, (lo, hi),
                                        max_iter=50)
    x_t, it_t, conv_t = chebyshev_solve(small_sym, b, (lo, hi),
                                        max_iter=50, tuned=True,
                                        plan_cache_dir=False)
    assert (it_t, conv_t) == (it_p, conv_p)
    assert np.array_equal(x_t, x_p)
