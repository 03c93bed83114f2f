"""The tune circuit breaker and per-search budget: repeated search
failures or budget blowouts open the breaker, after which cold
structures get the default plan immediately (``source="breaker"``)
instead of re-paying a search that keeps losing; the plan-cache file
lock degrades to an unlocked section rather than blocking past the
budget."""

import time

import numpy as np
import pytest

from repro import obs
from repro.matrices import banded_random
from repro.robust.resilience import CircuitBreaker
from repro.tune import (
    ExecutionPlan,
    PlanCache,
    SEARCH_BREAKER,
    autotune_power,
    autotune_spmv,
    default_power_plan,
    fingerprint_matrix,
)

# The default and one more eligible plan (another assignment policy),
# so a budget that expires after candidate 0 has something to skip.
FAST_CANDIDATES = [
    default_power_plan(),
    ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                            "block_size": 1, "executor": "serial",
                            "assign_policy": "round_robin"}),
]


@pytest.fixture(scope="module")
def mat():
    return banded_random(150, 7, 12, symmetric=True, seed=9)


def _tune(a, **kw):
    kw.setdefault("cache", False)
    kw.setdefault("repeats", 1)
    kw.setdefault("warmup", 0)
    kw.setdefault("candidates", FAST_CANDIDATES)
    return autotune_power(a, k=3, **kw)


def test_module_breaker_exists_and_is_shared():
    assert isinstance(SEARCH_BREAKER, CircuitBreaker)
    assert SEARCH_BREAKER.name == "tune"


def test_open_breaker_short_circuits_to_default_plan(mat):
    brk = CircuitBreaker("tune", failure_threshold=1)
    brk.record_failure()
    tel = obs.Telemetry()
    with tel:
        t0 = time.monotonic()
        op, result = _tune(mat, breaker=brk)
        elapsed = time.monotonic() - t0
    try:
        assert result.source == "breaker"
        assert result.plan.params == default_power_plan().params
        assert elapsed < 1.0
        # The degraded path still computes correctly.
        x = np.random.default_rng(0).standard_normal(mat.n_rows)
        assert np.isfinite(op.power(x, 3)).all()
    finally:
        op.close()
    counters = tel.metrics.snapshot()["counters"]
    assert counters["tune.breaker.short_circuit"]["value"] == 1


def test_successful_search_closes_the_failure_run(mat):
    brk = CircuitBreaker("tune", failure_threshold=3)
    brk.record_failure()
    brk.record_failure()
    op, result = _tune(mat, breaker=brk)
    op.close()
    assert result.source == "search"
    assert brk.snapshot()["consecutive_failures"] == 0


def test_budget_blowout_counts_as_breaker_failure(mat):
    brk = CircuitBreaker("tune", failure_threshold=2)
    tel = obs.Telemetry()
    with tel:
        # A zero-ish budget: candidate 0 (the default) is always
        # measured, everything after is skipped.
        op, result = _tune(mat, breaker=brk, search_budget_s=1e-9)
    op.close()
    assert result.source == "search"
    assert result.budget_exhausted
    assert result.plan.params == default_power_plan().params
    assert brk.snapshot()["consecutive_failures"] == 1
    counters = tel.metrics.snapshot()["counters"]
    assert counters["tune.budget_exhausted"]["value"] == 1
    # A second blowout trips the threshold.
    op, result = _tune(mat, breaker=brk, search_budget_s=1e-9)
    op.close()
    assert brk.state == "open"
    # Third call: served from the breaker, no search at all.
    op, result = _tune(mat, breaker=brk)
    op.close()
    assert result.source == "breaker"


def test_raising_search_records_failure(mat):
    brk = CircuitBreaker("tune", failure_threshold=1)
    # A candidate set whose every plan fails makes the search raise.
    with pytest.raises(RuntimeError):
        autotune_power(mat, k=3, cache=False, candidates=[
            ExecutionPlan("power", {"variant": "nonsense"})],
            breaker=brk, repeats=1, warmup=0)
    assert brk.state == "open"


def test_breaker_false_opts_out(mat):
    SEARCH_BREAKER.reset()
    op, result = _tune(mat, breaker=False)
    op.close()
    assert result.source == "search"


def test_spmv_breaker_short_circuit(mat):
    brk = CircuitBreaker("tune", failure_threshold=1)
    brk.record_failure()
    fn, result = autotune_spmv(mat, cache=False, breaker=brk)
    assert result.source == "breaker"
    x = np.random.default_rng(1).standard_normal(mat.n_cols)
    np.testing.assert_array_equal(fn(x), mat.matvec(x))


def test_cache_hit_never_consults_breaker(mat, tmp_path):
    cache = PlanCache(tmp_path / "plans")
    op, warm = _tune(mat, cache=cache, breaker=False)
    op.close()
    assert warm.source == "search"
    brk = CircuitBreaker("tune", failure_threshold=1)
    brk.record_failure()  # open
    op, result = _tune(mat, cache=cache, breaker=brk)
    op.close()
    # The hit is the fast path the breaker protects: it wins.
    assert result.source == "cache"


def test_plan_cache_lock_times_out_instead_of_blocking(mat, tmp_path):
    import fcntl
    import threading

    cache = PlanCache(tmp_path / "plans")
    fp = fingerprint_matrix(mat, kind="power")
    cache.root.mkdir(parents=True, exist_ok=True)
    holder = open(cache.root / f"{fp.key()}.lock", "a+")
    fcntl.flock(holder.fileno(), fcntl.LOCK_EX)
    tel = obs.Telemetry()
    try:
        entered = threading.Event()

        def contender():
            with cache.lock(fp, timeout_s=0.2):
                entered.set()

        with tel:
            t = threading.Thread(target=contender)
            t0 = time.monotonic()
            t.start()
            assert entered.wait(5.0), \
                "lock(timeout_s=...) blocked behind the holder"
            t.join(5.0)
            elapsed = time.monotonic() - t0
        assert elapsed < 3.0
        counters = tel.metrics.snapshot()["counters"]
        assert counters["plan_cache.lock_timeout"]["value"] == 1
    finally:
        fcntl.flock(holder.fileno(), fcntl.LOCK_UN)
        holder.close()
