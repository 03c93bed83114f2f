"""The autotuner loop: winner selection, the bit-identity gate, cache
amortisation (second call skips the search), trimmed-mean timing."""

import os

import numpy as np
import pytest

from repro import obs
from repro.core import build_fbmpk_operator
from repro.tune import (
    ExecutionPlan,
    PlanCache,
    autotune_power,
    autotune_spmv,
    default_power_plan,
    power_candidates,
    trimmed_mean,
    tuned_matvec,
)

# A small candidate set keeping search-path tests fast: the default,
# a serial alternative (another assignment policy) and a threaded plan
# (the executor dimension).  All three are bit-identical by design, so
# the search times every one of them.
FAST_POWER_CANDIDATES = [
    default_power_plan(),
    ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                            "block_size": 1, "executor": "serial",
                            "assign_policy": "round_robin"}),
    ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                            "block_size": 1,
                            "executor": "threads", "n_threads": 2}),
]
LEVELS_PLAN = ExecutionPlan("power", {"variant": "fused",
                                      "strategy": "levels",
                                      "block_size": 1,
                                      "executor": "serial"})


def _tune(a, k=4, **kw):
    # racing=False: these tests assert on complete per-candidate
    # measurements (scripted or real); the racing fast path has its own
    # tests below.
    kw.setdefault("cache", False)
    kw.setdefault("repeats", 1)
    kw.setdefault("warmup", 0)
    kw.setdefault("candidates", FAST_POWER_CANDIDATES)
    kw.setdefault("racing", False)
    return autotune_power(a, k=k, **kw)


# -- trimmed mean ----------------------------------------------------------
def test_trimmed_mean_drops_extremes():
    assert trimmed_mean([1.0, 100.0, 2.0, 3.0, 0.0]) == 2.0


def test_trimmed_mean_small_samples():
    assert trimmed_mean([4.0]) == 4.0
    assert trimmed_mean([2.0, 4.0]) == 3.0
    with pytest.raises(ValueError):
        trimmed_mean([])


# -- search protocol -------------------------------------------------------
def test_search_measures_default_and_winner_not_slower(grid):
    op, res = _tune(grid, repeats=3)
    try:
        assert res.source == "search"
        assert res.trials[0].plan == default_power_plan()
        assert res.trials[0].accepted
        assert res.best_time_s <= res.default_time_s
    finally:
        op.close()


def test_winner_is_bit_identical_to_default(grid, rng):
    op, res = _tune(grid)
    ref = build_fbmpk_operator(grid)
    try:
        x = rng.standard_normal(grid.n_rows)
        assert np.array_equal(op.power(x, 4), ref.power(x, 4))
    finally:
        op.close()
        ref.close()


def test_non_identical_candidates_are_rejected(grid, monkeypatch):
    """The three-probe gate still runs on plans that are identical by
    design: a candidate whose output differs from the default's (here a
    threaded run whose result is nudged by one ulp) is caught
    empirically and cannot win."""
    from repro.core import FBMPKOperator

    real_power = FBMPKOperator.power

    def nudged(self, x, k, **kw):
        y = real_power(self, x, k, **kw)
        return np.nextafter(y, np.inf) if self.executor == "threads" else y

    monkeypatch.setattr(FBMPKOperator, "power", nudged)
    threads = FAST_POWER_CANDIDATES[2]
    with obs.Telemetry() as tel:
        op, res = _tune(grid, candidates=[default_power_plan(), threads])
    counters = {name: c["value"] for name, c
                in tel.metrics.snapshot()["counters"].items()}
    try:
        trial = next(t for t in res.trials if t.plan == threads)
        assert trial.identical is False
        assert not trial.accepted
        assert res.plan == default_power_plan()
        assert counters["tune.rejected_not_identical"] == 1
    finally:
        op.close()


def test_ineligible_candidates_are_never_built(grid, monkeypatch):
    """A plan that is not bit-identical by design is dropped before the
    search builds or times anything: it never reaches
    ``instantiate_power``, never appears among the trials, does not
    count against ``max_candidates``, and is counted as skipped."""
    from repro.tune import autotuner, plan_is_bit_identical_by_design

    built = []
    real = autotuner.instantiate_power

    def spy(plan, a, **kw):
        built.append(plan)
        return real(plan, a, **kw)

    monkeypatch.setattr(autotuner, "instantiate_power", spy)
    plans = power_candidates()
    n_skipped = sum(not plan_is_bit_identical_by_design(p) for p in plans)
    assert n_skipped > 0
    with obs.Telemetry() as tel:
        op, res = _tune(grid, candidates=plans, max_candidates=3)
    counters = {name: c["value"] for name, c
                in tel.metrics.snapshot()["counters"].items()}
    try:
        assert built and all(plan_is_bit_identical_by_design(p)
                             for p in built)
        assert len(res.trials) == 3
        assert all(plan_is_bit_identical_by_design(t.plan)
                   for t in res.trials)
        assert counters["tune.skipped_not_by_design"] == n_skipped
        assert counters["tune.candidates"] == 3
    finally:
        op.close()


def test_only_ineligible_candidates_is_an_error(grid):
    with pytest.raises(RuntimeError, match="bit-identical by design"):
        _tune(grid, candidates=[LEVELS_PLAN])


def test_operator_built_once_per_arithmetic_plan(grid, monkeypatch):
    """Candidates that differ only in execution knobs share one built
    operator; the search re-points it between trials."""
    from repro.tune import autotuner

    built = []
    real = autotuner.instantiate_power

    def spy(plan, a, **kw):
        built.append(plan)
        return real(plan, a, **kw)

    monkeypatch.setattr(autotuner, "instantiate_power", spy)
    candidates = FAST_POWER_CANDIDATES + [PROCESSES_PLAN]
    op, res = _tune(grid, candidates=candidates)
    try:
        assert len(res.trials) == len(candidates)
        assert all(t.error is None for t in res.trials)
        assert len(built) == 1
        assert built[0].params.get("executor", "serial") == "serial"
    finally:
        op.close()


def test_returned_winner_holds_no_pools(grid, monkeypatch):
    """The operator the search returns carries the winner's executor
    configuration and no pool left over from the trials: no live worker
    thread, no worker process, no shared-memory segment."""
    import threading

    from repro.parallel.procexec import SHM_PREFIX

    def shm():
        try:
            return {f for f in os.listdir("/dev/shm")
                    if f.startswith(SHM_PREFIX)}
        except FileNotFoundError:
            return set()

    before = shm()
    # The processes plan runs last and is scripted to lose, so the
    # serial default wins after every pool has been started.
    _scripted_times(monkeypatch, [1.0, 2.0, 2.0, 2.0])
    op, res = _tune(grid, candidates=FAST_POWER_CANDIDATES
                    + [PROCESSES_PLAN])
    try:
        assert res.plan == default_power_plan()
        assert op.executor == "serial"
        assert op._pool is None
        assert shm() == before
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("fbmpk") and t.is_alive()]
    finally:
        op.close()


@pytest.mark.parametrize("params, expected", [
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "executor": "serial"}, True),
    # The executor dimension reschedules, never re-rounds.
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "executor": "threads", "n_threads": 2}, True),
    # A different grouping permutes the matrix and with it every row's
    # accumulation order.
    ({"variant": "fused", "strategy": "levels", "block_size": 1,
      "executor": "serial"}, False),
    ({"variant": "fused", "strategy": "abmc", "block_size": 256,
      "executor": "serial"}, False),
    # A knob the default lacks (as a plan cached by an older version
    # carries) is not identical by design.
    ({"variant": "fused", "strategy": "abmc", "block_size": 1,
      "backend": "scipy", "executor": "serial"}, False),
    ({"variant": "unfused", "strategy": "none", "block_size": 1,
      "executor": "serial"}, False),
])
def test_power_plan_design_identity_classification(params, expected):
    from repro.tune import plan_is_bit_identical_by_design
    assert plan_is_bit_identical_by_design(
        ExecutionPlan("power", params)) is expected


@pytest.mark.parametrize("params, expected", [
    ({"kernel": "vectorised"}, True),
    ({"kernel": "blocked", "block_rows": 4096}, True),
    ({"kernel": "scipy"}, False),
    ({"kernel": "sell", "c": 8, "sigma": 64}, False),
    ({"kernel": "bsr", "r": 2}, False),
])
def test_spmv_plan_design_identity_classification(params, expected):
    from repro.tune import plan_is_bit_identical_by_design
    assert plan_is_bit_identical_by_design(
        ExecutionPlan("spmv", params)) is expected


def test_probe_coincidence_cannot_win():
    """A plan that happens to match the default on every probe but does
    not share its arithmetic by construction (e.g. the unfused variant
    on a tiny matrix — the rounding coincidence the property suite
    found) must still be ineligible."""
    from repro.tune import Trial

    unfused = ExecutionPlan("power", {"variant": "unfused",
                                      "strategy": "none", "block_size": 1,
                                      "executor": "serial"})
    trial = Trial(plan=unfused, time_s=0.0, identical=True,
                  by_design=False)
    assert not trial.accepted


PROCESSES_PLAN = ExecutionPlan("power", {
    "variant": "fused", "strategy": "abmc", "block_size": 1,
    "executor": "processes", "n_threads": 2})


def _scripted_times(monkeypatch, times):
    """Replace the timing probe with scripted wall-clocks (one per
    candidate, in search order) while still running the real operator
    once so bit-identity checks stay genuine."""
    from repro.tune import autotuner

    queue = list(times)

    def fake(fn, repeats, warmup):
        return queue.pop(0), fn()

    monkeypatch.setattr(autotuner, "_time_candidate", fake)


def test_slow_processes_plan_never_selected(grid, monkeypatch):
    """Efficiency guard: a processes plan measured no faster than the
    serial default (speedup_vs_serial < 1) must be disqualified even
    though it is bit-identical and ran without error."""
    _scripted_times(monkeypatch, [1.0, 2.0])
    with obs.Telemetry() as tel:
        op, res = _tune(grid, candidates=[default_power_plan(),
                                          PROCESSES_PLAN])
    counters = {name: c["value"] for name, c
                in tel.metrics.snapshot()["counters"].items()}
    try:
        trial = next(t for t in res.trials if t.plan == PROCESSES_PLAN)
        assert trial.identical and trial.by_design and trial.error is None
        assert trial.efficient is False
        assert not trial.accepted
        assert res.plan == default_power_plan()
        assert counters["tune.rejected_inefficient"] == 1
    finally:
        op.close()


def test_fast_processes_plan_still_eligible(grid, monkeypatch):
    """The guard only fires on a measured slowdown: a processes plan
    that beats the serial default stays eligible and wins."""
    _scripted_times(monkeypatch, [1.0, 0.5])
    op, res = _tune(grid, candidates=[default_power_plan(),
                                      PROCESSES_PLAN])
    try:
        trial = next(t for t in res.trials if t.plan == PROCESSES_PLAN)
        assert trial.efficient is None
        assert trial.accepted
        assert res.plan == PROCESSES_PLAN
    finally:
        op.close()


def test_inefficient_trial_not_accepted():
    from repro.tune import Trial

    trial = Trial(plan=PROCESSES_PLAN, time_s=2.0, identical=True,
                  by_design=True, efficient=False)
    assert not trial.accepted


def test_broken_candidate_recorded_not_fatal(grid):
    """Eligible plans that fail on this host are recorded as errored
    trials: one whose executor cannot be configured, and one whose
    worker pool cannot start.  The search carries on and the default
    wins."""
    no_executor = ExecutionPlan("power", {
        "variant": "fused", "strategy": "abmc", "block_size": 1,
        "executor": "no-such-executor"})
    no_pool = ExecutionPlan("power", {
        "variant": "fused", "strategy": "abmc", "block_size": 1,
        "executor": "threads", "n_threads": 0})
    op, res = _tune(grid, candidates=[default_power_plan(), no_executor,
                                      no_pool])
    try:
        for broken in (no_executor, no_pool):
            trial = next(t for t in res.trials if t.plan == broken)
            assert trial.error is not None and "ValueError" in trial.error
            assert not trial.accepted
        assert res.plan == default_power_plan()
        assert op.executor == "serial"
    finally:
        op.close()


def test_full_candidate_space_runs(grid):
    """The real (untrimmed) enumeration must survive end to end, timing
    every candidate that is bit-identical by design."""
    from repro.tune import plan_is_bit_identical_by_design

    op, res = autotune_power(grid, k=3, cache=False, repeats=1, warmup=0)
    try:
        assert len(res.trials) == sum(
            plan_is_bit_identical_by_design(p) for p in power_candidates())
        assert res.trials[0].accepted
    finally:
        op.close()


def test_max_candidates_keeps_default(grid):
    op, res = _tune(grid, candidates=None, max_candidates=2)
    try:
        assert len(res.trials) == 2
        assert res.trials[0].plan == default_power_plan()
    finally:
        op.close()


# -- cache amortisation ----------------------------------------------------
def test_second_call_hits_cache(tmp_path, grid, rng):
    cache = PlanCache(tmp_path)
    op1, res1 = _tune(grid, cache=cache)
    assert res1.source == "search"
    x = rng.standard_normal(grid.n_rows)
    y1 = op1.power(x, 4)
    op1.close()

    with obs.Telemetry() as tel:
        op2, res2 = _tune(grid, cache=cache)
    counters = {name: c["value"] for name, c
                in tel.metrics.snapshot()["counters"].items()}
    try:
        assert res2.source == "cache"
        assert res2.plan == res1.plan
        assert res2.trials == []  # no candidate was re-measured
        assert counters["plan_cache.hit"] == 1
        assert "tune.candidates" not in counters
        assert np.array_equal(op2.power(x, 4), y1)
    finally:
        op2.close()


def test_force_reruns_search(tmp_path, grid):
    cache = PlanCache(tmp_path)
    op1, _ = _tune(grid, cache=cache)
    op1.close()
    op2, res2 = _tune(grid, cache=cache, force=True)
    try:
        assert res2.source == "search"
    finally:
        op2.close()


def test_cache_dir_as_path_argument(tmp_path, grid):
    op1, res1 = _tune(grid, cache=str(tmp_path))
    op1.close()
    assert res1.cache_path is not None
    op2, res2 = _tune(grid, cache=str(tmp_path))
    op2.close()
    assert res2.source == "cache"


def test_unusable_cached_plan_falls_back_to_search(tmp_path, grid):
    """A stored plan that no longer instantiates must trigger a fresh
    search, not an error."""
    import json

    cache = PlanCache(tmp_path)
    op1, _ = _tune(grid, cache=cache)
    op1.close()
    from repro.tune import fingerprint_matrix
    fp = fingerprint_matrix(grid)
    payload = json.loads(cache.entry_path(fp).read_text())
    payload["plan"]["params"]["variant"] = "retired-variant"
    cache.entry_path(fp).write_text(json.dumps(payload))
    op2, res2 = _tune(grid, cache=cache)
    try:
        assert res2.source == "search"
    finally:
        op2.close()


# -- spmv ------------------------------------------------------------------
def test_autotune_spmv_identical_and_cached(tmp_path, grid, rng):
    cache = PlanCache(tmp_path)
    fn, res = autotune_spmv(grid, cache=cache, repeats=1, warmup=0)
    assert res.source == "search"
    x = rng.standard_normal(grid.n_cols)
    assert np.array_equal(fn(x), grid.matvec(x))
    fn2, res2 = autotune_spmv(grid, cache=cache)
    assert res2.source == "cache"
    assert np.array_equal(fn2(x), grid.matvec(x))


def test_tuned_matvec_bit_identical(grid, rng):
    fn = tuned_matvec(grid, cache=False, repeats=1, warmup=0)
    for _ in range(3):
        x = rng.standard_normal(grid.n_cols)
        assert np.array_equal(fn(x), grid.matvec(x))


def test_tune_telemetry_counters(grid):
    with obs.Telemetry() as tel:
        op, res = _tune(grid)
        op.close()
    snap = tel.metrics.snapshot()
    counters = {name: c["value"] for name, c in snap["counters"].items()}
    assert counters["tune.candidates"] == len(res.trials)
    assert "tune.best_time_s" in snap["gauges"]
    span_names = {r.name for r in tel.recorder.records()}
    assert "tune.autotune" in span_names
    assert "tune.candidate" in span_names


# -- racing ----------------------------------------------------------------
def test_racing_drops_hopeless_candidate(grid):
    """A processes plan on a 64-row grid pays per-call dispatch far
    beyond the racing margin over serial: with racing on, its first
    timed repeat disqualifies it — no further repeats, no identity
    probes — and the default still wins."""
    with obs.Telemetry() as tel:
        op, res = _tune(grid, racing=True, repeats=3,
                        candidates=[default_power_plan(), PROCESSES_PLAN])
    counters = {name: c["value"] for name, c
                in tel.metrics.snapshot()["counters"].items()}
    try:
        trial = next(t for t in res.trials if t.plan == PROCESSES_PLAN)
        assert trial.raced is True
        assert trial.time_s is not None  # the pessimistic single repeat
        assert trial.identical is None   # probes were skipped
        assert not trial.accepted
        assert res.plan == default_power_plan()
        assert counters["tune.candidates_raced"] == 1
    finally:
        op.close()


def test_racing_never_races_the_default(grid):
    """Candidate 0 defines the reference outputs, so it is always fully
    measured regardless of racing."""
    op, res = _tune(grid, racing=True, repeats=2)
    try:
        assert res.trials[0].raced is None
        assert res.trials[0].identical is True
    finally:
        op.close()


def test_racing_keeps_competitive_candidates(grid):
    """A serial candidate within the margin survives racing and is
    fully measured and identity-gated like before."""
    op, res = _tune(grid, racing=True, repeats=2,
                    candidates=FAST_POWER_CANDIDATES[:2])
    try:
        survivor = res.trials[1]
        if survivor.raced is not True:  # survived the first repeat
            assert survivor.raced is False
            assert survivor.identical is not None
    finally:
        op.close()


def test_search_s_recorded(grid):
    for racing in (False, True):
        op, res = _tune(grid, racing=racing)
        try:
            assert res.source == "search"
            assert res.search_s is not None and res.search_s > 0.0
        finally:
            op.close()


def test_search_s_in_cache_meta(tmp_path, grid):
    import json

    cache = PlanCache(tmp_path)
    op, res = _tune(grid, cache=cache, racing=True)
    op.close()
    payload = json.loads(res.cache_path.read_text())
    assert payload["meta"]["search_s"] > 0.0
    assert payload["meta"]["raced"] >= 0
