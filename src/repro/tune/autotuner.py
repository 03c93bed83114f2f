"""Empirical autotuning with bit-identity gating.

The OSKI-style loop, split into an offline and an online part: enumerate
candidate execution plans (:mod:`repro.tune.registry`), keep only those
that perform the same floating-point arithmetic as the library default
by construction
(:func:`repro.tune.registry.plan_is_bit_identical_by_design`), and time
each of those on the *actual* matrix with warmup + trimmed-mean repeats.
The gate runs on the plan description, before anything is built: a plan
that could never be selected costs nothing (it is counted under
``tune.skipped_not_by_design``).  Every timed candidate must still pass
the empirical check — its output **bit-identical** (``np.array_equal``,
not ``allclose``) to the default path's on three independent probe
vectors.  The winner is the fastest accepted candidate — with ties
going to the default — so the tuned path can never be
slower-by-selection or numerically different from the untuned one.

Candidates that differ only in execution knobs (executor, worker count,
assignment policy, pinning) share one built operator: the
search builds it once and re-points it between trials with
:meth:`~repro.core.fbmpk.FBMPKOperator.configure_executor`, which shuts
down the previous trial's worker pool.  The returned operator carries
the winner's executor configuration and no pool left over from the
trials.  Winning plans (plus the winner's preprocessed operator
artefact) are persisted through :class:`repro.tune.cache.PlanCache`, so
a later process skips both the search and the recomputable
preprocessing: the amortisation the paper's Fig. 11 argues for, moved
from per-process to per-matrix.

Resilience: a tuning search builds and times real operators (under a
second per structure in ``BENCH_autotune.json``, but it grows with the
matrix) and can fail repeatedly on a pathological input — unacceptable
on a serving path.  Both entry
points therefore run under a
:class:`~repro.robust.resilience.CircuitBreaker` (the module-level
:data:`SEARCH_BREAKER` unless the caller passes their own) with an
optional per-search time budget: a search that raises, or that blows
``search_budget_s``, records a breaker failure; after
``failure_threshold`` consecutive failures the breaker opens and
subsequent calls skip the search entirely, instantiating the *default*
plan immediately (``TuningResult.source == "breaker"``) until a
half-open probe re-admits searching.  Pass ``breaker=False`` to opt
out.  The budget also bounds the cross-process
:meth:`~repro.tune.cache.PlanCache.lock` wait, so a caller can never
block indefinitely behind another process's search.

Racing: timing every candidate for the full ``repeats`` budget wastes
most of the search on plans that were never going to win.  With
``racing=True`` (the default for :func:`autotune_power`) a non-default
candidate gets one timed repeat first; if that single repeat already
exceeds :data:`RACING_MARGIN` times the best trimmed mean measured so
far, the candidate is *raced out* — its remaining repeats and identity
probes are skipped, its trial records the pessimistic single-repeat
time with ``raced=True``, and it can never be selected.  The winner is
unchanged in expectation (a true winner's single repeat would have to
be >50% slower than the incumbent's trimmed mean to be dropped) while
the search spends its wall clock on the contenders.
``TuningResult.search_s`` records the measured search wall time so the
saving is observable.

Telemetry (all no-ops without an active :class:`repro.obs.Telemetry`):
``tune.autotune`` / ``tune.candidate`` spans, ``tune.candidates`` /
``tune.skipped_not_by_design`` / ``tune.candidates_raced`` /
``tune.rejected_not_identical`` / ``tune.rejected_inefficient`` /
``tune.errors`` /
``tune.budget_exhausted`` / ``tune.breaker.*`` counters, and
``tune.default_time_s`` / ``tune.best_time_s`` gauges.  Cache lookups
emit ``plan_cache.{hit,miss,corrupt,store}`` (see
:mod:`repro.tune.cache`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..robust.resilience import CircuitBreaker, Deadline
from ..sparse.csr import CSRMatrix
from .cache import PlanCache
from .fingerprint import StructureFingerprint, fingerprint_matrix
from .plan import ExecutionPlan, default_power_plan, default_spmv_plan
from .registry import (
    configure_power,
    instantiate_power,
    instantiate_spmv,
    order_power_candidates,
    plan_is_bit_identical_by_design,
    power_arithmetic_key,
    power_candidates,
    spmv_candidates,
)

__all__ = [
    "trimmed_mean",
    "Trial",
    "TuningResult",
    "autotune_power",
    "autotune_spmv",
    "tuned_matvec",
    "SEARCH_BREAKER",
    "RACING_MARGIN",
]

#: ``cache`` argument accepted by the autotune entry points: ``None``
#: (default persistent cache), a :class:`PlanCache`, a directory path,
#: or ``False`` to disable persistence entirely.
CacheArg = Union[None, bool, str, Path, PlanCache]

#: ``breaker`` argument: ``None`` (module default), a caller-owned
#: :class:`CircuitBreaker` (e.g. one per solve service), or ``False``
#: to run unguarded.
BreakerArg = Union[None, bool, CircuitBreaker]

#: Process-wide default breaker guarding the tuning searches.  Named
#: ``tune`` so its metrics land under ``tune.breaker.*``.
SEARCH_BREAKER = CircuitBreaker("tune", failure_threshold=3,
                                reset_timeout_s=60.0)

#: Racing threshold: a candidate whose *single* first repeat exceeds
#: this multiple of the best trimmed mean so far is dropped without
#: spending its remaining repeats or identity probes.  1.5 leaves a
#: wide noise margin — one preempted repeat on a loaded machine rarely
#: inflates a power call by 50% after warmup — so a genuine winner is
#: effectively never raced out.
RACING_MARGIN = 1.5


def _resolve_breaker(breaker: BreakerArg) -> Optional[CircuitBreaker]:
    if breaker is False:
        return None
    if breaker is None or breaker is True:
        return SEARCH_BREAKER
    return breaker


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean with the single min and max dropped (when three or more
    samples exist) — the repeat aggregator used for every timing here.
    One preempted repeat on a noisy machine must not crown or dethrone
    a candidate."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("trimmed_mean of no samples")
    if len(vals) >= 3:
        vals = vals[1:-1]
    return sum(vals) / len(vals)


@dataclass
class Trial:
    """One measured candidate."""

    plan: ExecutionPlan
    time_s: Optional[float] = None
    build_time_s: Optional[float] = None
    identical: Optional[bool] = None
    by_design: Optional[bool] = None
    #: False when the efficiency guard disqualified this trial: a
    #: process-pool plan measured no faster than the serial default
    #: (``speedup_vs_serial < 1``) must never be selected — paying
    #: worker-pool dispatch for a slowdown is strictly worse than the
    #: untuned path.  None means the guard did not apply.
    efficient: Optional[bool] = None
    #: True when racing dropped this candidate after its first timed
    #: repeat (``time_s`` is that single pessimistic sample and the
    #: identity probes never ran, so ``accepted`` is False).  None when
    #: racing did not apply.
    raced: Optional[bool] = None
    error: Optional[str] = None

    @property
    def accepted(self) -> bool:
        """Eligible to win: ran without error, matched the default path
        bit-for-bit on every probe, shares the default's floating-point
        arithmetic by construction
        (:func:`repro.tune.registry.plan_is_bit_identical_by_design`) —
        probes alone cannot rule out a rounding coincidence on small
        matrices — and was not disqualified by the efficiency guard."""
        return self.error is None and bool(self.identical) \
            and bool(self.by_design) and self.efficient is not False


@dataclass
class TuningResult:
    """Outcome of one autotune call (search or cache hit)."""

    kind: str
    fingerprint: StructureFingerprint
    plan: ExecutionPlan
    source: str  # "search" | "cache" | "breaker"
    trials: List[Trial] = field(default_factory=list)
    default_time_s: Optional[float] = None
    best_time_s: Optional[float] = None
    cache_path: Optional[Path] = None
    #: True when a ``search_budget_s`` expired mid-search: the winner is
    #: whatever had been measured so far, and the guarding breaker
    #: counts the call as a failure.
    budget_exhausted: bool = False
    #: Wall-clock seconds the search spent measuring candidates; None
    #: on a cache hit or breaker short-circuit (nothing was searched).
    search_s: Optional[float] = None

    @property
    def speedup(self) -> Optional[float]:
        """Default over winner time ratio; None on a cache hit (nothing
        was measured) or a degenerate measurement."""
        if not self.default_time_s or not self.best_time_s:
            return None
        return self.default_time_s / self.best_time_s


def _resolve_cache(cache: CacheArg) -> Optional[PlanCache]:
    if cache is False:
        return None
    if cache is None or cache is True:
        return PlanCache()
    if isinstance(cache, PlanCache):
        return cache
    return PlanCache(cache)


def _time_candidate(run: Callable[[], np.ndarray], repeats: int,
                    warmup: int) -> Tuple[float, np.ndarray]:
    """Trimmed-mean wall-clock of ``run`` and its (last) output."""
    for _ in range(warmup):
        y = run()
    samples = []
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        y = run()
        samples.append(time.perf_counter() - t0)
    return trimmed_mean(samples), y


def _guarded_search(breaker: Optional[CircuitBreaker],
                    do_search: Callable[[], Tuple[Any, TuningResult]],
                    do_default: Callable[[], Tuple[Any, TuningResult]]
                    ) -> Tuple[Any, TuningResult]:
    """Run ``do_search`` under ``breaker``: an open breaker
    short-circuits straight to ``do_default`` (the untuned plan,
    instantiated in milliseconds); a search that raises or blows its
    budget records a failure, anything else a success."""
    if breaker is None:
        return do_search()
    if not breaker.allow():  # counts <name>.breaker.short_circuit
        return do_default()
    try:
        obj, result = do_search()
    except Exception:
        breaker.record_failure()
        raise
    if result.budget_exhausted:
        breaker.record_failure()
    else:
        breaker.record_success()
    return obj, result


def _default_power(a, fp):
    """Breaker-open degraded path: the default (untuned) plan,
    instantiated directly — nothing measured, nothing persisted."""
    plan = default_power_plan()
    return instantiate_power(plan, a), TuningResult(
        kind="power", fingerprint=fp, plan=plan, source="breaker")


def autotune_power(
    a: CSRMatrix,
    k: int = 8,
    cache: CacheArg = None,
    repeats: int = 5,
    warmup: int = 1,
    force: bool = False,
    candidates: Optional[Sequence[ExecutionPlan]] = None,
    max_candidates: Optional[int] = None,
    seed: int = 0,
    search_budget_s: Optional[float] = None,
    breaker: BreakerArg = None,
    racing: bool = True,
):
    """Tune the ``A^k x`` pipeline for ``a``.

    Returns ``(operator, TuningResult)``.

    On a cache hit (same structure fingerprint, ``force=False``) the
    stored plan — and its preprocessed-operator artefact when present —
    is instantiated directly: no candidate is timed and, with the
    artefact, no splitting/colouring/grouping is recomputed.  Otherwise
    the candidate space (``candidates`` or
    :func:`repro.tune.registry.power_candidates`, analytically
    pre-ordered, reduced to the plans that are bit-identical to the
    default by design, then optionally truncated to ``max_candidates`` —
    the default plan always survives truncation) is measured and gated
    as described in the module docstring, and the winner is persisted.
    A candidate list with no such plan raises :class:`RuntimeError`.

    ``racing=True`` (the default) drops candidates whose first timed
    repeat already exceeds :data:`RACING_MARGIN` times the best trimmed
    mean so far, skipping their remaining repeats and identity probes —
    see the module docstring.  Pass ``racing=False`` to time every
    candidate for the full ``repeats`` budget (e.g. when harvesting
    complete per-candidate timings for analysis).

    ``search_budget_s`` bounds the search (and the cross-process cache
    lock wait): once exhausted, no further candidate is measured — the
    best so far wins — and the call counts as a ``breaker`` failure.
    ``breaker`` guards the search as described in the module docstring;
    a cache hit never consults it (hits are the fast path the breaker
    exists to protect).

    The probe vectors are drawn from ``default_rng(seed)`` so reruns of
    the search are reproducible.  The returned operator may start
    worker pools on its first parallel call; call ``close()`` or use it
    as a context manager.
    """
    store = _resolve_cache(cache)
    brk = _resolve_breaker(breaker)
    fp = fingerprint_matrix(a, kind="power")
    with obs.span("tune.autotune", kind="power", k=k, key=fp.key()):
        def search(st):
            return _guarded_search(
                brk,
                lambda: _search_power(a, k, fp, st, repeats, warmup,
                                      candidates, max_candidates, seed,
                                      search_budget_s, racing),
                lambda: _default_power(a, fp))

        if store is None or force:
            return search(store)
        hit = _load_power_entry(store, fp, a)
        if hit is not None:
            return hit
        # Miss: serialise the search on the entry's file lock so
        # concurrent first-tuners of the same structure (threads or
        # separate processes) do not both pay it.  Double-checked: the
        # race's loser blocks here, then finds the winner's entry on
        # the in-lock re-check and instantiates it instead.
        with store.lock(fp, timeout_s=search_budget_s):
            hit = _load_power_entry(store, fp, a)
            if hit is not None:
                return hit
            return search(store)


def _load_power_entry(store, fp, a):
    """Cache-hit path: ``(operator, TuningResult)`` or None on a miss
    (including an entry whose stored plan no longer instantiates — that
    entry is dropped so a search can replace it)."""
    entry = store.load(fp)
    if entry is None:
        return None
    try:
        op = instantiate_power(entry.plan, a,
                               operator_path=entry.operator_path)
    except Exception as exc:
        # Stored plan no longer instantiable (e.g. knob removed):
        # drop it and fall through to a search.
        obs.event("tune.cache_plan_unusable", error=repr(exc))
        store.invalidate(fp)
        return None
    return op, TuningResult(
        kind="power", fingerprint=fp, plan=entry.plan,
        source="cache", cache_path=store.entry_path(fp))


def _operator_for(plan: ExecutionPlan, a: CSRMatrix,
                  built: Dict[Tuple, Any]):
    """The operator ``plan`` runs on: built once per arithmetic plan
    (:func:`~repro.tune.registry.power_arithmetic_key`) with the serial
    executor, then re-pointed at ``plan``'s execution knobs.  A failed
    build is remembered, so the plans sharing it fail without
    rebuilding."""
    key = power_arithmetic_key(plan)
    if key not in built:
        try:
            built[key] = instantiate_power(ExecutionPlan("power", dict(key)),
                                           a)
        except Exception as exc:
            built[key] = exc
    op = built[key]
    if isinstance(op, Exception):
        raise op
    return configure_power(op, plan)


def _search_power(a, k, fp, store, repeats, warmup, candidates,
                  max_candidates, seed, budget_s=None, racing=True):
    search_t0 = time.perf_counter()
    plans = list(candidates) if candidates is not None \
        else power_candidates()
    plans = order_power_candidates(plans, a, k)
    # Gate before building: a plan whose arithmetic differs from the
    # default's by construction can never be selected, so it is neither
    # built nor timed, and it does not count against max_candidates.
    eligible = [p for p in plans if plan_is_bit_identical_by_design(p)]
    if len(eligible) < len(plans):
        obs.add_counter("tune.skipped_not_by_design",
                        len(plans) - len(eligible))
    plans = eligible
    if max_candidates is not None and max_candidates >= 1:
        plans = plans[:max_candidates]
    deadline = Deadline.after(budget_s) if budget_s is not None \
        else Deadline.never()
    budget_exhausted = False
    rng = np.random.default_rng(seed)
    # The identity gate checks THREE independent probe vectors, not one:
    # on small matrices a numerically different candidate (e.g. the
    # unfused variant) can match the default bit-for-bit on a single
    # input by rounding coincidence while differing on others.  Timing
    # uses the first probe; the extra probes cost one power call each.
    probes = [rng.standard_normal(a.n_rows) for _ in range(3)]

    trials: List[Trial] = []
    refs: Optional[List[np.ndarray]] = None
    best: Optional[Trial] = None
    built: Dict[Tuple, Any] = {}  # arithmetic key -> operator or error
    win_op = None
    try:
        for i, plan in enumerate(plans):
            if i > 0 and deadline.expired():
                # Candidate 0 (the default) is always measured: it
                # defines the references, so a budget too tight even for
                # it still yields a correct, if untuned, winner.
                budget_exhausted = True
                obs.add_counter("tune.budget_exhausted")
                break
            trial = Trial(plan=plan, by_design=True)
            trials.append(trial)
            obs.add_counter("tune.candidates")
            with obs.span("tune.candidate", plan=plan.label):
                try:
                    t0 = time.perf_counter()
                    op = _operator_for(plan, a, built)
                    trial.build_time_s = time.perf_counter() - t0

                    def run(op=op):
                        return op.power(probes[0], k)

                    reference = best.time_s if best is not None else None
                    if racing and i > 0 and reference is not None:
                        for _ in range(warmup):
                            run()
                        t0 = time.perf_counter()
                        y0 = run()
                        first = time.perf_counter() - t0
                        if first > RACING_MARGIN * reference:
                            # Raced out: a single repeat already misses
                            # the incumbent by the margin.  Record the
                            # pessimistic sample (it cannot win) and
                            # skip the remaining repeats and probes.
                            trial.time_s = first
                            trial.raced = True
                            obs.add_counter("tune.candidates_raced")
                            continue
                        trial.raced = False
                        samples = [first]
                        for _ in range(max(repeats, 1) - 1):
                            t0 = time.perf_counter()
                            y0 = run()
                            samples.append(time.perf_counter() - t0)
                        trial.time_s = trimmed_mean(samples)
                    else:
                        trial.time_s, y0 = _time_candidate(run, repeats,
                                                           warmup)
                    ys = [y0] + [op.power(x, k) for x in probes[1:]]
                except Exception as exc:
                    trial.error = repr(exc)
                    obs.add_counter("tune.errors")
                    continue
                if refs is None:
                    # The first measured candidate (the default plan
                    # when it ran) defines the reference outputs.
                    refs = ys
                    trial.identical = True
                else:
                    trial.identical = all(
                        np.array_equal(y, r) for y, r in zip(ys, refs))
                    if not trial.identical:
                        obs.add_counter("tune.rejected_not_identical")
                    # Efficiency guard: a process-pool plan that fails to
                    # beat the measured serial default (speedup < 1)
                    # must never win, even if every other candidate
                    # errored out — a slowdown that also drags in worker
                    # processes and shared-memory segments is strictly
                    # worse than serial.
                    if (plan.params.get("executor") == "processes"
                            and trials[0].time_s is not None
                            and trial.time_s is not None
                            and trial.time_s >= trials[0].time_s):
                        trial.efficient = False
                        obs.add_counter("tune.rejected_inefficient")
                if trial.accepted and (best is None
                                       or trial.time_s < best.time_s):
                    best = trial
        if best is None:
            raise RuntimeError(
                "autotune_power: no candidate ran successfully (not even "
                "the default plan); first error: "
                + next((t.error for t in trials if t.error),
                       "none recorded" if trials
                       else "no candidate is bit-identical by design"))
        win_op = configure_power(built[power_arithmetic_key(best.plan)],
                                 best.plan)
    finally:
        for op in built.values():
            if op is not win_op and not isinstance(op, Exception):
                op.close()
    default_time = trials[0].time_s
    result = TuningResult(
        kind="power", fingerprint=fp, plan=best.plan, source="search",
        trials=trials, default_time_s=default_time,
        best_time_s=best.time_s, budget_exhausted=budget_exhausted,
        search_s=time.perf_counter() - search_t0)
    if default_time is not None:
        obs.set_gauge("tune.default_time_s", default_time, unit="s")
    obs.set_gauge("tune.best_time_s", best.time_s, unit="s")
    if store is not None:
        meta: Dict[str, Any] = {
            "k": k,
            "repeats": repeats,
            "time_s": best.time_s,
            "default_time_s": default_time,
            "candidates": len(trials),
            "search_s": result.search_s,
            "raced": sum(1 for t in trials if t.raced),
        }
        result.cache_path = store.store(fp, best.plan, meta=meta,
                                        operator=win_op)
    return win_op, result


def _default_spmv(a, fp):
    """Breaker-open degraded path for :func:`autotune_spmv`."""
    plan = default_spmv_plan()
    return instantiate_spmv(plan, a), TuningResult(
        kind="spmv", fingerprint=fp, plan=plan, source="breaker")


def autotune_spmv(
    a: CSRMatrix,
    cache: CacheArg = None,
    repeats: int = 5,
    warmup: int = 1,
    force: bool = False,
    candidates: Optional[Sequence[ExecutionPlan]] = None,
    seed: int = 0,
    search_budget_s: Optional[float] = None,
    breaker: BreakerArg = None,
):
    """Tune a single-SpMV kernel for ``a``.

    Returns ``(matvec_callable, TuningResult)``.

    Same protocol as :func:`autotune_power` (including the three-probe
    bit-identity gate — one vector is too easy to match by rounding
    coincidence on small matrices, and the ``search_budget_s`` /
    ``breaker`` resilience guards), except no operator artefact is
    stored: format conversions are cheap relative to a tuning search.
    """
    store = _resolve_cache(cache)
    brk = _resolve_breaker(breaker)
    fp = fingerprint_matrix(a, kind="spmv")
    with obs.span("tune.autotune", kind="spmv", key=fp.key()):
        def search(st):
            return _guarded_search(
                brk,
                lambda: _search_spmv(a, fp, st, repeats, warmup,
                                     candidates, seed, search_budget_s),
                lambda: _default_spmv(a, fp))

        if store is None or force:
            return search(store)
        hit = _load_spmv_entry(store, fp, a)
        if hit is not None:
            return hit
        # Same double-checked locking as autotune_power: only one
        # concurrent first-tuner pays the search.
        with store.lock(fp, timeout_s=search_budget_s):
            hit = _load_spmv_entry(store, fp, a)
            if hit is not None:
                return hit
            return search(store)


def _load_spmv_entry(store, fp, a):
    """Cache-hit path for :func:`autotune_spmv`; None on a miss."""
    entry = store.load(fp)
    if entry is None:
        return None
    try:
        fn = instantiate_spmv(entry.plan, a)
    except Exception as exc:
        obs.event("tune.cache_plan_unusable", error=repr(exc))
        store.invalidate(fp)
        return None
    return fn, TuningResult(
        kind="spmv", fingerprint=fp, plan=entry.plan,
        source="cache", cache_path=store.entry_path(fp))


def _search_spmv(a, fp, store, repeats, warmup, candidates, seed,
                 budget_s=None):
    search_t0 = time.perf_counter()
    plans = list(candidates) if candidates is not None \
        else spmv_candidates()
    deadline = Deadline.after(budget_s) if budget_s is not None \
        else Deadline.never()
    budget_exhausted = False
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(a.n_cols) for _ in range(3)]

    trials: List[Trial] = []
    refs: Optional[List[np.ndarray]] = None
    best: Optional[Tuple[Trial, Callable]] = None
    for i, plan in enumerate(plans):
        if i > 0 and deadline.expired():
            budget_exhausted = True
            obs.add_counter("tune.budget_exhausted")
            break
        trial = Trial(plan=plan,
                      by_design=plan_is_bit_identical_by_design(plan))
        trials.append(trial)
        obs.add_counter("tune.candidates")
        with obs.span("tune.candidate", plan=plan.label):
            try:
                t0 = time.perf_counter()
                fn = instantiate_spmv(plan, a)
                trial.build_time_s = time.perf_counter() - t0
                times, outs = [], []
                for x in xs:
                    t, y = _time_candidate(lambda: fn(x),
                                           repeats, warmup)
                    times.append(t)
                    outs.append(y)
                trial.time_s = sum(times) / len(times)
            except Exception as exc:
                trial.error = repr(exc)
                obs.add_counter("tune.errors")
                continue
            if i == 0:
                refs = outs
                trial.identical = True
            else:
                trial.identical = all(
                    np.array_equal(y, r)
                    for y, r in zip(outs, refs))
                if not trial.identical:
                    obs.add_counter("tune.rejected_not_identical")
                elif not trial.by_design:
                    obs.event("tune.identical_but_not_by_design",
                              plan=plan.label)
            if trial.accepted and (best is None
                                   or trial.time_s < best[0].time_s):
                best = (trial, fn)

    if best is None:
        raise RuntimeError(
            "autotune_spmv: no candidate ran successfully; first "
            "error: "
            + next((t.error for t in trials if t.error),
                   "none recorded"))
    win_trial, win_fn = best
    default_time = trials[0].time_s
    result = TuningResult(
        kind="spmv", fingerprint=fp, plan=win_trial.plan,
        source="search", trials=trials, default_time_s=default_time,
        best_time_s=win_trial.time_s, budget_exhausted=budget_exhausted,
        search_s=time.perf_counter() - search_t0)
    if default_time is not None:
        obs.set_gauge("tune.default_time_s", default_time, unit="s")
    obs.set_gauge("tune.best_time_s", win_trial.time_s, unit="s")
    if store is not None:
        result.cache_path = store.store(fp, win_trial.plan, meta={
            "repeats": repeats,
            "time_s": win_trial.time_s,
            "default_time_s": default_time,
            "candidates": len(trials),
            "search_s": result.search_s,
        })
    return win_fn, result


def tuned_matvec(
    a: CSRMatrix,
    cache: CacheArg = None,
    force: bool = False,
    repeats: int = 3,
    warmup: int = 1,
) -> Callable[[np.ndarray], np.ndarray]:
    """Convenience for solvers: the tuned ``x -> A @ x`` callable for
    ``a`` (bit-identical to ``a.matvec`` by the acceptance gate), tuning
    or cache-loading as needed.  This is what the ``tuned=True`` paths
    of :mod:`repro.solvers` call."""
    fn, _ = autotune_spmv(a, cache=cache, force=force, repeats=repeats,
                          warmup=warmup)
    return fn
