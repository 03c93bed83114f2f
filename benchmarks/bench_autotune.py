"""Autotuner amortisation: tuned vs default wall-clock per matrix class.

The OSKI-style argument the tuner must earn: after a one-off search
(amortised exactly like the paper's Fig. 11 preprocessing), executing
``A^8 x`` through the tuned plan is never slower than the untuned
default — the tuner measured the default as a candidate, so it can at
worst pick it back.  This bench asserts that end to end per matrix
class, with trimmed-mean timing over ``REPEATS >= 5`` repeats, and
records the numbers in ``BENCH_autotune.json`` at the repo root plus a
human-readable table in ``benchmarks/out/``.

The cache-amortisation claim is also asserted: a second
``autotune_power`` call against the populated cache must return the
same plan from disk without timing a single candidate.

The search times only the candidates that are bit-identical to the
default by design; ``candidates`` records how many were timed and
``candidates_enumerated`` how many :func:`power_candidates` proposed.
The JSON also records the host's CPU count and affinity, since the
parallel candidates' times depend on both.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_autotune.py``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench import bench_rows, format_table, standin, write_report
from repro.core import build_fbmpk_operator
from repro.tune import (PlanCache, autotune_power, power_candidates,
                        trimmed_mean)

K = 8
REPEATS = 5
WARMUP = 1
#: One representative per structural class of the Table II set:
#: banded/FEM (cant), wide-band FEM (shipsec1), circuit/graph-like
#: (G3_circuit).
MATRICES = ["cant", "shipsec1", "G3_circuit"]

ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = ROOT / "BENCH_autotune.json"

_RESULTS = {}


def _timed_pair(run_a, run_b):
    """Trimmed-mean times of two runnables, samples interleaved
    (a, b, a, b, ...) so clock drift and cache state on a shared host
    hit both sides equally instead of biasing whichever ran last."""
    for _ in range(WARMUP):
        run_a()
        run_b()
    samples_a, samples_b = [], []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run_a()
        samples_a.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_b()
        samples_b.append(time.perf_counter() - t0)
    return trimmed_mean(samples_a), trimmed_mean(samples_b)


@pytest.mark.parametrize("name", MATRICES)
def test_tuned_not_slower_than_default(name, tmp_path, rng):
    a = standin(name, min(bench_rows(), 8_000))
    x = rng.standard_normal(a.n_rows)

    default_op = build_fbmpk_operator(a)
    cache = PlanCache(tmp_path)
    t_search0 = time.perf_counter()
    tuned_op, result = autotune_power(a, k=K, cache=cache, repeats=REPEATS)
    search_s = time.perf_counter() - t_search0
    try:
        y_default = default_op.power(x, K)
        assert np.array_equal(tuned_op.power(x, K), y_default)

        default_s, tuned_s = _timed_pair(
            lambda: default_op.power(x, K),
            lambda: tuned_op.power(x, K))

        # Cache amortisation: the second process skips the search.
        t_hit0 = time.perf_counter()
        hit_op, hit = autotune_power(a, k=K, cache=cache)
        hit_s = time.perf_counter() - t_hit0
        assert hit.source == "cache"
        assert hit.plan == result.plan
        assert hit.trials == []
        assert np.array_equal(hit_op.power(x, K), y_default)
        hit_op.close()

        _RESULTS[name] = {
            "rows": a.n_rows,
            "nnz": a.nnz,
            "k": K,
            "repeats": REPEATS,
            "plan": result.plan.label,
            "default_s": default_s,
            "tuned_s": tuned_s,
            "speedup": default_s / tuned_s,
            "search_s": search_s,
            "cache_hit_s": hit_s,
            "candidates": len(result.trials),
            "candidates_enumerated": len(power_candidates()),
        }
        # The acceptance bound: tuned execution must not lose to the
        # default it was gated against.  5% covers timer noise on a
        # busy host — the selection itself cannot regress because the
        # default is always in the candidate set.
        assert tuned_s <= default_s * 1.05, (
            f"{name}: tuned {tuned_s * 1e3:.3f} ms > default "
            f"{default_s * 1e3:.3f} ms")
    finally:
        default_op.close()
        tuned_op.close()


_RACING = {}


def test_racing_reduces_search_wall_clock(rng):
    """The satellite claim: racing drops dominated candidates after one
    repeat, so the same search over the same candidate space finishes
    faster and still selects the same plan."""
    a = standin("cant", min(bench_rows(), 8_000))
    op_full, full = autotune_power(a, k=K, cache=False, repeats=REPEATS,
                                   racing=False)
    op_full.close()
    op_raced, raced = autotune_power(a, k=K, cache=False, repeats=REPEATS,
                                     racing=True)
    op_raced.close()
    assert raced.plan == full.plan, (
        f"racing changed the winner: {raced.plan.label} "
        f"vs {full.plan.label}")
    n_raced = sum(1 for t in raced.trials if t.raced)
    _RACING.update({
        "matrix": "cant",
        "rows": a.n_rows,
        "plan": full.plan.label,
        "search_s_full": full.search_s,
        "search_s_racing": raced.search_s,
        "candidates": len(full.trials),
        "candidates_raced": n_raced,
    })
    # Only assert a saving when something was actually raced out — on a
    # host where every candidate stays within the margin the two
    # searches do identical work.
    if n_raced:
        assert raced.search_s < full.search_s * 1.05


def test_write_results():
    """Persist the per-class numbers (runs last: file order)."""
    assert _RESULTS, "no benchmark results collected"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without an affinity mask
        affinity = None
    payload = {
        "bench": "autotune",
        "host": {"cpu_count": os.cpu_count(), "affinity": affinity},
        "k": K,
        "repeats": REPEATS,
        "matrices": _RESULTS,
        "racing": _RACING,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=2,
                                       sort_keys=True) + "\n")
    rows = [[name, r["rows"], r["plan"],
             f"{r['default_s'] * 1e3:.3f}", f"{r['tuned_s'] * 1e3:.3f}",
             f"{r['speedup']:.2f}x", f"{r['search_s']:.2f}",
             f"{r['cache_hit_s'] * 1e3:.1f}"]
            for name, r in _RESULTS.items()]
    table = format_table(
        ["matrix", "rows", "winning plan", "default (ms)", "tuned (ms)",
         "speedup", "search (s)", "cache hit (ms)"],
        rows, title=f"autotuned vs default A^{K} x "
                    f"(trimmed mean of {REPEATS})")
    write_report("autotune", table)
    print()
    print(table)
