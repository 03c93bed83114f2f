"""Fault-injection campaign: every injected fault must surface as a
typed error or a structured status — never a hang, a leaked thread, or a
silently wrong answer.
"""

import threading

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.matrices import banded_random
from repro.parallel.dispatch import DescriptorBatch, default_claim_chunk
from repro.parallel.executor import ThreadedPhaseExecutor
from repro.parallel.scheduler import BlockTask, Phase
from repro.robust import (
    DelayFault,
    FaultInjector,
    InjectedFault,
    NonFiniteError,
    PhaseExecutionError,
    RaiseFault,
    active_injectors,
    fire,
)


def _fbmpk_threads():
    return [t for t in threading.enumerate() if t.name.startswith("fbmpk")]


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Every test must leave zero pool threads behind."""
    assert not _fbmpk_threads()
    yield
    assert not _fbmpk_threads(), "leaked fbmpk worker threads"


@pytest.fixture(autouse=True)
def no_lingering_injectors():
    yield
    assert not active_injectors(), "an injector was left activated"


# ---------------------------------------------------------------------------
# data corruption determinism
# ---------------------------------------------------------------------------
class TestCorruptions:
    def test_same_seed_same_corruption(self):
        a = banded_random(80, 4, 7, symmetric=True, seed=2)
        bad1 = FaultInjector(seed=42).corrupt_values(a, n=3, kind="nan")
        bad2 = FaultInjector(seed=42).corrupt_values(a, n=3, kind="nan")
        assert np.array_equal(np.isnan(bad1.data), np.isnan(bad2.data))
        bad3 = FaultInjector(seed=43).corrupt_values(a, n=3, kind="nan")
        assert not np.array_equal(np.isnan(bad1.data), np.isnan(bad3.data))

    def test_original_never_mutated(self):
        a = banded_random(40, 3, 5, seed=1)
        data = a.data.copy()
        indices = a.indices.copy()
        inj = FaultInjector(seed=0)
        inj.corrupt_values(a, n=5, kind="inf")
        inj.corrupt_indices(a, n=5)
        assert np.array_equal(a.data, data)
        assert np.array_equal(a.indices, indices)

    @pytest.mark.parametrize("kind,pred", [
        ("nan", np.isnan),
        ("inf", np.isinf),
        ("huge", lambda v: v == 1e300),
    ])
    def test_corrupt_value_kinds(self, kind, pred):
        a = banded_random(40, 3, 5, seed=1)
        bad = FaultInjector(seed=9).corrupt_values(a, n=4, kind=kind)
        assert int(pred(bad.data).sum()) == 4

    def test_corrupt_indices_go_out_of_range(self):
        a = banded_random(40, 3, 5, seed=1)
        bad = FaultInjector(seed=9).corrupt_indices(a, n=2)
        assert int((bad.indices >= a.shape[1]).sum()) == 2

    def test_poison_vector(self):
        x = np.ones(30)
        inj = FaultInjector(seed=4)
        y = inj.poison_vector(x, n=3, kind="nan")
        assert int(np.isnan(y).sum()) == 3
        assert not np.isnan(x).any()
        z = inj.poison_vector(x, n=2, kind="inf")
        assert int(np.isinf(z).sum()) == 2

    def test_unknown_kind_rejected(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.corrupt_values(banded_random(10, 2, 3, seed=0), kind="wat")
        with pytest.raises(ValueError):
            inj.poison_vector(np.ones(3), kind="wat")


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_fire_is_noop_when_inactive(self):
        fire("executor.task", color=0)  # nothing active: must not raise

    def test_activation_scoped_by_context_manager(self):
        inj = FaultInjector().install("site", RaiseFault())
        with inj:
            assert inj in active_injectors()
            with pytest.raises(InjectedFault) as ei:
                fire("site")
            assert ei.value.site == "site"
        assert inj not in active_injectors()
        fire("site")  # deactivated: silent

    def test_times_budget(self):
        fault = RaiseFault(times=2)
        inj = FaultInjector().install("s", fault)
        with inj:
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fire("s")
            fire("s")  # budget exhausted
        assert fault.fired == 2

    def test_match_restricts_context(self):
        inj = FaultInjector().install(
            "s", RaiseFault(times=None, match={"color": 2}))
        with inj:
            fire("s", color=0)
            fire("s")  # key absent: no match
            with pytest.raises(InjectedFault):
                fire("s", color=2, thread=1)

    def test_custom_exception_class_and_instance(self):
        inj = FaultInjector().install("a", RaiseFault(exc=OSError))
        inj.install("b", RaiseFault(exc=KeyError("boom")))
        with inj:
            with pytest.raises(OSError, match="injected fault"):
                fire("a")
            with pytest.raises(KeyError):
                fire("b")

    def test_clear(self):
        inj = FaultInjector().install("s", RaiseFault(times=None))
        inj.clear("s")
        with inj:
            fire("s")
        inj.install("s", RaiseFault(times=None)).clear()
        with inj:
            fire("s")


# ---------------------------------------------------------------------------
# executor failure containment
# ---------------------------------------------------------------------------
def _toy_batch(n=32, block=8):
    tasks = [BlockTask(s, min(s + block, n), block)
             for s in range(0, n, block)]
    return DescriptorBatch.from_phases(
        [Phase(color=c, tasks=[t]) for c, t in enumerate(tasks)])


def _rows(batch, g):
    return int(batch.starts[g]), int(batch.stops[g])


class TestExecutorContainment:
    def test_crash_yields_typed_error_with_context(self):
        y = np.zeros(32)
        batch = _toy_batch()

        def run(g):
            start, stop = _rows(batch, g)
            y[start:stop] += 1

        inj = FaultInjector().install(
            "executor.task", RaiseFault(match={"color": 2}))
        ex = ThreadedPhaseExecutor(n_threads=2)
        with inj, pytest.raises(PhaseExecutionError) as ei:
            ex.run_batched(batch, run)
        err = ei.value
        assert err.phase_index == 2
        assert err.color == 2
        assert err.block == (16, 24)
        assert isinstance(err.__cause__, InjectedFault)
        assert "colour 2" in str(err)
        assert isinstance(err, RuntimeError)  # backward-compat
        # Pool shut down by the failure path; y untouched past the crash.
        assert ex._pool is None
        assert np.array_equal(y[:16], np.ones(16))
        assert np.array_equal(y[24:], np.zeros(8))

    def test_barrier_drains_other_bins(self):
        """The failure must not propagate before concurrently running
        workers finish — no orphaned writers into caller state."""
        done = []
        batch = DescriptorBatch.from_phases(
            [Phase(color=0, tasks=[BlockTask(0, 8, 8),
                                   BlockTask(8, 16, 8)])])

        def run(g):
            done.append(_rows(batch, g)[0])

        inj = FaultInjector()
        inj.install("executor.task",
                    RaiseFault(match={"start": 0}))
        inj.install("executor.task", DelayFault(0.05, match={"start": 8}))
        # Two blocks over two workers: the default chunk is one block,
        # so each worker claims one of them.
        assert default_claim_chunk(2, 2) == 1
        ex = ThreadedPhaseExecutor(n_threads=2)
        with inj, pytest.raises(PhaseExecutionError):
            ex.run_batched(batch, run)
        assert 8 in done  # the delayed sibling block completed

    def test_delay_fault_slows_but_never_corrupts(self):
        y = np.zeros(32)
        batch = _toy_batch()

        def run(g):
            start, stop = _rows(batch, g)
            y[start:stop] = start

        inj = FaultInjector().install(
            "executor.task", DelayFault(0.01, times=2))
        with ThreadedPhaseExecutor(n_threads=2) as ex, inj:
            stats = ex.run_batched(batch, run)
        expect = np.repeat(np.arange(0, 32, 8), 8)
        assert np.array_equal(y, expect)
        assert stats.barriers == 4

    def test_fallback_serial_with_reset(self):
        y = np.zeros(32)
        batch = _toy_batch()

        def run(g):
            start, stop = _rows(batch, g)
            y[start:stop] += start + 1

        def reset():
            y[:] = 0.0

        ThreadedPhaseExecutor(n_threads=1).run_serial_batch(batch, run)
        ref = y.copy()
        reset()
        inj = FaultInjector().install("executor.task", RaiseFault(times=1))
        ex = ThreadedPhaseExecutor(n_threads=2,
                                   on_failure="fallback_serial")
        with inj:
            stats = ex.run_batched(batch, run, reset=reset)
        assert np.array_equal(y, ref)  # bit-identical to clean serial
        # Stats reflect only the serial rerun, not the aborted attempt.
        assert stats.barriers == 4
        assert len(stats.phases) == 4

    def test_fallback_without_reset_raises(self):
        inj = FaultInjector().install("executor.task", RaiseFault(times=1))
        ex = ThreadedPhaseExecutor(n_threads=2,
                                   on_failure="fallback_serial")
        with inj, pytest.raises(PhaseExecutionError):
            ex.run_batched(_toy_batch(), lambda g: None)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="on_failure"):
            ThreadedPhaseExecutor(n_threads=1, on_failure="retry")


# ---------------------------------------------------------------------------
# operator-level fault campaign
# ---------------------------------------------------------------------------
class TestOperatorFaults:
    @pytest.fixture
    def a(self):
        return banded_random(96, 5, 9, symmetric=True, seed=6)

    def test_crash_in_threaded_power_raises_and_closes(self, a):
        op = build_fbmpk_operator(a, strategy="abmc", block_size=8,
                                  executor="threads", n_threads=2)
        x = np.ones(a.n_rows)
        inj = FaultInjector().install("executor.task", RaiseFault())
        with inj, pytest.raises(PhaseExecutionError):
            op.power(x, 3)
        assert not _fbmpk_threads()

    def test_fallback_serial_bit_identical(self, a):
        x = np.random.default_rng(0).standard_normal(a.n_rows)
        serial = build_fbmpk_operator(a, strategy="abmc", block_size=8)
        want = serial.power(x.copy(), 3)
        op = build_fbmpk_operator(a, strategy="abmc", block_size=8,
                                  executor="threads", n_threads=2,
                                  on_failure="fallback_serial")
        inj = FaultInjector().install("executor.task", RaiseFault(times=1))
        with inj, pytest.warns(RuntimeWarning, match="recomputing serially"):
            got = op.power(x.copy(), 3)
        op.close()
        assert np.array_equal(got, want)

    def test_poisoned_input_caught_by_check_finite(self, a):
        op = build_fbmpk_operator(a)
        x = FaultInjector(seed=3).poison_vector(np.ones(a.n_rows), n=2)
        with pytest.raises(NonFiniteError, match="input vector x"):
            op.power(x, 2, check_finite=True)

    def test_corrupt_matrix_caught_at_first_iterate(self, a):
        bad = FaultInjector(seed=3).corrupt_values(a, n=1, kind="nan")
        op = build_fbmpk_operator(bad)
        x = np.ones(bad.n_rows)
        with pytest.raises(NonFiniteError, match="iterate"):
            op.power(x, 3, check_finite=True)
        # Unguarded: the same run silently produces NaN — the exact
        # failure mode the guard exists for.
        assert np.isnan(build_fbmpk_operator(bad).power(x, 3)).any()

    def test_power_block_check_finite(self, a):
        bad = FaultInjector(seed=3).corrupt_values(a, n=1, kind="inf")
        op = build_fbmpk_operator(bad)
        X = np.ones((bad.n_rows, 2))
        with pytest.raises(NonFiniteError):
            op.power_block(X, 3, check_finite=True)
