"""Differential tests of the shared-memory process-pool executor.

The contract under test: ``executor="processes"`` must produce
**bit-for-bit** the serial fused pipeline's result for every assignment
policy and worker count — workers run the identical per-row
``reduce_rows`` arithmetic over the *same physical memory* (the
shared-memory arena), and phases only reorder independent work.  As in
the threaded suite, ``np.array_equal`` therefore doubles as a race
detector across process boundaries: a stale mapping, a dropped
descriptor, or a missed barrier perturbs at least one summand.

On top of the differential layer this module exercises what only a
process backend can break: a SIGKILL'd worker (dead-worker detection,
``fallback_serial`` recovery, pool respawn) and the shared-memory
lifecycle (no ``/dev/shm`` residue after close, crash paths, or a
process that exits without cleaning up).

The default worker count is 2 and can be widened via the
``REPRO_PROC_WORKERS`` environment variable (the CI differential step
pins it to 2 explicitly).
"""

import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core import FBMPKOperator, build_fbmpk_operator
from repro.core.partition import split_ldu
from repro.matrices import banded_random, poisson2d
from repro.parallel import (
    BlockTask,
    Phase,
    PhaseExecutionError,
    ProcessPhaseExecutor,
    SharedArena,
)
from repro.parallel.procexec import SHM_PREFIX
from repro.robust.faults import FaultInjector, RaiseFault

POLICIES = ["round_robin", "lpt", "dynamic"]
KS = [1, 2, 3, 4, 5, 6]
BLOCK = 8
N_WORKERS = int(os.environ.get("REPRO_PROC_WORKERS", "2"))


def shm_residue():
    """Names of live segments this backend created."""
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SHM_PREFIX)}
    except FileNotFoundError:  # non-Linux: rely on finalizers only
        return set()


@pytest.fixture
def shm_leaked():
    """Segments created during the test that outlive it.

    Module-scoped operator fixtures keep their arenas legitimately open
    across tests, so leak checks must be deltas against a baseline, not
    absolute ``/dev/shm`` emptiness.
    """
    base = shm_residue()
    return lambda: shm_residue() - base


def _matrices():
    return {
        "sym": banded_random(110, 6, 11, symmetric=True, seed=11),
        "unsym": banded_random(97, 5, 9, symmetric=False, seed=12),
        "grid": poisson2d(9, seed=13),
    }


@pytest.fixture(scope="module")
def matrices():
    return _matrices()


@pytest.fixture(scope="module")
def x_vectors(matrices):
    return {name: np.random.default_rng(100 + i).standard_normal(a.n_rows)
            for i, (name, a) in enumerate(matrices.items())}


@pytest.fixture(scope="module")
def serial_results(matrices, x_vectors):
    """Serial fused results, the bitwise oracle: one per (matrix, k)."""
    out = {}
    for name, a in matrices.items():
        op = build_fbmpk_operator(a, block_size=BLOCK)
        for k in KS:
            out[name, k] = op.power(x_vectors[name], k)
    return out


@pytest.fixture(scope="module")
def process_ops(matrices):
    """Process-backed operators cached per (matrix, policy) — pools are
    persistent, so the whole module reuses a handful of worker sets."""
    cache = {}

    def get(name, policy):
        key = (name, policy)
        if key not in cache:
            cache[key] = build_fbmpk_operator(
                matrices[name], block_size=BLOCK, executor="processes",
                n_threads=N_WORKERS, assign_policy=policy)
        return cache[key]

    yield get
    for op in cache.values():
        op.close()


class TestDifferential:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("name", ["sym", "unsym", "grid"])
    def test_processes_match_serial_bitwise(self, name, k, policy,
                                            process_ops, x_vectors,
                                            serial_results):
        op = process_ops(name, policy)
        y = op.power(x_vectors[name], k)
        np.testing.assert_array_equal(y, serial_results[name, k])

    def test_more_workers_than_blocks(self, matrices, x_vectors,
                                      serial_results):
        """Workers far beyond the block count: most bins stay empty
        every phase, the rest must still cover all blocks."""
        with build_fbmpk_operator(matrices["grid"], block_size=32,
                                  executor="processes", n_threads=6) as op:
            y = op.power(x_vectors["grid"], 4)
        serial = build_fbmpk_operator(matrices["grid"], block_size=32)
        np.testing.assert_array_equal(y, serial.power(x_vectors["grid"], 4))

    def test_levels_strategy(self, matrices, x_vectors):
        a = matrices["grid"]
        serial = build_fbmpk_operator(a, strategy="levels")
        with build_fbmpk_operator(a, strategy="levels",
                                  executor="processes",
                                  n_threads=N_WORKERS) as op:
            for k in (1, 4, 5):
                np.testing.assert_array_equal(
                    op.power(x_vectors["grid"], k),
                    serial.power(x_vectors["grid"], k))

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    @pytest.mark.parametrize("k", [1, 4, 5])
    def test_power_block_matches_serial(self, matrices, process_ops, m, k):
        """Block sweeps cover both SpMM width branches (2m <= 4 uses the
        per-column kernel, wider blocks the 2-D reduction)."""
        a = matrices["sym"]
        X = np.random.default_rng(50 + m).standard_normal((a.n_rows, m))
        serial = build_fbmpk_operator(a, block_size=BLOCK)
        op = process_ops("sym", "lpt")
        np.testing.assert_array_equal(op.power_block(X, k),
                                      serial.power_block(X, k))

    def test_on_iterate_matches_serial(self, matrices, x_vectors):
        a = matrices["sym"]
        x = x_vectors["sym"]
        serial_seen, proc_seen = {}, {}
        build_fbmpk_operator(a, block_size=BLOCK).power(
            x, 5, on_iterate=lambda i, xi: serial_seen.setdefault(i, xi))
        with build_fbmpk_operator(a, block_size=BLOCK,
                                  executor="processes",
                                  n_threads=N_WORKERS) as op:
            op.power(x, 5,
                     on_iterate=lambda i, xi: proc_seen.setdefault(i, xi))
        assert sorted(serial_seen) == sorted(proc_seen) == [1, 2, 3, 4, 5]
        for i in serial_seen:
            np.testing.assert_array_equal(serial_seen[i], proc_seen[i])

    def test_out_param_is_filled_in_place(self, matrices, x_vectors,
                                          serial_results):
        with build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="processes",
                                  n_threads=N_WORKERS) as op:
            out = np.empty(matrices["sym"].n_rows)
            y = op.power(x_vectors["sym"], 4, out=out)
            assert y is out
            np.testing.assert_array_equal(out, serial_results["sym", 4])


class TestDeterminism:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_repeated_runs_bitwise_identical(self, process_ops, x_vectors,
                                             serial_results, policy):
        x = x_vectors["grid"]
        op = process_ops("grid", policy)
        first = op.power(x, 5)
        np.testing.assert_array_equal(first, serial_results["grid", 5])
        for _ in range(9):
            np.testing.assert_array_equal(op.power(x, 5), first)

    def test_worker_count_does_not_change_bits(self, matrices, x_vectors):
        x = x_vectors["unsym"]
        results = []
        for nt in (1, 3):
            with build_fbmpk_operator(matrices["unsym"], block_size=BLOCK,
                                      executor="processes",
                                      n_threads=nt) as op:
                results.append(op.power(x, 6))
        np.testing.assert_array_equal(results[0], results[1])


class TestFailureContainment:
    def _operator(self, matrices, **kw):
        return build_fbmpk_operator(matrices["grid"], block_size=BLOCK,
                                    executor="processes",
                                    n_threads=2, **kw)

    def test_sigkilled_worker_raises_with_context(self, matrices,
                                                  x_vectors, shm_leaked):
        op = self._operator(matrices)
        op.power(x_vectors["grid"], 2)  # spawn the pool
        pids = op._procs.pool.start()
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.05)
        with pytest.raises(PhaseExecutionError, match="died"):
            op.power(x_vectors["grid"], 2)
        op.close()
        assert shm_leaked() == set()

    def test_sigkilled_worker_fallback_serial(self, matrices, x_vectors,
                                              serial_results, shm_leaked):
        op = self._operator(matrices, on_failure="fallback_serial")
        y0 = op.power(x_vectors["grid"], 4)
        np.testing.assert_array_equal(y0, serial_results["grid", 4])
        pids = op._procs.pool.start()
        os.kill(pids[1], signal.SIGKILL)
        time.sleep(0.05)
        with pytest.warns(RuntimeWarning, match="fallback_serial"):
            y1 = op.power(x_vectors["grid"], 4)
        np.testing.assert_array_equal(y1, serial_results["grid", 4])
        # The pool respawns transparently on the next call.
        y2 = op.power(x_vectors["grid"], 4)
        np.testing.assert_array_equal(y2, serial_results["grid", 4])
        assert op.last_stats is not None and op.last_stats.barriers > 0
        op.close()
        assert shm_leaked() == set()

    def test_injected_dispatch_fault_raises(self, matrices, x_vectors,
                                            shm_leaked):
        """The "executor.task" chaos hook fires parent-side at dispatch;
        a RaiseFault there aborts the phase with full context after the
        barrier has drained."""
        op = self._operator(matrices)
        inj = FaultInjector().install("executor.task", RaiseFault(times=1))
        with inj:
            with pytest.raises(PhaseExecutionError, match="injected"):
                op.power(x_vectors["grid"], 2)
        op.close()
        assert shm_leaked() == set()

    def test_injected_dispatch_fault_fallback(self, matrices, x_vectors,
                                              serial_results):
        op = self._operator(matrices, on_failure="fallback_serial")
        inj = FaultInjector().install("executor.task", RaiseFault(times=1))
        with inj:
            with pytest.warns(RuntimeWarning, match="fallback_serial"):
                y = op.power(x_vectors["grid"], 4)
        np.testing.assert_array_equal(y, serial_results["grid", 4])
        op.close()

    def test_worker_crash_carries_context_and_pickles(self, matrices,
                                                      shm_leaked):
        """An exception raised inside a worker crosses the process
        boundary chained into a PhaseExecutionError whose scheduling
        context survives a further pickle round-trip."""
        part = split_ldu(matrices["grid"])
        n = part.n
        phases = [Phase(color=0, tasks=(BlockTask(0, n, part.lower.nnz),))]
        with ProcessPhaseExecutor(part, n_workers=2,
                                  task_hook=_hook_boom) as ex:
            with pytest.raises(PhaseExecutionError,
                               match="hook boom") as info:
                ex.run_batched(ex.register_phases(phases, "forward"), "forward")
        err = info.value
        assert err.phase_index == 0 and err.color == 0
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, PhaseExecutionError)
        assert clone.phase_index == err.phase_index
        assert clone.color == err.color
        assert clone.block == err.block
        assert clone.thread == err.thread
        assert shm_leaked() == set()

    def test_block_call_fallback_serial(self, matrices, serial_results,
                                        shm_leaked):
        op = self._operator(matrices, on_failure="fallback_serial")
        a = matrices["grid"]
        X = np.random.default_rng(5).standard_normal((a.n_rows, 2))
        serial = build_fbmpk_operator(a, block_size=BLOCK)
        ref = serial.power_block(X, 4)
        np.testing.assert_array_equal(op.power_block(X, 4), ref)
        pids = op._procs.pool.start()
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.05)
        with pytest.warns(RuntimeWarning, match="fallback_serial"):
            np.testing.assert_array_equal(op.power_block(X, 4), ref)
        op.close()
        assert shm_leaked() == set()


def _hook_boom(**ctx):
    """Module-level (hence picklable) in-worker chaos hook."""
    raise RuntimeError("hook boom")


class TestSharedMemoryLifecycle:
    def test_close_unlinks_everything(self, matrices, x_vectors,
                                      shm_leaked):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="processes", n_threads=2)
        op.power(x_vectors["sym"], 4)
        op.power_block(np.ones((matrices["sym"].n_rows, 2)), 2)
        assert shm_leaked() != set()  # arena is live while the op is open
        op.close()
        assert shm_leaked() == set()
        # Idempotent, and the operator remains usable afterwards.
        op.close()
        y = op.power(x_vectors["sym"], 2)
        op.close()
        assert shm_leaked() == set()

    def test_block_regrow_reallocates_segments(self, matrices, shm_leaked):
        """Changing m drops the old block segments before creating the
        new ones — segment count stays bounded across reshapes."""
        a = matrices["sym"]
        with build_fbmpk_operator(a, block_size=BLOCK,
                                  executor="processes",
                                  n_threads=2) as op:
            serial = build_fbmpk_operator(a, block_size=BLOCK)
            for m in (4, 1, 3):
                X = np.random.default_rng(m).standard_normal((a.n_rows, m))
                np.testing.assert_array_equal(op.power_block(X, 4),
                                              serial.power_block(X, 4))
                # 9 core + hb + 3 span rings + 4 dispatch slabs
                # (ctrl/wdone/wsteal/wbusy) + 2 descriptor plans
                # (fw/bw) + xyb + tmpb
                assert len(shm_leaked()) == 21
        assert shm_leaked() == set()

    def test_width_changes_without_a_phase_keep_old_segments(
            self, matrices, shm_leaked):
        """Two width changes with no phase between them (``k=1``
        dispatches none) queue two rebinds a stopped worker has not
        read; the older segments must stay linked until it has, so the
        worker attaches both and the next block call is bitwise equal
        to serial with no worker death."""
        a = matrices["sym"]
        serial = build_fbmpk_operator(a, block_size=BLOCK)
        rng = np.random.default_rng(7)
        X1 = rng.standard_normal((a.n_rows, 1))
        X5 = rng.standard_normal((a.n_rows, 5))
        with build_fbmpk_operator(a, block_size=BLOCK,
                                  executor="processes",
                                  n_threads=2) as op:
            op.power_block(X1, 4)
            pool = op._procs.pool
            pids = pool.start()
            os.kill(pids[1], signal.SIGSTOP)
            try:
                op.power_block(X5, 1)
                pool.ensure_block(1)
            finally:
                os.kill(pids[1], signal.SIGCONT)
            np.testing.assert_array_equal(op.power_block(X1, 4),
                                          serial.power_block(X1, 4))
            assert pool.start() == pids
            assert pool.worker_liveness() == [True, True]
        assert shm_leaked() == set()

    def test_arena_finalizer_runs_on_gc(self, shm_leaked):
        arena = SharedArena()
        arena.add("x", np.zeros(8))
        assert len(shm_leaked()) == 1
        del arena
        import gc

        gc.collect()
        assert shm_leaked() == set()

    def test_unlink_survives_process_exit_without_close(self, tmp_path,
                                                        shm_leaked):
        """A process that builds a pool and exits without calling close
        must still leave /dev/shm clean (finalizer doubles as an atexit
        hook)."""
        script = tmp_path / "leaky.py"
        script.write_text(
            "import numpy as np\n"
            "from repro.matrices import poisson2d\n"
            "from repro.core import build_fbmpk_operator\n"
            "a = poisson2d(8, seed=1)\n"
            "op = build_fbmpk_operator(a, block_size=8,"
            " executor='processes', n_threads=2)\n"
            "y = op.power(np.ones(a.n_rows), 4)\n"
            "print('done', float(y.sum()))\n"  # exit WITHOUT op.close()
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        res = subprocess.run([sys.executable, str(script)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert "done" in res.stdout
        assert shm_leaked() == set()

    def test_segments_survive_sigkilled_worker(self, matrices, x_vectors,
                                               shm_leaked):
        """Killing a worker must not take the arena down with it — the
        parent owns the segments and cleans them up at close."""
        op = build_fbmpk_operator(matrices["grid"], block_size=BLOCK,
                                  executor="processes", n_threads=2,
                                  on_failure="fallback_serial")
        op.power(x_vectors["grid"], 2)
        pids = op._procs.pool.start()
        os.kill(pids[0], signal.SIGKILL)
        time.sleep(0.05)
        with pytest.warns(RuntimeWarning):
            op.power(x_vectors["grid"], 2)
        op.close()
        assert shm_leaked() == set()


class TestObservability:
    def test_stats_shape(self, matrices, x_vectors):
        k = 6
        with build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="processes",
                                  n_threads=2) as op:
            fw, bw = op.block_phases()
            op.power(x_vectors["sym"], k)
            stats = op.last_stats
        assert stats is not None
        assert stats.n_threads == 2 and stats.policy == "lpt"
        assert stats.barriers == (len(fw) + len(bw)) * (k // 2)
        assert len(stats.phases) == stats.barriers
        assert all(w >= 0.0 for w in stats.phase_wall_s)
        assert len(stats.thread_busy_s) == 2
        assert stats.busy_s > 0.0
        assert stats.efficiency > 0.0
        fw_nnz = sum(p.nnz for p in stats.phases[:len(fw)])
        assert fw_nnz == op.part.lower.nnz

    def test_executor_phase_spans_emitted(self, matrices, x_vectors):
        from repro import obs

        with build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="processes",
                                  n_threads=2) as op:
            with obs.Telemetry() as tel:
                op.power(x_vectors["sym"], 2)
            modes = {r.attrs.get("mode") for r in tel.recorder.records()
                     if r.name == "executor.phase"}
            assert modes == {"processes"}
            snap = tel.metrics.snapshot()
            assert snap["counters"]["executor.barriers"]["value"] > 0

    def test_serial_run_clears_stats(self, matrices, x_vectors):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="processes", n_threads=2)
        op.power(x_vectors["sym"], 2)
        assert op.last_stats is not None
        op.configure_executor(executor="serial")
        op.power(x_vectors["sym"], 2)
        assert op.last_stats is None
        op.close()


class TestLifecycle:
    def test_configure_switches_between_all_backends(self, matrices,
                                                     x_vectors,
                                                     serial_results,
                                                     shm_leaked):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK)
        x = x_vectors["sym"]
        for backend in ("processes", "threads", "serial", "processes"):
            op.configure_executor(executor=backend, n_threads=2)
            np.testing.assert_array_equal(op.power(x, 4),
                                          serial_results["sym", 4])
        op.close()
        assert shm_leaked() == set()

    def test_save_load_processes(self, matrices, x_vectors, serial_results,
                                 tmp_path, shm_leaked):
        path = tmp_path / "op.npz"
        build_fbmpk_operator(matrices["sym"], block_size=BLOCK).save(path)
        with FBMPKOperator.load(path, executor="processes",
                                n_threads=2) as op:
            y = op.power(x_vectors["sym"], 5)
        np.testing.assert_array_equal(y, serial_results["sym", 5])
        assert shm_leaked() == set()

    def test_executor_rejects_bad_worker_count(self, matrices):
        part = split_ldu(matrices["sym"])
        with pytest.raises(ValueError, match="n_workers"):
            ProcessPhaseExecutor(part, n_workers=0)

    def test_executor_rejects_unpicklable_hook(self, matrices):
        part = split_ldu(matrices["sym"])
        with pytest.raises(ValueError, match="picklable"):
            ProcessPhaseExecutor(part, n_workers=1,
                                 task_hook=lambda **kw: None)

    def test_executor_rejects_unknown_sweep(self, matrices):
        part = split_ldu(matrices["sym"])
        with ProcessPhaseExecutor(part, n_workers=1) as ex:
            with pytest.raises(ValueError, match="sweep"):
                ex.run_batched(ex.register_phases([], "forward"), "sideways")
