"""Executor watchdogs: a worker that hangs (rather than dies) must not
wedge a sweep forever.

Process pools: workers stamp a shared-memory heartbeat slab per block;
the dispatcher's bounded barrier wait detects a worker that is alive
but silent past ``hang_timeout``, SIGKILLs it, and the existing
dead-worker machinery (teardown, lazy respawn, ``fallback_serial``)
takes over.  ``SIGSTOP`` is the canonical hang: the process is alive,
consumes no CPU, and responds to nothing but SIGKILL.

Thread pools: Python threads cannot be killed, so a bin still running
``hang_timeout`` seconds after the phase barrier was entered fails the
phase and the *pool* is abandoned — daemon worker threads keep the hung
kernel from blocking interpreter exit, and the operator drops its
persistent buffers so an abandoned zombie writer can no longer touch
memory any later sweep reads."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.matrices import poisson2d
from repro.parallel import PhaseExecutionError
from repro.parallel.procexec import SHM_PREFIX
from repro.robust.faults import FaultInjector, HangFault

BLOCK = 8


def shm_residue():
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SHM_PREFIX)}
    except FileNotFoundError:  # non-Linux
        return set()


@pytest.fixture
def shm_leaked():
    base = shm_residue()
    return lambda: shm_residue() - base


@pytest.fixture(scope="module")
def grid():
    return poisson2d(9, seed=3)


@pytest.fixture(scope="module")
def x(grid):
    return np.random.default_rng(8).standard_normal(grid.n_rows)


@pytest.fixture(scope="module")
def serial_ref(grid, x):
    with build_fbmpk_operator(grid, block_size=BLOCK) as op:
        return {k: op.power(x.copy(), k) for k in (2, 4)}


# -- process pool: SIGSTOP -------------------------------------------------
class TestProcessWatchdog:
    def _operator(self, grid, **kw):
        kw.setdefault("hang_timeout", 1.0)
        return build_fbmpk_operator(grid, block_size=BLOCK,
                                    executor="processes", n_threads=2,
                                    **kw)

    def test_sigstopped_worker_detected_and_killed(self, grid, x,
                                                   shm_leaked):
        op = self._operator(grid)
        op.power(x.copy(), 2)  # spawn the pool
        pids = op._pool.start()
        os.kill(pids[0], signal.SIGSTOP)
        t0 = time.monotonic()
        with pytest.raises(PhaseExecutionError, match="watchdog"):
            op.power(x.copy(), 2)
        elapsed = time.monotonic() - t0
        # Bounded: hang_timeout plus scan/kill slack, nowhere near a
        # barrier that waits forever.
        assert elapsed < 10.0
        op.close()
        assert shm_leaked() == set()

    def test_sigstopped_worker_fallback_serial_bitwise(self, grid, x,
                                                       serial_ref,
                                                       shm_leaked):
        op = self._operator(grid, on_failure="fallback_serial")
        y0 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y0, serial_ref[4])
        pids = op._pool.start()
        os.kill(pids[1], signal.SIGSTOP)
        with pytest.warns(RuntimeWarning, match="fallback_serial"):
            y1 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y1, serial_ref[4])
        # The pool respawns transparently and parallel service resumes.
        y2 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y2, serial_ref[4])
        op.close()
        assert shm_leaked() == set()

    def test_in_worker_hang_fault_detected(self, grid, x, serial_ref,
                                           shm_leaked):
        """A HangFault at the in-worker ``procexec.heartbeat`` site
        stalls a worker between its heartbeat stamp and the kernel —
        exactly the silent-worker shape the watchdog exists for.

        Fault state is inherited per-worker at fork, so the injector
        must be active when the pool spawns: each worker gets its own
        ``times=1`` copy and stalls on its first block."""
        op = self._operator(grid, on_failure="fallback_serial")
        inj = FaultInjector().install(
            "procexec.heartbeat", HangFault(seconds=None, times=1))
        with inj:
            with pytest.warns(RuntimeWarning, match="fallback_serial"):
                y = op.power(x.copy(), 2)
        np.testing.assert_array_equal(y, serial_ref[2])
        # The respawned pool (spawned outside the injector) is clean.
        y2 = op.power(x.copy(), 2)
        np.testing.assert_array_equal(y2, serial_ref[2])
        op.close()
        assert shm_leaked() == set()

    def test_hang_timeout_validation(self, grid):
        with pytest.raises(ValueError, match="hang_timeout"):
            build_fbmpk_operator(grid, executor="processes",
                                 n_threads=2, hang_timeout=0.0)

    def test_worker_health_reports_liveness(self, grid, x):
        op = self._operator(grid)
        health = op.worker_health()
        assert health["hang_timeout_s"] == 1.0
        assert health["process_workers"] is None  # pool not spawned yet
        op.power(x.copy(), 2)
        health = op.worker_health()
        assert health["process_workers"] == [True, True]
        op.close()


# -- thread pool: bounded phase barrier ------------------------------------
class TestThreadedWatchdog:
    def _operator(self, grid, **kw):
        kw.setdefault("hang_timeout", 0.5)
        return build_fbmpk_operator(grid, block_size=BLOCK,
                                    executor="threads", n_threads=2,
                                    **kw)

    def test_hung_bin_fails_phase_within_bound(self, grid, x):
        op = self._operator(grid)
        inj = FaultInjector().install("executor.task",
                                      HangFault(seconds=30.0, times=1))
        t0 = time.monotonic()
        with inj:
            with pytest.raises(PhaseExecutionError,
                               match="still running"):
                op.power(x.copy(), 2)
        assert time.monotonic() - t0 < 10.0
        op.close()

    def test_hung_bin_fallback_serial_bitwise(self, grid, x,
                                              serial_ref):
        op = self._operator(grid, on_failure="fallback_serial")
        y0 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y0, serial_ref[4])
        inj = FaultInjector().install("executor.task",
                                      HangFault(seconds=30.0, times=1))
        with inj:
            with pytest.warns(RuntimeWarning, match="fallback_serial"):
                y1 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y1, serial_ref[4])
        # A fresh pool serves the next call; the abandoned one is gone.
        y2 = op.power(x.copy(), 4)
        np.testing.assert_array_equal(y2, serial_ref[4])
        op.close()

    def test_no_hang_timeout_keeps_plain_pool(self, grid, x,
                                              serial_ref):
        with build_fbmpk_operator(grid, block_size=BLOCK,
                                  executor="threads",
                                  n_threads=2) as op:
            np.testing.assert_array_equal(op.power(x.copy(), 2),
                                          serial_ref[2])
