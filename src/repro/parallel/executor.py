"""Real shared-memory execution of colour phases (Section III-D/E).

Where :mod:`repro.parallel.simthread` *predicts* what a ``T``-thread
execution of a phase schedule would cost, this module actually *runs*
one: a phase's blocks, packed into a
:class:`~repro.parallel.dispatch.DescriptorBatch` in the order of the
simulator's assignment policies (``round_robin``/``lpt``/``dynamic``),
are claimed in chunks by the workers of a persistent
:class:`concurrent.futures.ThreadPoolExecutor`, and the phase ends with
one barrier — the "allocated in advance" OpenMP structure of the
paper's parallel FBMPK with dynamic claiming on top.

Python threads are real OS threads here: the compiled CSR loop that
does the per-block work (:mod:`repro.core.kernels`) releases the GIL,
so same-colour blocks genuinely overlap on multicore hosts.  On a single
vCPU (or for tiny blocks, where interpreter overhead dominates) the
executor still runs the *true* concurrent schedule — which is what the
differential tests need in order to flush ordering and barrier bugs that
a simulator can never exhibit.

Observability is first class: :class:`ExecutionStats` records per-phase
wall time, per-thread busy time and the barrier count of a run, in the
same shape as :class:`repro.parallel.simthread.SimulatedRun`, so a real
run can be laid next to a ``simulate_phases`` prediction
(``benchmarks/bench_threaded_executor.py`` does exactly that).  When a
:class:`repro.obs.Telemetry` session is active, every executed phase
additionally emits an ``executor.phase`` span (attributes ``phase``,
``colour``, ``n_tasks``, ``nnz``, ``mode``) and the
``executor.barriers``/``executor.tasks``/``executor.phase_wall_s``
metrics; :class:`ExecutionStats` remains the derived per-run view.
Injected chaos delays are excluded from ``thread_busy_s`` and booked
under the ``faults.injected_delay_s`` counter instead.

Failure containment: a crashed block task aborts its phase with a typed
:class:`~repro.robust.errors.PhaseExecutionError` carrying the full
scheduling context (phase, colour, block row range, thread bin).  The
barrier *always* drains — every submitted bin is awaited before the
error propagates — and the pool is shut down before raising, so a failed
run can never leak worker threads or deadlock a barrier.  The
``on_failure="fallback_serial"`` policy additionally re-runs the whole
call serially from a caller-provided state snapshot, bit-identical to a
clean serial run.  Each task is preceded by the ``"executor.task"``
chaos hook of :mod:`repro.robust.faults`, which the fault-injection
suite uses to crash and delay workers on demand.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import obs
from ..robust.errors import PhaseExecutionError
from ..robust.faults import fire_timed as _fire_fault_timed
from ..core import kernels
from ..sparse.csr import CSRMatrix
from .dispatch import DescriptorBatch, ThreadCursor, default_claim_chunk
from .scheduler import BlockTask, Phase

__all__ = [
    "PhaseRecord",
    "ExecutionStats",
    "PhaseExecutionError",
    "ThreadedPhaseExecutor",
    "check_phases",
    "spawn_daemon_pool",
]

#: Batched-mode task runner: called with a *global descriptor index*
#: into the :class:`~repro.parallel.dispatch.DescriptorBatch`.
DescRunner = Callable[[int], None]


@dataclass(frozen=True)
class PhaseRecord:
    """Timing record of one executed phase (colour)."""

    color: int
    n_tasks: int
    nnz: int
    wall_s: float


@dataclass
class ExecutionStats:
    """Observed timings of a real threaded run.

    The counterpart of :class:`repro.parallel.simthread.SimulatedRun`:
    ``phase_wall_s`` are measured per-phase makespans (work plus the
    closing barrier), ``thread_busy_s[i]`` accumulates the time *bin*
    ``i`` of the static assignment spent inside block kernels (bins map
    one-to-one onto the simulator's threads; the pool may hand a bin to
    any free OS thread), and ``barriers`` counts phase-end
    synchronisations.
    """

    n_threads: int
    policy: str
    phases: List[PhaseRecord] = field(default_factory=list)
    thread_busy_s: List[float] = field(default_factory=list)
    barriers: int = 0
    #: Dispatch messages sent (batched path: one per phase per worker;
    #: legacy path leaves this at 0 — it predates the counter).
    enqueues: int = 0
    #: Cursor chunk claims performed by workers (batched path only).
    steals: int = 0

    def __post_init__(self) -> None:
        if not self.thread_busy_s:
            self.thread_busy_s = [0.0] * self.n_threads

    @property
    def phase_wall_s(self) -> List[float]:
        """Per-phase wall times, in execution order."""
        return [p.wall_s for p in self.phases]

    @property
    def total_wall_s(self) -> float:
        """End-to-end makespan of the recorded phases."""
        return sum(p.wall_s for p in self.phases)

    @property
    def busy_s(self) -> float:
        """Total thread-seconds spent inside block kernels."""
        return float(sum(self.thread_busy_s))

    @property
    def efficiency(self) -> float:
        """Busy thread-seconds over available thread-seconds (load
        balance measure, directly comparable to
        :attr:`SimulatedRun.efficiency`).  A run with no recorded wall
        time (empty phase list) has used no thread-seconds, so its
        efficiency is defined as 0.0 rather than risking a division by
        zero."""
        denom = self.n_threads * self.total_wall_s
        return self.busy_s / denom if denom else 0.0


def check_phases(tri: CSRMatrix, phases: Sequence[Phase]) -> bool:
    """Validate that ``phases`` can be executed with one barrier each.

    Requirements (the executability invariant of the block executor):

    * the tasks partition the rows of ``tri`` exactly (no overlap, no
      gap);
    * every stored entry ``(i, j)`` of ``tri`` points to a strictly
      earlier phase **or** to a row of the same task — cross-task
      dependencies inside one phase would race.

    ABMC colour phases satisfy this by construction (same-colour blocks
    share no entries; cross-colour entries point backwards); level/wave
    phases satisfy it with no intra-task dependencies at all.
    """
    n = tri.n_rows
    starts = np.array([t.start for p in phases for t in p.tasks],
                      dtype=np.int64)
    stops = np.array([t.stop for p in phases for t in p.tasks],
                     dtype=np.int64)
    if ((starts < 0) | (starts > stops) | (stops > n)).any():
        return False
    lens = stops - starts
    rows = kernels.ranges_to_rows(starts, stops)
    if rows.shape[0] != n or np.bincount(rows, minlength=n).max(
            initial=1) != 1:
        return False  # overlapping tasks, or rows not covered
    task_of = np.empty(n, dtype=np.int64)
    task_of[rows] = np.repeat(np.arange(starts.shape[0]), lens)
    n_tasks = [len(p.tasks) for p in phases]
    phase_of = np.repeat(np.arange(len(phases)), n_tasks)[task_of]
    entry_rows = np.repeat(np.arange(n, dtype=np.int64), tri.row_nnz())
    cols = tri.indices
    ok = (phase_of[cols] < phase_of[entry_rows]) \
        | (task_of[cols] == task_of[entry_rows])
    return bool(ok.all())


def spawn_daemon_pool(max_workers: int,
                      thread_name_prefix: str = "") -> ThreadPoolExecutor:
    """A :class:`ThreadPoolExecutor` whose workers are *daemon* threads.

    A pool that may be **abandoned** on a hang (``shutdown(wait=False)``
    with a worker wedged mid-task) must not use ordinary workers:
    ``threading._shutdown`` joins every non-daemon thread at interpreter
    exit, so the process would stall on the very hang the caller refused
    to wait for.  Worker daemon-ness is inherited from the thread that
    spawns them and the executor spawns lazily from whoever submits, so
    this pre-spawns all ``max_workers`` workers from a short-lived
    daemon thread: each seed task blocks until every worker exists
    (an idle worker would absorb later seeds and suppress spawning).
    """
    pool = ThreadPoolExecutor(max_workers=max_workers,
                              thread_name_prefix=thread_name_prefix)
    release = threading.Event()

    def _seed() -> None:
        for _ in range(max_workers):
            pool.submit(release.wait)

    spawner = threading.Thread(target=_seed, daemon=True,
                               name=f"{thread_name_prefix}-spawner")
    spawner.start()
    spawner.join()
    release.set()
    return pool


class _TaskFailure(Exception):
    """Internal wrapper identifying *which* task of a bin crashed."""

    def __init__(self, task: BlockTask, slot: int,
                 cause: BaseException) -> None:
        super().__init__(str(cause))
        self.task = task
        self.slot = slot
        self.cause = cause


class ThreadedPhaseExecutor:
    """Persistent thread pool running colour phases with one barrier each.

    The pool is created once and reused across sweeps and ``power``
    calls (worker spin-up is a preprocessing cost, like the paper's
    OpenMP runtime warm-up).  Within a phase every worker is one pool
    submission claiming descriptor chunks from a shared cursor, and the
    phase returns only when all workers have finished — the barrier.

    A worker exception aborts the run at that barrier: the remaining
    workers are drained (no orphaned writers), the pool is shut down
    (``shutdown(wait=True)``, no leaked threads), and what happens next
    is the ``on_failure`` policy:

    ``"raise"`` (default)
        A :class:`PhaseExecutionError` with the failed task's phase,
        colour, row range and thread bin propagates; the original
        exception is chained as ``__cause__``.
    ``"fallback_serial"``
        If the caller provided a ``reset`` callback to
        :meth:`run_batched`, the state is rolled back and every phase is
        re-executed serially in the calling thread — bit-identical to a
        clean serial run (same kernels, no concurrency).
        Without ``reset`` the executor cannot roll back caller state and
        raises exactly like ``"raise"``.

    ``hang_timeout`` bounds each phase's barrier wait: if any worker has
    not finished ``hang_timeout`` seconds after the barrier was entered,
    the phase fails with a :class:`PhaseExecutionError` and the pool is
    *abandoned* (``shutdown(wait=False)``) rather than joined — Python
    threads cannot be killed, so a wedged worker is left to die with its
    daemon pool instead of wedging the caller too.  Callers on the
    fallback path must therefore stop sharing state with the abandoned
    pool (see ``FBMPKOperator.power``, which drops its sweep buffers so
    a zombie writer scribbles only on orphaned arrays).  Unlike the
    process executor's per-heartbeat timeout this bounds the *whole
    phase*, so choose it well above the slowest legitimate phase.
    """

    def __init__(self, n_threads: Optional[int] = None,
                 policy: str = "lpt",
                 on_failure: str = "raise",
                 hang_timeout: Optional[float] = None) -> None:
        if n_threads is None:
            n_threads = os.cpu_count() or 1
        if n_threads < 1:
            raise ValueError("n_threads must be positive")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        self.n_threads = int(n_threads)
        self.policy = policy
        self.on_failure = on_failure
        self.hang_timeout = None if hang_timeout is None \
            else float(hang_timeout)
        self._pool: Optional[ThreadPoolExecutor] = None

    @property
    def n_workers(self) -> int:
        """The worker count (the process executor's name for it)."""
        return self.n_threads

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            if self.hang_timeout is not None:
                # Only a daemon pool can be abandoned on a hang without
                # the zombie worker stalling interpreter exit.
                self._pool = spawn_daemon_pool(
                    self.n_threads, thread_name_prefix="fbmpk")
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_threads, thread_name_prefix="fbmpk")
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _abandon_pool(self) -> None:
        """Discard a pool believed to contain a hung worker without
        joining it (joining would inherit the hang).  Pending bins are
        cancelled; the hung thread keeps its references until it dies
        with the process.  The pool's threads are also de-registered
        from concurrent.futures' interpreter-exit join, which would
        otherwise stall process shutdown on the very hang we just
        refused to wait for."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        pool.shutdown(wait=False, cancel_futures=True)
        for t in getattr(pool, "_threads", ()):
            # Abandoned zombies are no longer *this executor's* workers:
            # rename them so thread dumps (and the test suites' no-leaked-
            # pool assertions) can tell them from a live pool.
            t.name = f"abandoned-{t.name}"
        try:
            from concurrent.futures import thread as _cf_thread
            for t in getattr(pool, "_threads", ()):
                _cf_thread._threads_queues.pop(t, None)
        except Exception:  # pragma: no cover - private-API drift
            pass

    def __enter__(self) -> "ThreadedPhaseExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- batched descriptor execution -----------------------------------
    @staticmethod
    def _run_claim_loop(batch: DescriptorBatch, cursor: ThreadCursor,
                        hi: int, chunk: int, run_desc: DescRunner,
                        busy: List[float], steals: List[int], slot: int,
                        phase_index: int, color: int) -> None:
        """One worker's share of a batched phase: claim descriptor
        chunks from the shared cursor until the phase is drained.  A
        worker that claims nothing (more workers than blocks) returns
        immediately — its future is the barrier contribution."""
        t0 = time.perf_counter()
        fault_s = 0.0
        try:
            while True:
                lo, end = cursor.claim(hi, chunk)
                if lo >= end:
                    break
                steals[slot] += 1
                for g in range(lo, end):
                    start = int(batch.starts[g])
                    stop = int(batch.stops[g])
                    try:
                        fault_s += _fire_fault_timed(
                            "executor.task", phase_index=phase_index,
                            color=color, start=start, stop=stop,
                            thread=slot)
                        run_desc(g)
                    except BaseException as exc:
                        task = BlockTask(start, stop, int(batch.nnz[g]))
                        raise _TaskFailure(task, slot, exc) from exc
        finally:
            busy[slot] += time.perf_counter() - t0 - fault_s
            if fault_s:
                obs.add_counter("faults.injected_delay_s", fault_s,
                                unit="s")

    def run_serial_batch(self, batch: DescriptorBatch,
                         run_desc: DescRunner,
                         stats: Optional[ExecutionStats] = None
                         ) -> ExecutionStats:
        """Execute a descriptor batch in the calling thread, descriptors
        in batch order — the reference :meth:`run_batched` must be
        bit-identical to, and its ``fallback_serial`` target.  Busy time
        accrues to bin 0."""
        if stats is None:
            stats = ExecutionStats(n_threads=self.n_threads,
                                   policy=self.policy)
        for pi in range(batch.n_phases):
            lo, hi = batch.phase_range(pi)
            color = batch.phase_color(pi)
            nnz = batch.phase_nnz(pi)
            with obs.span("executor.phase", phase=pi, colour=color,
                          n_tasks=hi - lo, nnz=nnz, mode="serial"):
                t0 = time.perf_counter()
                for g in range(lo, hi):
                    run_desc(g)
                elapsed = time.perf_counter() - t0
            stats.thread_busy_s[0] += elapsed
            stats.barriers += 1
            stats.phases.append(PhaseRecord(
                color=color, n_tasks=hi - lo, nnz=nnz, wall_s=elapsed))
            self._record_batch_phase(hi - lo, nnz, elapsed)
        return stats

    def run_batched(
        self,
        batch: DescriptorBatch,
        run_desc: DescRunner,
        stats: Optional[ExecutionStats] = None,
        reset: Optional[Callable[[], None]] = None,
    ) -> ExecutionStats:
        """Execute a :class:`DescriptorBatch` with one pool submission
        per worker per phase and a barrier after every phase.

        Every worker claims descriptor chunks from a shared
        :class:`ThreadCursor`, so load balance is dynamic and dispatch
        cost is ``O(n_workers)`` per phase regardless of block count.
        ``run_desc`` is called once per global descriptor index.  On
        failure the phase is drained and the pool shut down (abandoned
        on a hang timeout); with ``fallback_serial`` and ``reset`` the
        whole batch re-runs through :meth:`run_serial_batch`,
        bit-identical because per-colour block results are
        order-independent.
        """
        if stats is None:
            stats = ExecutionStats(n_threads=self.n_threads,
                                   policy=self.policy)
        snap = (len(stats.phases), stats.barriers,
                list(stats.thread_busy_s), stats.enqueues, stats.steals)
        pool = self._ensure_pool()
        cursor = ThreadCursor()
        steals = [0] * self.n_threads
        for pi in range(batch.n_phases):
            lo, hi = batch.phase_range(pi)
            color = batch.phase_color(pi)
            nnz = batch.phase_nnz(pi)
            with obs.span("executor.phase", phase=pi, colour=color,
                          n_tasks=hi - lo, nnz=nnz, mode="threads"):
                t0 = time.perf_counter()
                failure: Optional[BaseException] = None
                hung = False
                if hi > lo:
                    chunk = default_claim_chunk(hi - lo, self.n_threads)
                    cursor.reset(lo)
                    futures = [
                        pool.submit(self._run_claim_loop, batch, cursor,
                                    hi, chunk, run_desc,
                                    stats.thread_busy_s, steals, i, pi,
                                    color)
                        for i in range(self.n_threads)
                    ]
                    stats.enqueues += self.n_threads
                    obs.add_counter("executor.enqueues", self.n_threads)
                    done, not_done = _futures_wait(
                        futures, timeout=self.hang_timeout)
                    for f in done:
                        try:
                            f.result()
                        except BaseException as exc:
                            if failure is None:
                                failure = exc
                    if not_done:
                        hung = True
                        obs.add_counter("executor.hung_phases")
                        if failure is None:
                            failure = PhaseExecutionError(
                                f"{len(not_done)} worker(s) still "
                                f"running {self.hang_timeout}s after "
                                f"the phase barrier was entered",
                                phase_index=pi, color=color)
                elapsed = time.perf_counter() - t0
            if failure is not None:
                if hung:
                    self._abandon_pool()
                else:
                    self.close()
                obs.add_counter("executor.failed_phases")
                if self.on_failure == "fallback_serial" \
                        and reset is not None:
                    stats.phases[:] = stats.phases[:snap[0]]
                    stats.barriers = snap[1]
                    stats.thread_busy_s[:] = snap[2]
                    stats.enqueues = snap[3]
                    stats.steals = snap[4]
                    reset()
                    return self.run_serial_batch(batch, run_desc, stats)
                wrapped = self._wrap_failure(failure, pi, color)
                if wrapped is failure:
                    raise wrapped
                raise wrapped from (
                    failure.cause if isinstance(failure, _TaskFailure)
                    else failure)
            stats.barriers += 1
            stats.phases.append(PhaseRecord(
                color=color, n_tasks=hi - lo, nnz=nnz, wall_s=elapsed))
            self._record_batch_phase(hi - lo, nnz, elapsed)
        phase_steals = sum(steals)
        stats.steals += phase_steals
        if phase_steals:
            obs.add_counter("executor.steal_count", phase_steals)
        return stats

    @staticmethod
    def _record_batch_phase(n_tasks: int, nnz: int, wall_s: float) -> None:
        if obs.current() is None:
            return
        obs.add_counter("executor.barriers")
        obs.add_counter("executor.tasks", n_tasks)
        obs.add_counter("executor.phase_nnz", nnz)
        obs.observe("executor.phase_wall_s", wall_s, unit="s")

    @staticmethod
    def _wrap_failure(failure: BaseException, phase_index: int,
                      color: int) -> PhaseExecutionError:
        """Build the typed, context-carrying error for a crashed phase."""
        if isinstance(failure, PhaseExecutionError):
            return failure
        if isinstance(failure, _TaskFailure):
            return PhaseExecutionError(
                f"block task crashed: {failure.cause!r}",
                phase_index=phase_index, color=color,
                block=(failure.task.start, failure.task.stop),
                thread=failure.slot)
        return PhaseExecutionError(
            f"phase execution failed: {failure!r}",
            phase_index=phase_index, color=color)
