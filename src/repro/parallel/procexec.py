"""Zero-copy shared-memory process-parallel backend for FBMPK colour phases.

The threaded executor (:mod:`repro.parallel.executor`) runs the paper's
colour-phase schedule on real OS threads; the compiled CSR loop of
:mod:`repro.core.kernels` releases the GIL, but the Python glue around
each block call does not, so for small blocks the interpreter
serialises the schedule.  This module provides the backend that
sidesteps the GIL entirely: a persistent pool of worker *processes*
over :mod:`multiprocessing.shared_memory`.

The design is zero-copy by construction.  At pool construction the CSR
triangles (``indptr``/``indices``/``data`` of L and U), the diagonal,
the BtB interleaved iterate buffer and the sweep temporary are placed in
named shared-memory segments; every worker maps the same segments and
builds plain numpy views over them.  Dispatching a phase therefore ships
only a tiny ``(phase_idx, lo, hi)`` triple per worker over a queue —
never array payloads, exactly as the distributed matrix-power kernels of
Alappat et al. ship halo metadata rather than matrix data.

Dispatch is *batched* (see :mod:`repro.parallel.dispatch`): the phase
schedule is packed once, at registration time, into contiguous
descriptor arrays living in the arena, so a sweep performs one enqueue
per phase per **worker** — a ``(phase_idx, lo, hi)`` triple — instead of
one message per block.  Workers claim blocks from the shared descriptor
table via a chunked work-stealing cursor (a lock-guarded fetch-and-add
on an arena-resident counter), and the phase barrier is an atomic
completion counter plus a single event: every worker decrements once
after draining the cursor, the last one out flips the event the
dispatcher is waiting on.  No per-block round-trips exist anywhere on
the hot path.  The claim order within a phase is irrelevant for
correctness — same-colour blocks touch disjoint vector elements, so
per-colour block results are order-independent — and the workers call
the same :mod:`repro.core.kernels` functions as the serial and threaded
paths (Algorithm 2's row order on SciPy's compiled CSR loop), so results
are **bit-identical** to a serial run.

Failure containment matches :class:`ThreadedPhaseExecutor` and extends
it with dead-worker *and hung-worker* detection: a worker exception
crosses the process boundary as a pickled cause chained into a typed
:class:`~repro.robust.errors.PhaseExecutionError` (the worker still
decrements the completion counter in a ``finally``, so an erroring
worker closes the barrier rather than wedging it); a SIGKILL'd worker
never decrements, which the dispatcher's bounded event wait detects by
liveness polling — it then arrives at the barrier on the dead worker's
behalf; and — when a ``hang_timeout`` is set — a worker that is alive
but silent (SIGSTOP'd, wedged in a syscall, spinning) is caught by a
heartbeat watchdog.  Workers stamp a shared-memory heartbeat slab
before every claimed block; the dispatcher scans the slab while waiting
on the completion event and SIGKILLs any pending worker whose heartbeat
has not moved within ``hang_timeout``, converting the hang into the
ordinary dead-worker failure.  A worker killed *inside* the claim
lock's critical section poisons the lock; every dispatcher acquisition
is bounded, so a poisoned lock degrades into an ordinary phase failure
(pool teardown replaces the lock) instead of a hang.  Either way the
pool is torn down (a later call respawns it), and
``on_failure="fallback_serial"`` re-runs the phases in the calling
process from a caller-provided ``reset`` snapshot.  The
``"executor.task"`` chaos hook fires in the parent at dispatch time
(per block, only while an injector is active) and
``"procexec.heartbeat"`` fires in the worker per block (inherited
across ``fork``), so the fault-injection suite can stall a worker
without stalling the parent.

Shared-memory lifecycle is leak-proof: segments are unlinked by
``close()``/context-manager exit, by a ``weakref.finalize`` finaliser
(which doubles as an ``atexit`` hook), and unlinking is decoupled from
buffer release so even live outstanding views cannot keep a name in
``/dev/shm``.  ``tests/parallel/test_process_executor.py`` asserts no
residue survives the crash paths.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import queue as _queue
import secrets
import time
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..obs.spanring import (
    KIND_EXEC,
    KIND_WAIT,
    DEFAULT_RING_CAPACITY,
    RingReader,
    RingWriter,
    ring_shapes,
)
from ..robust.errors import PhaseExecutionError
from ..robust.faults import active_injectors as _active_injectors
from ..robust.faults import fire as _fire_fault
from ..robust.faults import fire_timed as _fire_fault_timed
from ..core import kernels
from ..sparse.csr import CSRMatrix
from .dispatch import (
    CTRL_CURSOR,
    CTRL_EPOCH,
    CTRL_ERRORS,
    CTRL_REMAINING,
    CTRL_SLOTS,
    CompletionBarrier,
    DescriptorBatch,
    SharedCursor,
    default_claim_chunk,
    pin_worker,
)
from .executor import ExecutionStats, PhaseRecord
from .scheduler import Phase

__all__ = [
    "SHM_PREFIX",
    "SWEEPS",
    "SharedArena",
    "ProcessPhaseExecutor",
]

#: Prefix of every shared-memory segment this backend creates; the leak
#: tests (and the CI ``/dev/shm`` check) grep for it.
SHM_PREFIX = "repro-shm-"

#: The named kernels a worker can execute.  ``forward``/``backward`` are
#: the vector (BtB pair) sweeps of ``power``; the ``*_block`` variants
#: operate on the interleaved ``(n, 2m)`` block buffer of
#: ``power_block``; ``blocked`` is the levels-blocked wavefront update,
#: whose per-descriptor op tag (row 2 of the plan table) selects the
#: update kind.
SWEEPS = ("forward", "backward", "forward_block", "backward_block",
          "blocked")

_SegmentSpec = Tuple[str, str, Tuple[int, ...]]  # (shm name, dtype, shape)


def _release_segments(owned: List[shared_memory.SharedMemory]) -> None:
    """Close and unlink every owned segment (idempotent, exception-proof).

    ``close()`` can raise ``BufferError`` while numpy views are still
    alive; unlinking is attempted regardless so the ``/dev/shm`` name
    always disappears — the mapping itself is freed when the last view
    dies, which is the POSIX contract.
    """
    for shm in owned:
        try:
            shm.close()
        except BufferError:
            pass
        except OSError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass
    owned.clear()


def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting *attached*
    segments.

    On Python < 3.13 ``SharedMemory(name=...)`` registers the segment
    even when merely attaching (bpo-38119).  Under the default ``fork``
    start method the workers share the parent's tracker process, so a
    worker's spurious registration (or a compensating ``unregister``)
    would corrupt the parent's own bookkeeping for segments it owns.
    Workers never create segments, so the clean fix is to make
    ``register`` a no-op for the worker's lifetime — ownership and
    unlinking stay entirely with the creating process.
    """
    try:
        from multiprocessing import resource_tracker

        def _noop_register(name, rtype):
            if rtype != "shared_memory":
                _orig_register(name, rtype)

        _orig_register = resource_tracker.register
        resource_tracker.register = _noop_register
    except Exception:
        pass


class SharedArena:
    """A set of named shared-memory segments with leak-proof teardown.

    The creating process calls :meth:`add` per array; workers rebuild
    views from :attr:`spec` via :func:`attach_views`.  Teardown runs on
    :meth:`close`, on garbage collection and at interpreter exit
    (``weakref.finalize`` registers an ``atexit`` hook), whichever comes
    first.
    """

    def __init__(self) -> None:
        self._owned: List[shared_memory.SharedMemory] = []
        self._by_tag: Dict[str, shared_memory.SharedMemory] = {}
        self._retired: List[shared_memory.SharedMemory] = []
        self._views: Dict[str, np.ndarray] = {}
        #: ``tag -> (shm name, dtype str, shape)``; picklable, this is
        #: what crosses the process boundary instead of array payloads.
        self.spec: Dict[str, _SegmentSpec] = {}
        self._finalizer = weakref.finalize(
            self, _release_segments, self._owned)

    def add(self, tag: str, arr: np.ndarray) -> np.ndarray:
        """Create a segment holding a copy of ``arr``; returns the
        shared view (the arena's canonical array for ``tag``)."""
        arr = np.ascontiguousarray(arr)
        name = f"{SHM_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}-{tag}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, arr.nbytes))
        self._owned.append(shm)
        self._by_tag[tag] = shm
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        self._views[tag] = view
        self.spec[tag] = (shm.name, arr.dtype.str, tuple(arr.shape))
        return view

    def view(self, tag: str) -> np.ndarray:
        """The canonical shared view for ``tag``."""
        return self._views[tag]

    def retire(self, tags: Sequence[str]) -> None:
        """Take segments out of the arena's tags without unlinking them
        yet (block-buffer rebinds): a worker may still hold an unread
        message naming them.  :meth:`release_retired` unlinks them once
        no worker can attach any more; :meth:`close` does too."""
        for tag in tags:
            shm = self._by_tag.pop(tag, None)
            if shm is None:
                continue
            self._views.pop(tag, None)
            self.spec.pop(tag, None)
            self._retired.append(shm)

    def release_retired(self) -> None:
        """Unlink every segment :meth:`retire` set aside."""
        retired, self._retired = self._retired, []
        for shm in retired:
            if shm in self._owned:
                self._owned.remove(shm)
        _release_segments(retired)

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unlink every segment (idempotent)."""
        self._views.clear()
        self._by_tag.clear()
        self._retired.clear()
        self.spec.clear()
        self._finalizer()


# ---------------------------------------------------------------------------
# kernels (run identically in workers and in the serial fallback)
# ---------------------------------------------------------------------------
class _Views:
    """Numpy views over the arena segments plus the sweep kernels.

    Built directly over the creating process's views, or re-attached in
    a worker from the picklable spec.  All kernels slice the shared
    arrays — zero copies on any hot path.
    """

    CORE_TAGS = ("l_indptr", "l_indices", "l_data",
                 "u_indptr", "u_indices", "u_data",
                 "diag", "xy", "tmp")

    def __init__(self, get: Callable[[str], np.ndarray]) -> None:
        (l_indptr, l_indices, l_data, u_indptr, u_indices, u_data,
         diag, xy, tmp) = (get(t) for t in self.CORE_TAGS)
        n = diag.shape[0]
        # check=False: views over the arena, never copied or validated.
        self.lower = CSRMatrix(l_indptr, l_indices, l_data, (n, n),
                               check=False)
        self.upper = CSRMatrix(u_indptr, u_indices, u_data, (n, n),
                               check=False)
        self.diag = diag
        self.d2 = diag[:, None]
        self.xy2 = xy.reshape(-1, 2)
        self.tmp2 = tmp[:, None]
        self.xyb: Optional[np.ndarray] = None
        self.tmpb: Optional[np.ndarray] = None

    def bind_block(self, xyb: Optional[np.ndarray],
                   tmpb: Optional[np.ndarray]) -> None:
        self.xyb = xyb
        self.tmpb = tmpb

    # -- sweep kernels --------------------------------------------------
    def run(self, sweep: str, start: int, stop: int, op: int = -1,
            chained: bool = False) -> None:
        """Execute one block task with the :mod:`repro.core.kernels`
        function the sweep names.  ``op`` is the per-descriptor update
        kind of the ``"blocked"`` sweep; ``chained`` marks a block whose
        rows depend on each other (colour-phase sweeps)."""
        r = slice(start, stop)
        if sweep == "blocked":
            kernels.blocked(kernels.row_range(self.lower, start, stop),
                            kernels.row_range(self.upper, start, stop),
                            r, self.xy2, self.diag, op)
        elif sweep in ("forward", "forward_block"):
            XY, tmp = (self.xy2, self.tmp2) if sweep == "forward" \
                else (self.xyb, self.tmpb)
            kernels.forward(kernels.row_range(self.lower, start, stop), r,
                            XY, tmp, self.d2, chained)
        elif sweep in ("backward", "backward_block"):
            XY, tmp = (self.xy2, self.tmp2) if sweep == "backward" \
                else (self.xyb, self.tmpb)
            kernels.backward(kernels.row_range(self.upper, start, stop), r,
                             XY, tmp, chained)
        else:  # pragma: no cover - dispatch validates sweeps
            raise ValueError(f"unknown sweep {sweep!r}")


class _AttachedSegments:
    """Worker-side attachment: maps the named segments read-only-cheap
    (same physical pages) and yields numpy views."""

    def __init__(self, spec: Dict[str, _SegmentSpec]) -> None:
        self._shms: List[shared_memory.SharedMemory] = []
        self._views: Dict[str, np.ndarray] = {}
        for tag, (name, dtype, shape) in spec.items():
            shm = shared_memory.SharedMemory(name=name)
            self._shms.append(shm)
            self._views[tag] = np.ndarray(shape, dtype=np.dtype(dtype),
                                          buffer=shm.buf)

    def view(self, tag: str) -> np.ndarray:
        return self._views[tag]

    def close(self) -> None:
        self._views.clear()
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:
                pass
        self._shms.clear()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------
def _worker_main(worker_id: int, core_spec: Dict[str, _SegmentSpec],
                 block_spec: Optional[Dict[str, _SegmentSpec]],
                 plan_specs: Dict[int, _SegmentSpec],
                 inq, outq, lock, event, task_hook, pin) -> None:
    """Worker loop: attach once, then serve ``(phase_idx, lo, hi)``
    dispatch triples until told to stop, claiming block descriptors
    from the shared plan tables via the chunked work-stealing cursor.
    Never touches a queue with array data — all arrays (including the
    descriptor tables) live in the mapped segments.

    The completion protocol is unconditional: ``wbusy``/``wdone`` are
    stamped and the barrier decremented in a ``finally``, so even an
    erroring worker closes the phase barrier; only a killed worker
    leaves ``remaining`` elevated, which the dispatcher's liveness scan
    compensates for."""
    _disable_shm_tracking()
    pin_worker(worker_id, pin)
    core = _AttachedSegments(core_spec)
    views = _Views(core.view)
    # The heartbeat slab rides in the core spec but is not a _Views tag:
    # it is watchdog bookkeeping, not sweep data.  CLOCK_MONOTONIC is
    # system-wide on the platforms with shared memory, so the parent can
    # compare these stamps against its own clock.
    hb = core.view("hb") if "hb" in core_spec else None
    ctrl = core.view("ctrl")
    wdone = core.view("wdone")
    wsteal = core.view("wsteal")
    wbusy = core.view("wbusy")
    cursor = SharedCursor(ctrl, lock)
    barrier = CompletionBarrier(ctrl, lock, event)
    # Span ring (same slab discipline): exec/wait spans written here are
    # merged into the dispatcher's trace after each barrier.  Recording
    # is gated on the descriptor carrying a trace tuple, so with
    # telemetry off the only cost per phase is one tuple unpack.
    ring = None
    if all(t in core_spec for t in ("sr_i", "sr_f", "sr_n")):
        ring = RingWriter(core.view("sr_i"), core.view("sr_f"),
                          core.view("sr_n"), worker_id)
    pid = os.getpid()
    t_idle0 = time.monotonic()
    blk: Optional[_AttachedSegments] = None
    plans: Dict[int, Tuple[_AttachedSegments, np.ndarray, np.ndarray,
                           Optional[np.ndarray], Optional[np.ndarray]]] = {}

    def bind(spec: Optional[Dict[str, _SegmentSpec]]) -> None:
        nonlocal blk
        views.bind_block(None, None)
        if blk is not None:
            blk.close()
            blk = None
        if spec is not None:
            blk = _AttachedSegments(spec)
            views.bind_block(blk.view("xyb"), blk.view("tmpb"))

    def attach_plan(slot: int, spec: _SegmentSpec) -> None:
        seg = _AttachedSegments({"rows": spec})
        rows = seg.view("rows")
        # Rows 2 and 3, when present, carry the per-descriptor op tags
        # and chained flags (DescriptorBatch.pack_rows).
        if rows.shape[0] > 2:
            plans[slot] = (seg, rows[0], rows[1], rows[2], rows[3])
        else:
            plans[slot] = (seg, rows[0], rows[1], None, None)

    for plan_slot, plan_spec in plan_specs.items():
        attach_plan(plan_slot, plan_spec)
    bind(block_spec)
    try:
        while True:
            msg = inq.get()
            if msg is None:
                break
            if msg[0] == "block":
                bind(msg[1])
                continue
            if msg[0] == "plan":
                attach_plan(msg[1], msg[2])
                continue
            # ("phase", sweep, plan, phase_index, color, lo, hi, epoch,
            #  chunk, trace) — one triple per worker per phase; trace is
            #  None (telemetry off) or (trace_id, parent_span_id).
            _, sweep, slot, pi, color, lo, hi, epoch, chunk, trace = msg
            _, starts, stops, ops, chained = plans[slot]
            t_mono0 = time.monotonic()
            sweep_idx = SWEEPS.index(sweep) if sweep in SWEEPS else -1
            if ring is not None and trace is not None:
                # The gap since the previous phase finished: barrier
                # wait for the stragglers plus dispatch latency.
                ring.record(KIND_WAIT, pi, color, 0, trace[1], trace[0],
                            sweep_idx, pid, t_idle0, t_mono0 - t_idle0)
            t0 = time.perf_counter()
            claimed = 0
            start = stop = -1
            try:
                while True:
                    glo, gend = cursor.claim(hi, chunk)
                    if glo >= gend:
                        break
                    wsteal[worker_id] += 1
                    for g in range(glo, gend):
                        start, stop = int(starts[g]), int(stops[g])
                        if hb is not None:
                            hb[worker_id] = time.monotonic()
                        # Fires in the *worker* (injector inherited
                        # across fork): a HangFault here freezes this
                        # heartbeat while the parent stays live — the
                        # exact condition the watchdog exists to catch.
                        _fire_fault("procexec.heartbeat",
                                    worker=worker_id, phase_index=pi,
                                    color=color)
                        if task_hook is not None:
                            task_hook(sweep=sweep, phase_index=pi,
                                      color=color, start=start,
                                      stop=stop, worker=worker_id)
                        views.run(sweep, start, stop,
                                  -1 if ops is None else int(ops[g]),
                                  chained is not None and bool(chained[g]))
                        claimed += 1
                if ring is not None and trace is not None and claimed:
                    # Written before the barrier arrival: the lock/event
                    # pair orders this record before the dispatcher's
                    # post-barrier drain.
                    ring.record(KIND_EXEC, pi, color, claimed,
                                trace[1], trace[0], sweep_idx, pid,
                                t_mono0, time.monotonic() - t_mono0)
            except BaseException as exc:  # noqa: BLE001 - forwarded
                try:  # only picklable causes may cross the boundary
                    pickle.dumps(exc)
                except Exception:
                    exc = RuntimeError(repr(exc))
                if ring is not None and trace is not None and claimed:
                    ring.record(KIND_EXEC, pi, color, claimed,
                                trace[1], trace[0], sweep_idx, pid,
                                t_mono0, time.monotonic() - t_mono0)
                # The error count crosses in shared memory (under the
                # lock, hence ordered before this worker's arrival);
                # the payload crosses on the queue.  The dispatcher
                # drains exactly ctrl[CTRL_ERRORS] messages after the
                # barrier closes.
                with lock:
                    ctrl[CTRL_ERRORS] += 1
                outq.put(("err", worker_id, pi, color, (start, stop),
                          exc))
            finally:
                wbusy[worker_id] += time.perf_counter() - t0
                wdone[worker_id] = epoch
                barrier.arrive()
                t_idle0 = time.monotonic()
    finally:
        for seg, *_ in plans.values():
            seg.close()
        if blk is not None:
            blk.close()
        core.close()


def _picklable_hook_check(task_hook) -> None:
    if task_hook is None:
        return
    try:
        pickle.dumps(task_hook)
    except Exception as exc:
        raise ValueError(
            "task_hook must be picklable (module-level callable), got "
            f"{task_hook!r}") from exc


# ---------------------------------------------------------------------------
# the executor
# ---------------------------------------------------------------------------
@dataclass
class _PoolState:
    workers: List
    inqs: List
    outq: object
    lock: object
    event: object
    barrier: CompletionBarrier


class ProcessPhaseExecutor:
    """Persistent process pool running colour phases over shared memory.

    One barrier closes each phase, exactly as in the threaded executor;
    all operands live in a zero-copy :class:`SharedArena`.

    Parameters
    ----------
    part:
        The ``L + D + U`` :class:`~repro.core.partition.TriangularPartition`
        whose triangles, diagonal and working buffers are shared.
    n_workers, policy:
        Static-assignment parameters, identical in meaning to the
        threaded executor's (bins map one-to-one onto workers).
    on_failure:
        ``"raise"`` propagates a :class:`PhaseExecutionError`;
        ``"fallback_serial"`` (with a ``reset`` callback passed to
        :meth:`run_batched`) rolls back and re-runs the phases in the
        calling process — bit-identical to a clean serial run.
    hang_timeout:
        Seconds a dispatched worker may go without stamping its
        heartbeat before the watchdog SIGKILLs it (None — the default —
        disables the watchdog; barriers then wait indefinitely, the
        pre-watchdog behaviour).  A killed worker follows the ordinary
        dead-worker failure path, so ``fallback_serial`` still yields a
        correct answer.  SIGKILL is deliberate: it is the only signal a
        SIGSTOP'd process cannot ignore or defer.
    mp_context:
        Start method (default: ``"fork"`` where available, else
        ``"spawn"``).
    task_hook:
        Optional picklable callable invoked in the *worker* before every
        block task (test instrumentation / in-worker chaos); the
        standard ``"executor.task"`` chaos hook additionally fires in
        the parent at dispatch time.
    claim_chunk:
        Blocks a worker claims per cursor round-trip (None — the
        default — picks :func:`~repro.parallel.dispatch.default_claim_chunk`
        per phase).  The tuner searches this jointly with executor and
        block size.
    pin_workers:
        Deterministic CPU pinning for workers (``os.sched_setaffinity``,
        best-effort).  None (default) pins only when at least two CPUs
        are available; False never pins; True always tries.
    """

    def __init__(self, part, n_workers: Optional[int] = None,
                 policy: str = "lpt", on_failure: str = "raise",
                 mp_context: Optional[str] = None,
                 task_hook=None,
                 hang_timeout: Optional[float] = None,
                 claim_chunk: Optional[int] = None,
                 pin_workers: Optional[bool] = None) -> None:
        if n_workers is None:
            n_workers = os.cpu_count() or 1
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1 (or None)")
        _picklable_hook_check(task_hook)
        self.n_workers = int(n_workers)
        self.policy = policy
        self.on_failure = on_failure
        self.task_hook = task_hook
        self.hang_timeout = None if hang_timeout is None \
            else float(hang_timeout)
        self.claim_chunk = None if claim_chunk is None else int(claim_chunk)
        self.pin_workers = pin_workers
        if mp_context is None:
            mp_context = ("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")
        self._ctx = mp.get_context(mp_context)
        self.n = int(part.diag.shape[0])
        self.arena = SharedArena()
        self.arena.add("l_indptr", part.lower.indptr)
        self.arena.add("l_indices", part.lower.indices)
        self.arena.add("l_data", part.lower.data)
        self.arena.add("u_indptr", part.upper.indptr)
        self.arena.add("u_indices", part.upper.indices)
        self.arena.add("u_data", part.upper.data)
        self.arena.add("diag", part.diag)
        self.arena.add("xy", np.zeros(2 * self.n, dtype=np.float64))
        self.arena.add("tmp", np.zeros(self.n, dtype=np.float64))
        # Heartbeat slab: workers stamp hb[i] = monotonic() per block;
        # the watchdog in _await_event compares against its own clock.
        self._hb = self.arena.add(
            "hb", np.zeros(self.n_workers, dtype=np.float64))
        # Dispatch control slab (cursor / remaining / epoch / errors)
        # plus per-worker completion-epoch, steal-count and busy-seconds
        # slabs — the shared state behind the batched claim/complete
        # protocol (see repro.parallel.dispatch).
        self._ctrl = self.arena.add(
            "ctrl", np.zeros(CTRL_SLOTS, dtype=np.int64))
        self._wdone = self.arena.add(
            "wdone", np.zeros(self.n_workers, dtype=np.int64))
        self._wsteal = self.arena.add(
            "wsteal", np.zeros(self.n_workers, dtype=np.int64))
        self._wbusy = self.arena.add(
            "wbusy", np.zeros(self.n_workers, dtype=np.float64))
        # Span rings: one single-writer ring per worker (see
        # repro.obs.spanring).  Plain int64/float64 arrays — the arena
        # spec round-trips dtype strings, which would mangle a
        # structured dtype.
        shp_i, shp_f, shp_n = ring_shapes(self.n_workers,
                                          DEFAULT_RING_CAPACITY)
        sr_i = self.arena.add("sr_i", np.zeros(shp_i, dtype=np.int64))
        sr_f = self.arena.add("sr_f", np.zeros(shp_f, dtype=np.float64))
        sr_n = self.arena.add("sr_n", np.zeros(shp_n, dtype=np.int64))
        self._ring_reader: Optional[RingReader] = RingReader(
            sr_i, sr_f, sr_n)
        self._views: Optional[_Views] = _Views(self.arena.view)
        self._pool: Optional[_PoolState] = None
        self._blk_m: Optional[int] = None
        # Registered descriptor plans: slot -> batch; the (2, n_blocks)
        # row table of plan `slot` lives in arena segment f"plan{slot}".
        self._plans: Dict[int, DescriptorBatch] = {}
        self._next_plan = 0
        # Phase epoch: monotonically increasing across the executor's
        # lifetime (survives pool respawns) so wdone stamps from a
        # previous pool can never satisfy the current phase's scan.
        self._epoch = 0

    # -- shared buffers -------------------------------------------------
    @property
    def xy(self) -> np.ndarray:
        """The shared length-``2n`` BtB iterate buffer."""
        return self.arena.view("xy")

    @property
    def tmp(self) -> np.ndarray:
        """The shared length-``n`` sweep temporary."""
        return self.arena.view("tmp")

    def ensure_block(self, m: int) -> Tuple[np.ndarray, np.ndarray]:
        """The shared block buffers for ``power_block`` with ``m``
        columns: the ``(n, 2m)`` interleaved iterate block and the
        ``(n, m)`` temporary.  (Re)allocated only when ``m`` changes;
        running workers are rebound in-band, so descriptor ordering
        guarantees they never touch a stale segment.

        A worker reads its rebind messages only when the next phase
        reaches it, so several widths can change in between (a
        ``power_block`` with ``k=1`` dispatches no phase).  The old
        segments therefore stay linked until every worker has passed a
        later phase barrier, or the pool is gone: a worker never attaches
        to a segment the parent has unlinked."""
        if m < 0:
            raise ValueError("m must be non-negative")
        if self._blk_m != m:
            self.arena.retire(("xyb", "tmpb"))
            if self._pool is None:
                self.arena.release_retired()
            xyb = self.arena.add(
                "xyb", np.zeros((self.n, 2 * m), dtype=np.float64))
            tmpb = self.arena.add(
                "tmpb", np.zeros((self.n, m), dtype=np.float64))
            self._views.bind_block(xyb, tmpb)
            self._blk_m = m
            if self._pool is not None:
                spec = self._block_spec()
                for q in self._pool.inqs:
                    q.put(("block", spec))
        return self._views.xyb, self._views.tmpb

    def _block_spec(self) -> Optional[Dict[str, _SegmentSpec]]:
        if self._blk_m is None:
            return None
        return {t: self.arena.spec[t] for t in ("xyb", "tmpb")}

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> _PoolState:
        if self._pool is None:
            core = {t: self.arena.spec[t]
                    for t in _Views.CORE_TAGS
                    + ("hb", "sr_i", "sr_f", "sr_n",
                       "ctrl", "wdone", "wsteal", "wbusy")}
            outq = self._ctx.Queue()
            inqs = [self._ctx.SimpleQueue()
                    for _ in range(self.n_workers)]
            # Fresh lock + event per pool generation: a worker killed
            # inside the critical section poisons the lock, and pool
            # teardown is exactly what replaces it.
            lock = self._ctx.Lock()
            event = self._ctx.Event()
            plan_specs = {slot: self.arena.spec[f"plan{slot}"]
                          for slot in self._plans}
            workers = []
            for i in range(self.n_workers):
                w = self._ctx.Process(
                    target=_worker_main,
                    args=(i, core, self._block_spec(), plan_specs,
                          inqs[i], outq, lock, event, self.task_hook,
                          self.pin_workers),
                    name=f"fbmpk-proc-{i}", daemon=True)
                w.start()
                workers.append(w)
            self._pool = _PoolState(
                workers=workers, inqs=inqs, outq=outq, lock=lock,
                event=event,
                barrier=CompletionBarrier(self._ctrl, lock, event))
            obs.add_counter("procexec.pool_spawns")
        return self._pool

    def start(self) -> List[int]:
        """Spawn the pool eagerly; returns the worker PIDs (used by the
        fault-injection tests to SIGKILL a live worker)."""
        pool = self._ensure_pool()
        return [w.pid for w in pool.workers]

    def worker_liveness(self) -> Optional[List[bool]]:
        """Per-worker liveness snapshot for health endpoints: None when
        no pool is running, else one bool per worker slot."""
        pool = self._pool
        if pool is None:
            return None
        return [w.is_alive() for w in pool.workers]

    def heartbeat_ages(self) -> Optional[List[Optional[float]]]:
        """Seconds since each worker last stamped its heartbeat slab
        (None per slot when the worker has never stamped; None overall
        when no pool is running).  Usable without a hang_timeout — the
        slab is stamped unconditionally."""
        if self._pool is None or self._hb is None:
            return None
        now = time.monotonic()
        return [now - float(t) if t > 0 else None for t in self._hb]

    def publish_metrics(self) -> None:
        """Push pool-liveness gauges into the active telemetry session
        (no-op when telemetry is off): ``procexec.workers_alive`` and a
        ``procexec.heartbeat_age_s.w<i>`` gauge per worker, so ``/metrics``
        scrapes see what previously only the ``health`` op reported."""
        if obs.current() is None:
            return
        alive = self.worker_liveness()
        if alive is not None:
            obs.set_gauge("procexec.workers_alive", float(sum(alive)))
        ages = self.heartbeat_ages()
        if ages is not None:
            for i, age in enumerate(ages):
                if age is not None:
                    obs.set_gauge(f"procexec.heartbeat_age_s.w{i}",
                                  age, unit="s")

    def _shutdown_pool(self) -> None:
        """Stop every worker and discard the queues (idempotent).  The
        arena survives — a later dispatch respawns the pool over the
        same segments.

        Escalation ladder so shutdown can never hang on a stuck worker:
        sentinel + 2 s cooperative join, then ``terminate()`` (SIGTERM)
        + 2 s, then ``kill()`` (SIGKILL, which even a SIGSTOP'd process
        cannot survive) + final join to reap."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for w, q in zip(pool.workers, pool.inqs):
            if w.is_alive():
                try:
                    q.put(None)
                except (OSError, ValueError):
                    pass
        for w in pool.workers:
            w.join(timeout=2.0)
        for w in pool.workers:
            if w.is_alive():
                w.terminate()
                w.join(timeout=2.0)
        for w in pool.workers:
            if w.is_alive():
                obs.add_counter("procexec.shutdown_kills")
                w.kill()
                w.join(timeout=2.0)
        for q in pool.inqs:
            q.close()
        pool.outq.close()
        self.arena.release_retired()  # no worker is left to attach

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment
        (idempotent).  Buffers obtained from :attr:`xy`/:attr:`tmp`/
        :meth:`ensure_block` must not be used afterwards.  The arena is
        unlinked even if pool teardown raises — ``/dev/shm`` hygiene
        must not depend on worker cooperation."""
        try:
            self._shutdown_pool()
        finally:
            self._views = None
            self._hb = None
            self._ctrl = None
            self._wdone = None
            self._wsteal = None
            self._wbusy = None
            self._ring_reader = None
            self._blk_m = None
            self._plans.clear()
            self.arena.close()

    def __enter__(self) -> "ProcessPhaseExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ------------------------------------------------------
    def run_serial_batch(self, batch: DescriptorBatch, sweep: str,
                         stats: Optional[ExecutionStats] = None
                         ) -> ExecutionStats:
        """Execute a descriptor batch in the calling process, descriptors
        in batch order, over the same shared buffers and kernels — the
        reference the dispatched path must be bit-identical to, and the
        ``fallback_serial`` target.  Busy time accrues to bin 0."""
        if sweep not in SWEEPS:
            raise ValueError(f"unknown sweep {sweep!r}")
        if stats is None:
            stats = ExecutionStats(n_threads=self.n_workers,
                                   policy=self.policy)
        views = self._views
        ops, chained = batch.ops, batch.chained
        for pi in range(batch.n_phases):
            lo, hi = batch.phase_range(pi)
            color = batch.phase_color(pi)
            nnz = batch.phase_nnz(pi)
            with obs.span("executor.phase", phase=pi, colour=color,
                          n_tasks=hi - lo, nnz=nnz, mode="serial"):
                t0 = time.perf_counter()
                for g in range(lo, hi):
                    views.run(sweep, int(batch.starts[g]),
                              int(batch.stops[g]),
                              -1 if ops is None else int(ops[g]),
                              chained is not None and bool(chained[g]))
                elapsed = time.perf_counter() - t0
            stats.thread_busy_s[0] += elapsed
            self._finish_phase(stats, color, hi - lo, nnz, elapsed)
        return stats

    def register_phases(self, phases: Sequence[Phase], sweep: str) -> int:
        """Pack ``phases`` into a descriptor plan for ``sweep`` (whose
        triangle fixes the blocks' chained flags), place its row table
        in the arena, and return the plan slot for :meth:`run_batched`.
        Registration is the one-time cost that buys one-enqueue-per-
        phase-per-worker dispatch on every subsequent sweep."""
        if sweep not in SWEEPS:
            raise ValueError(f"unknown sweep {sweep!r}")
        tri = self._views.upper if sweep.startswith("backward") \
            else self._views.lower
        return self.register_batch(
            DescriptorBatch.from_phases(phases, self.policy, tri))

    def register_batch(self, batch: DescriptorBatch) -> int:
        """Place an already-packed descriptor batch in the arena (its
        row table gains the op-tag and chained rows when the batch
        carries either) and return the plan slot for
        :meth:`run_batched`."""
        slot = self._next_plan
        self._next_plan += 1
        self.arena.add(f"plan{slot}", batch.pack_rows())
        self._plans[slot] = batch
        if self._pool is not None:
            spec = self.arena.spec[f"plan{slot}"]
            for q in self._pool.inqs:
                q.put(("plan", slot, spec))
        return slot

    def run_batched(self, plan: int, sweep: str,
                    stats: Optional[ExecutionStats] = None,
                    reset: Optional[Callable[[], None]] = None
                    ) -> ExecutionStats:
        """Execute a registered descriptor plan on the worker pool: one
        enqueue per phase per worker, workers claim blocks via the
        shared cursor, and the atomic completion counter closes each
        phase.

        ``reset`` is the rollback hook of ``on_failure=
        "fallback_serial"``: on any failure (worker exception, injected
        dispatch fault, a killed worker, or a poisoned claim lock) the
        barrier is compensated closed, the pool is torn down, ``reset``
        restores the shared buffers, and :meth:`run_serial_batch`
        re-runs everything in-process.
        """
        if sweep not in SWEEPS:
            raise ValueError(f"unknown sweep {sweep!r}")
        batch = self._plans[plan]
        if stats is None:
            stats = ExecutionStats(n_threads=self.n_workers,
                                   policy=self.policy)
        snap = (len(stats.phases), stats.barriers,
                list(stats.thread_busy_s), stats.enqueues, stats.steals)
        pool = self._ensure_pool()
        tel = obs.current()
        for pi in range(batch.n_phases):
            lo, hi = batch.phase_range(pi)
            color = batch.phase_color(pi)
            nnz = batch.phase_nnz(pi)
            with obs.span("executor.phase", phase=pi, colour=color,
                          n_tasks=hi - lo, nnz=nnz,
                          mode="processes") as sp:
                # Trace context shipped with the descriptors: workers
                # stamp their ring spans with the dispatcher's trace id
                # and parent this very executor.phase span.
                trace = None if tel is None \
                    else (tel.recorder.trace_id, sp.span_id)
                t0 = time.perf_counter()
                failure = None if hi == lo else self._dispatch_batch(
                    pool, plan, sweep, pi, color, lo, hi, stats, trace)
                elapsed = time.perf_counter() - t0
            if failure is not None:
                self._drain_spans()
                self._shutdown_pool()
                obs.add_counter("executor.failed_phases")
                if self.on_failure == "fallback_serial" \
                        and reset is not None:
                    stats.phases[:] = stats.phases[:snap[0]]
                    stats.barriers = snap[1]
                    stats.thread_busy_s[:] = snap[2]
                    stats.enqueues = snap[3]
                    stats.steals = snap[4]
                    reset()
                    return self.run_serial_batch(batch, sweep, stats)
                raise failure
            self._finish_phase(stats, color, hi - lo, nnz, elapsed)
        self._drain_spans()
        self.publish_metrics()
        return stats

    def _drain_spans(self) -> None:
        """Merge worker span-ring records into the active recorder.

        Runs after the barrier has closed, so every record for the
        phases just executed is visible (workers write their ring record
        before arriving at the completion barrier).  Counts surface as
        ``procexec.spans_merged`` / ``procexec.spans_dropped``."""
        tel = obs.current()
        if tel is None or self._ring_reader is None:
            return
        merged, dropped = self._ring_reader.drain(tel.recorder,
                                                  sweep_names=SWEEPS)
        if merged:
            obs.add_counter("procexec.spans_merged", merged)
        if dropped:
            obs.add_counter("procexec.spans_dropped", dropped)

    def _dispatch_batch(self, pool: _PoolState, plan: int, sweep: str,
                        pi: int, color: int, lo: int, hi: int,
                        stats: ExecutionStats,
                        trace: Optional[Tuple[int, int]] = None
                        ) -> Optional[PhaseExecutionError]:
        """Arm the cursor/barrier for phase ``pi`` and send one
        ``(phase_idx, lo, hi)`` descriptor triple to every worker — the
        entire per-phase message traffic.  Returns the first failure
        (never raises before the barrier has closed or been compensated
        closed)."""
        batch = self._plans[plan]
        # The "executor.task" chaos hook still fires in the parent per
        # block (the fault suite depends on that injection point), but
        # only while an injector is active — the hot path pays one list
        # check.
        if _active_injectors():
            fault_s = 0.0
            start = stop = None
            try:
                for g in range(lo, hi):
                    start = int(batch.starts[g])
                    stop = int(batch.stops[g])
                    fault_s += _fire_fault_timed(
                        "executor.task", phase_index=pi, color=color,
                        start=start, stop=stop,
                        thread=int((g - lo) % self.n_workers))
            except BaseException as exc:  # injected dispatch fault
                failure = PhaseExecutionError(
                    f"injected fault at dispatch: {exc!r}",
                    phase_index=pi, color=color,
                    block=None if start is None else (start, stop),
                    thread=int((g - lo) % self.n_workers))
                failure.__cause__ = exc
                return failure  # nothing dispatched
            if fault_s:
                obs.add_counter("faults.injected_delay_s", fault_s,
                                unit="s")
        self._epoch += 1
        epoch = self._epoch
        if not self._arm_phase(pool, lo, epoch):
            return PhaseExecutionError(
                "phase barrier poisoned: claim lock held by a dead "
                "worker", phase_index=pi, color=color)
        chunk = self.claim_chunk if self.claim_chunk is not None \
            else default_claim_chunk(hi - lo, self.n_workers)
        busy0 = self._wbusy.copy()
        steal0 = int(self._wsteal.sum())
        for q in pool.inqs:
            q.put(("phase", sweep, plan, pi, color, lo, hi, epoch,
                   chunk, trace))
        stats.enqueues += self.n_workers
        obs.add_counter("procexec.enqueues", self.n_workers)
        failure = self._await_event(pool, pi, color, epoch)
        if failure is None:
            # Every worker arrived, so each has read the rebind messages
            # queued ahead of this phase.
            self.arena.release_retired()
        busy = self._wbusy - busy0
        for i in range(self.n_workers):
            stats.thread_busy_s[i] += float(busy[i])
        steals = int(self._wsteal.sum()) - steal0
        stats.steals += steals
        if steals:
            obs.add_counter("procexec.steal_count", steals)
        return failure

    def _arm_phase(self, pool: _PoolState, lo: int, epoch: int) -> bool:
        """Reset the shared cursor and arm the completion barrier for
        one phase.  Bounded acquisition: False means the claim lock is
        poisoned and the caller must tear the pool down."""
        if not pool.lock.acquire(timeout=2.0):
            return False
        try:
            self._ctrl[CTRL_CURSOR] = int(lo)
            self._ctrl[CTRL_REMAINING] = self.n_workers
            self._ctrl[CTRL_ERRORS] = 0
            self._ctrl[CTRL_EPOCH] = int(epoch)
        finally:
            pool.lock.release()
        pool.event.clear()
        return True

    def _await_event(self, pool: _PoolState, pi: int, color: int,
                     epoch: int) -> Optional[PhaseExecutionError]:
        """Wait for the completion event — the phase barrier — scanning
        worker liveness/heartbeats between bounded waits, then drain
        exactly ``ctrl[CTRL_ERRORS]`` error payloads off the queue."""
        failure: Optional[PhaseExecutionError] = None
        poisoned = False
        t_dispatch = time.monotonic()
        handled: set = set()
        while True:
            if pool.event.wait(0.2):
                break
            failure, poisoned = self._scan_batch(
                pool, epoch, pi, color, t_dispatch, time.monotonic(),
                failure, handled)
            if poisoned:
                break
        wait_s = time.monotonic() - t_dispatch
        if obs.current() is not None:
            # dispatch_wait is the new name; barrier_wait is kept so
            # existing dashboards and the cross-process trace tests keep
            # seeing the per-phase barrier cost.
            obs.observe("procexec.dispatch_wait", wait_s, unit="s")
            obs.observe("procexec.barrier_wait", wait_s, unit="s")
        nerr = int(self._ctrl[CTRL_ERRORS])
        for _ in range(nerr):
            try:
                msg = pool.outq.get(timeout=2.0)
            except _queue.Empty:
                break
            _, slot, epi, ecolor, block, exc = msg
            if failure is None:
                failure = PhaseExecutionError(
                    f"block task crashed in worker {slot}: {exc!r}",
                    phase_index=epi, color=ecolor, block=block,
                    thread=slot)
                failure.__cause__ = exc
        if poisoned and failure is None:
            failure = PhaseExecutionError(
                "phase barrier poisoned: claim lock held by a dead "
                "worker", phase_index=pi, color=color)
        return failure

    def _scan_batch(self, pool: _PoolState, epoch: int, pi: int,
                    color: int, t_dispatch: float, now: float,
                    failure: Optional[PhaseExecutionError],
                    handled: set
                    ) -> Tuple[Optional[PhaseExecutionError], bool]:
        """One watchdog pass over workers that have not completed this
        epoch: collect dead workers (arriving at the barrier on their
        behalf so it still closes) and — when a ``hang_timeout`` is
        armed — SIGKILL any alive worker whose heartbeat has not moved
        since dispatch.  Returns (failure, lock_poisoned)."""
        poisoned = False
        for i in range(self.n_workers):
            if i in handled or int(self._wdone[i]) >= epoch:
                continue
            w = pool.workers[i]
            if not w.is_alive():
                handled.add(i)
                if failure is None:
                    failure = PhaseExecutionError(
                        f"worker {i} died before completing its share "
                        f"(exitcode {w.exitcode})",
                        phase_index=pi, color=color, thread=i)
                # Arrive on the dead worker's behalf so the last live
                # arrival still flips the event.  A bounded acquire:
                # the worker may have died holding the lock.
                if not pool.barrier.arrive(timeout=2.0):
                    poisoned = True
                continue
            if self.hang_timeout is None:
                continue
            # max() with t_dispatch: a worker that never reached its
            # first stamp (hung in queue pickup, heartbeat still at a
            # previous phase's value or 0) is measured from dispatch.
            silent_s = now - max(float(self._hb[i]), t_dispatch)
            if silent_s <= self.hang_timeout:
                continue
            w.kill()  # SIGKILL: the only signal a SIGSTOP'd worker obeys
            w.join(timeout=2.0)
            handled.add(i)
            obs.add_counter("procexec.watchdog_kills")
            if failure is None:
                failure = PhaseExecutionError(
                    f"watchdog killed worker {i}: no heartbeat for "
                    f"{silent_s:.2f}s (hang_timeout={self.hang_timeout}s)",
                    phase_index=pi, color=color, thread=i)
            if not pool.barrier.arrive(timeout=2.0):
                poisoned = True
        return failure, poisoned

    @staticmethod
    def _finish_phase(stats: ExecutionStats, color: int, n_tasks: int,
                      nnz: int, wall_s: float) -> None:
        stats.barriers += 1
        stats.phases.append(PhaseRecord(
            color=color, n_tasks=n_tasks, nnz=nnz, wall_s=wall_s))
        if obs.current() is None:
            return
        obs.add_counter("executor.barriers")
        obs.add_counter("executor.tasks", n_tasks)
        obs.add_counter("executor.phase_nnz", nnz)
        obs.observe("executor.phase_wall_s", wall_s, unit="s")
