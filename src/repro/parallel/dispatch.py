"""Batched descriptor dispatch for the colour-phase executors.

The legacy dispatch path shipped one message per block bin per phase
(processes) or one pool submission per bin per phase (threads); with
small blocks the per-message cost dominated the phase and the process
backend gave a third of FBMPK's memory-traffic win back to the runtime.
This module packs the whole phase schedule once, at plan time, into
contiguous numpy **descriptor arrays** — ``starts``/``stops``/``nnz``
per block plus a CSR-style ``phase_ptr`` — so a sweep performs *one
enqueue per phase per worker* (a ``(phase_idx, lo, hi)`` triple) and
workers claim blocks from the shared arrays via a chunked work-stealing
cursor.

Both executors consume the same :class:`DescriptorBatch`:

* :class:`~repro.parallel.executor.ThreadedPhaseExecutor` drives a
  :class:`ThreadCursor` (a plain lock-guarded counter in process
  memory);
* :class:`~repro.parallel.procexec.ProcessPhaseExecutor` drives a
  :class:`SharedCursor`/:class:`CompletionBarrier` pair over an
  arena-resident int64 control slab guarded by a ``multiprocessing``
  lock (a futex-backed POSIX semaphore — the portable CPython stand-in
  for a CAS loop; the critical section is a single fetch-and-add).

Operators do not dispatch one descriptor per block.  At ABMC's default
one-row blocks that would be one kernel call per row, and Python
dispatch would dominate the sweep.  :meth:`DescriptorBatch.coalesced`
merges each phase's contiguous same-colour blocks into at most
``n_workers`` row ranges, balanced by work and cut only at block
boundaries or between independent rows, so a worker makes about one
kernel call per phase; with one part the same packer yields the serial
sweeps' one segment per colour.

Bit-identity is preserved by construction: descriptors are only ever
reordered *within* a phase (colour), and same-colour blocks touch
disjoint vector elements, so per-colour block results are
order-independent — any claim order yields the serial bits.  The
per-phase descriptor order itself mirrors the legacy assignment
policies (``lpt`` consumes blocks largest-first, ``round_robin`` and
``dynamic`` in declared order), so the batch is a permutation of the
legacy per-block dispatch order within each colour.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import kernels
from .scheduler import BlockTask, Phase

__all__ = [
    "CTRL_CURSOR",
    "CTRL_REMAINING",
    "CTRL_EPOCH",
    "CTRL_ERRORS",
    "CTRL_SLOTS",
    "DescriptorBatch",
    "ThreadCursor",
    "SharedCursor",
    "CompletionBarrier",
    "default_claim_chunk",
    "ordered_tasks",
    "pin_worker",
]

#: Slot layout of the arena-resident control slab (int64 array).
CTRL_CURSOR = 0      #: next unclaimed global descriptor index
CTRL_REMAINING = 1   #: workers yet to arrive at the phase barrier
CTRL_EPOCH = 2       #: monotonically increasing phase epoch (debugging)
CTRL_ERRORS = 3      #: error messages workers have queued this phase
CTRL_SLOTS = 4


def ordered_tasks(tasks: Sequence[BlockTask],
                  policy: str) -> List[BlockTask]:
    """A phase's tasks in the order the batched dispatcher exposes them.

    Mirrors the consumption order of the legacy
    :func:`~repro.parallel.scheduler.assign_tasks` policies: ``lpt``
    claims the largest blocks first (stable sort, so equal-nnz blocks
    keep their declared order), ``round_robin`` and ``dynamic`` claim in
    declared order.  Always a permutation of ``tasks``.
    """
    if policy == "lpt":
        return sorted(tasks, key=lambda t: -t.nnz)
    if policy in ("round_robin", "dynamic"):
        return list(tasks)
    raise ValueError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class DescriptorBatch:
    """The whole phase schedule as contiguous descriptor arrays.

    ``starts``/``stops``/``nnz`` hold one entry per block, grouped by
    phase; ``phase_ptr`` is the CSR-style offset array (phase ``p``
    owns global descriptor indices ``[phase_ptr[p], phase_ptr[p+1])``)
    and ``colors[p]`` the phase's colour.  ``starts``/``stops`` and
    ``phase_ptr`` are all a worker needs to execute, so only those two
    cross the process boundary (as shared-memory segments).
    """

    starts: np.ndarray
    stops: np.ndarray
    nnz: np.ndarray
    phase_ptr: np.ndarray
    colors: np.ndarray
    policy: str = "lpt"
    #: Optional per-descriptor update-kind tags (int64, aligned with
    #: ``starts``).  Colour-phase sweeps leave this ``None`` (the sweep
    #: name fixes the kernel); the levels-blocked schedule mixes powers
    #: inside one phase, so each descriptor carries its own op.
    ops: Optional[np.ndarray] = None
    #: Optional per-descriptor flags (bool, aligned with ``starts``):
    #: the block's rows depend on each other under the triangle the
    #: phases sweep, so the sweep kernels take two calls on it (see
    #: :mod:`repro.core.kernels`).  Fixed by the schedule, so computed
    #: once here; ``None`` when the batch was packed without a triangle.
    chained: Optional[np.ndarray] = None

    @classmethod
    def from_phases(cls, phases: Sequence[Phase], policy: str = "lpt",
                    tri=None) -> "DescriptorBatch":
        """Pack ``phases`` (the legacy schedule) into descriptor arrays,
        ordering each phase's blocks per :func:`ordered_tasks`.  Given
        ``tri``, the CSR triangle the phases sweep, the batch also
        carries the :attr:`chained` flags."""
        starts: List[int] = []
        stops: List[int] = []
        nnzs: List[int] = []
        ptr = [0]
        colors = []
        for phase in phases:
            for t in ordered_tasks(phase.tasks, policy):
                starts.append(t.start)
                stops.append(t.stop)
                nnzs.append(t.nnz)
            ptr.append(len(starts))
            colors.append(phase.color)
        starts_a = np.asarray(starts, dtype=np.int64)
        stops_a = np.asarray(stops, dtype=np.int64)
        chained = None if tri is None else kernels.chained_ranges(
            tri.indptr, tri.indices, starts_a, stops_a)
        return cls(
            starts=starts_a,
            stops=stops_a,
            nnz=np.asarray(nnzs, dtype=np.int64),
            phase_ptr=np.asarray(ptr, dtype=np.int64),
            colors=np.asarray(colors, dtype=np.int64),
            policy=policy,
            chained=chained,
        )

    @property
    def n_phases(self) -> int:
        return len(self.phase_ptr) - 1

    @property
    def n_blocks(self) -> int:
        return int(self.phase_ptr[-1])

    def phase_range(self, pi: int) -> Tuple[int, int]:
        """Global descriptor index range ``[lo, hi)`` of phase ``pi``."""
        return int(self.phase_ptr[pi]), int(self.phase_ptr[pi + 1])

    def phase_nnz(self, pi: int) -> int:
        lo, hi = self.phase_range(pi)
        return int(self.nnz[lo:hi].sum())

    def phase_color(self, pi: int) -> int:
        return int(self.colors[pi])

    @classmethod
    def from_op_phases(cls, phases: Sequence[Sequence[Tuple[int, int,
                                                            int, int]]],
                       policy: str = "lpt") -> "DescriptorBatch":
        """Pack per-phase ``(start, stop, nnz, op)`` descriptor lists
        (the levels-blocked schedule of
        :func:`repro.reorder.levels_blocked.blocked_descriptors`) into a
        batch whose descriptors carry their update kind in :attr:`ops`.
        Phase index doubles as the colour; within a phase descriptors
        are exposed per the same :func:`ordered_tasks` policies."""
        starts: List[int] = []
        stops: List[int] = []
        nnzs: List[int] = []
        op_tags: List[int] = []
        ptr = [0]
        colors = []
        for pi, descs in enumerate(phases):
            if policy == "lpt":
                descs = sorted(descs, key=lambda t: -t[2])
            elif policy not in ("round_robin", "dynamic"):
                raise ValueError(f"unknown policy {policy!r}")
            for start, stop, nnz, op in descs:
                starts.append(start)
                stops.append(stop)
                nnzs.append(nnz)
                op_tags.append(op)
            ptr.append(len(starts))
            colors.append(pi)
        return cls(
            starts=np.asarray(starts, dtype=np.int64),
            stops=np.asarray(stops, dtype=np.int64),
            nnz=np.asarray(nnzs, dtype=np.int64),
            phase_ptr=np.asarray(ptr, dtype=np.int64),
            colors=np.asarray(colors, dtype=np.int64),
            policy=policy,
            ops=np.asarray(op_tags, dtype=np.int64),
        )

    def coalesced(self, n_parts: int, tri) -> "DescriptorBatch":
        """This batch with each phase's blocks merged into row ranges:
        runs of blocks that are contiguous in row order, further cut at
        the block boundaries nearest the ``n_parts - 1`` points that
        split the phase's work (stored entries plus rows) evenly.  A
        block whose rows do not depend on each other under ``tri`` (not
        chained) counts as one block per row here, so it can be cut
        anywhere.  A phase of ``r`` runs gets at most
        ``r + n_parts - 1`` ranges; an ABMC colour is one contiguous
        run, so its phase becomes at most ``n_parts`` descriptors —
        about one kernel call per worker instead of one per block.

        Same-colour blocks share no entries, so a merged range's rows
        depend on each other only inside its blocks; the :attr:`chained`
        flags are recomputed on the merged ranges against ``tri``, the
        triangle the phases sweep, and every row keeps its arithmetic.
        Ranges are ordered per :func:`ordered_tasks` (``lpt``: largest
        first)."""
        if n_parts < 1:
            raise ValueError("n_parts must be positive")
        src = self._split_unchained(tri) if n_parts > 1 else self
        starts = [np.zeros(0, dtype=np.int64)]
        stops = [np.zeros(0, dtype=np.int64)]
        nnzs = [np.zeros(0, dtype=np.int64)]
        ptr = [0]
        for pi in range(src.n_phases):
            lo, hi = src.phase_range(pi)
            order = np.argsort(src.starts[lo:hi], kind="stable") + lo
            s, e, z = src.starts[order], src.stops[order], src.nnz[order]
            n = s.shape[0]
            if n:
                # Block boundaries b = 1 .. n-1 where a range may start:
                # every gap between runs, plus the boundary nearest each
                # of the n_parts - 1 equal-work targets.
                cuts = set((np.nonzero(s[1:] != e[:-1])[0] + 1).tolist())
                work = np.cumsum(z + (e - s))
                before = work[:-1]  # work ahead of boundary b = j + 1
                if n_parts > 1 and n > 1:
                    targets = work[-1] * np.arange(1, n_parts) / n_parts
                    j = np.searchsorted(before, targets)
                    lo_j = np.clip(j - 1, 0, n - 2)
                    hi_j = np.clip(j, 0, n - 2)
                    pick = np.where(np.abs(before[lo_j] - targets)
                                    <= np.abs(before[hi_j] - targets),
                                    lo_j, hi_j)
                    cuts.update((pick + 1).tolist())
                first = np.array([0] + sorted(cuts), dtype=np.int64)
                last = np.append(first[1:], n) - 1
                rs, re, rz = s[first], e[last], np.add.reduceat(z, first)
                if self.policy == "lpt":
                    keep = np.argsort(-rz, kind="stable")
                    rs, re, rz = rs[keep], re[keep], rz[keep]
                starts.append(rs)
                stops.append(re)
                nnzs.append(rz)
                n = rs.shape[0]
            ptr.append(ptr[-1] + n)
        starts_a = np.concatenate(starts)
        stops_a = np.concatenate(stops)
        return DescriptorBatch(
            starts=starts_a,
            stops=stops_a,
            nnz=np.concatenate(nnzs),
            phase_ptr=np.asarray(ptr, dtype=np.int64),
            colors=self.colors,
            policy=self.policy,
            chained=kernels.chained_ranges(tri.indptr, tri.indices,
                                           starts_a, stops_a),
        )

    def _split_unchained(self, tri) -> "DescriptorBatch":
        """This batch with every multi-row block whose rows are
        independent under ``tri`` cut into one-row blocks (phases and
        other blocks unchanged), so :meth:`coalesced` may cut inside
        it."""
        lens = self.stops - self.starts
        split = (lens > 1) & ~kernels.chained_ranges(
            tri.indptr, tri.indices, self.starts, self.stops)
        pieces = np.where(split, lens, 1)
        block = np.repeat(np.arange(lens.shape[0]), pieces)
        row = np.arange(block.shape[0]) \
            - np.repeat(np.cumsum(pieces) - pieces, pieces)
        whole = ~split[block]
        starts = np.where(whole, self.starts[block],
                          self.starts[block] + row)
        stops = np.where(whole, self.stops[block], starts + 1)
        nnz = np.where(whole, self.nnz[block],
                       tri.indptr[stops] - tri.indptr[starts])
        ends = np.concatenate(([0], np.cumsum(pieces)))
        return DescriptorBatch(starts=starts, stops=stops, nnz=nnz,
                               phase_ptr=ends[self.phase_ptr],
                               colors=self.colors, policy=self.policy)

    def pack_rows(self) -> np.ndarray:
        """The int64 plan table shipped to workers: ``(2, n_blocks)``
        (row 0 = starts, row 1 = stops), or ``(4, n_blocks)`` when the
        batch carries :attr:`ops` or :attr:`chained`: row 2 holds the op
        tags (-1 without them), row 3 the chained flags (0 without)."""
        if self.ops is None and self.chained is None:
            return np.vstack([self.starts, self.stops])
        n = self.starts.shape[0]
        ops = np.full(n, -1, dtype=np.int64) if self.ops is None \
            else self.ops
        chained = np.zeros(n, dtype=np.int64) if self.chained is None \
            else self.chained.astype(np.int64)
        return np.vstack([self.starts, self.stops, ops, chained])


def default_claim_chunk(n_blocks: int, n_workers: int) -> int:
    """Blocks a worker claims per cursor round-trip in a phase.

    ``n_blocks / (4 * n_workers)``, floored at 1: every worker gets ~4
    steals per phase, enough to rebalance stragglers while keeping lock
    traffic negligible.  A coalesced batch has at most one descriptor
    per worker per phase, so its chunk is 1."""
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    return max(1, n_blocks // (4 * n_workers))


class ThreadCursor:
    """In-process chunked-claim cursor (the threads-backend variant)."""

    __slots__ = ("_lock", "_next")

    def __init__(self, lo: int = 0) -> None:
        self._lock = threading.Lock()
        self._next = int(lo)

    def reset(self, lo: int) -> None:
        with self._lock:
            self._next = int(lo)

    def claim(self, hi: int, chunk: int) -> Tuple[int, int]:
        """Claim up to ``chunk`` descriptors below ``hi``; returns the
        claimed ``[lo, hi)`` range (empty when the cursor is drained)."""
        with self._lock:
            lo = self._next
            if lo >= hi:
                return hi, hi
            new = min(lo + int(chunk), hi)
            self._next = new
        return lo, new


class SharedCursor:
    """Chunked-claim cursor over an arena-resident int64 control slab.

    The counter lives in shared memory (``ctrl[CTRL_CURSOR]``); mutual
    exclusion comes from a ``multiprocessing`` lock created by the pool
    owner and inherited by every worker at spawn.  The critical section
    is a single bounded fetch-and-add, so contention stays at the cost
    of one futex round-trip per *chunk*, not per block.
    """

    __slots__ = ("ctrl", "lock")

    def __init__(self, ctrl: np.ndarray, lock) -> None:
        self.ctrl = ctrl
        self.lock = lock

    def reset(self, lo: int) -> None:
        """Point the cursor at ``lo`` (dispatcher-side, between phases,
        while every worker is parked on its queue)."""
        self.ctrl[CTRL_CURSOR] = int(lo)

    def claim(self, hi: int, chunk: int) -> Tuple[int, int]:
        """Claim up to ``chunk`` descriptors below ``hi``; returns the
        claimed ``[lo, hi)`` range (empty when the phase is drained)."""
        with self.lock:
            lo = int(self.ctrl[CTRL_CURSOR])
            if lo >= hi:
                return hi, hi
            new = min(lo + int(chunk), hi)
            self.ctrl[CTRL_CURSOR] = new
        return lo, new


class CompletionBarrier:
    """Shared-memory atomic completion counter + one futex-style event.

    Replaces per-block acknowledgement round-trips: the dispatcher arms
    the barrier with the number of dispatched workers, every worker
    calls :meth:`arrive` exactly once per phase (in a ``finally``, so
    an erroring worker still closes the barrier), and the last arrival
    flips the event the dispatcher is waiting on.  A worker that dies
    *without* arriving leaves ``remaining > 0``; the dispatcher's
    bounded wait loop detects it (liveness/heartbeat scan) and arrives
    on the dead worker's behalf, so the barrier still closes and the
    ordinary failure path takes over.

    Every lock acquisition is bounded: a worker SIGKILL'd inside the
    critical section poisons the lock, and an unbounded ``acquire``
    would convert that into a dispatcher hang.  :meth:`arrive` returns
    False on a poisoned lock so callers can escalate to pool teardown
    (which replaces the lock) instead of blocking.
    """

    __slots__ = ("ctrl", "lock", "event")

    def __init__(self, ctrl: np.ndarray, lock, event) -> None:
        self.ctrl = ctrl
        self.lock = lock
        self.event = event

    def arm(self, n: int) -> None:
        """Dispatcher-side: expect ``n`` arrivals, event cleared."""
        self.ctrl[CTRL_REMAINING] = int(n)
        self.event.clear()

    def arrive(self, timeout: Optional[float] = None) -> bool:
        """One arrival: decrement the counter, last one out sets the
        event.  Returns False if the lock could not be acquired within
        ``timeout`` (poisoned by a worker killed mid-claim)."""
        if timeout is None:
            acquired = self.lock.acquire()
        else:
            acquired = self.lock.acquire(timeout=timeout)
        if not acquired:
            return False
        try:
            self.ctrl[CTRL_REMAINING] -= 1
            remaining = int(self.ctrl[CTRL_REMAINING])
        finally:
            self.lock.release()
        if remaining <= 0:
            self.event.set()
        return True

    def remaining(self) -> int:
        """Dirty read of the arrival counter (scan/diagnostics only)."""
        return int(self.ctrl[CTRL_REMAINING])

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.event.wait(timeout)


def pin_worker(slot: int, enable: Optional[bool] = None) -> Optional[int]:
    """Best-effort deterministic CPU pinning for worker ``slot``.

    Pins the calling process to one CPU of its inherited affinity mask,
    chosen round-robin by slot, so repeated pool spawns land workers on
    the same cores (cache locality across sweeps).  ``enable=None``
    (auto) pins only when at least two CPUs are available — pinning
    everything onto a single CPU would serialise the pool.  Gracefully
    no-ops (returns None) on platforms without ``sched_setaffinity`` or
    when the syscall is denied.
    """
    if enable is False:
        return None
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return None
    if enable is None and len(cpus) < 2:
        return None
    if not cpus:
        return None
    cpu = cpus[slot % len(cpus)]
    try:
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
