"""Cross-process span rings: worker-recorded spans, dispatcher-merged.

The process-pool workers of :mod:`repro.parallel.procexec` cannot reach
the parent's :class:`~repro.obs.tracing.TraceRecorder` — it lives on the
other side of a ``fork``.  What they *can* reach is the shared-memory
arena the pool already maps.  This module defines a fixed-capacity,
lock-free span ring laid out over three plain numpy arrays in that
arena — one single-writer/single-reader ring per worker — plus the
merge step that folds the worker records back into the dispatcher's
recorder as ordinary :class:`~repro.obs.tracing.SpanRecord` entries
with the worker's OS pid attached, so ``chrome://tracing`` shows one
lane per process.

Record layout (one record = one row across the two data arrays):

===========  =====  ====================================================
field        array  meaning
===========  =====  ====================================================
kind         ints   :data:`KIND_EXEC` (bin execution) /
                    :data:`KIND_WAIT` (idle between phases = barrier
                    wait + dispatch latency, measured worker-side)
phase        ints   phase index within the ``run_batched`` call
color        ints   colour of the phase
n_blocks     ints   block tasks in the worker's bin
parent_id    ints   span id of the dispatcher's ``executor.phase`` span
                    (-1 = none)
trace_id     ints   the dispatcher recorder's 63-bit trace id
sweep        ints   index into :data:`repro.parallel.procexec.SWEEPS`
pid          ints   the worker's OS pid (stamped by the worker itself,
                    so the merge needs no liveness assumptions)
t0, dur      flts   ``time.monotonic()`` start + duration in seconds
===========  =====  ====================================================

Correlation contract: every record carries the trace id the dispatcher
propagated in the phase descriptor; :meth:`RingReader.drain` merges
**only** records stamped with the merging recorder's own trace id —
records left over from a previous telemetry session can never leak into
the wrong trace.  Timestamps are ``CLOCK_MONOTONIC`` (system-wide on
Linux), converted to the recorder's timebase at merge time.

Overflow: a writer that laps the reader overwrites oldest-first; the
reader detects the lap, resynchronises to the oldest surviving record
and reports how many were dropped (surfaced as the
``procexec.spans_dropped`` counter).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .tracing import SpanRecord, TraceRecorder

__all__ = [
    "KIND_EXEC",
    "KIND_WAIT",
    "KIND_NAMES",
    "RING_FIELDS_I",
    "RING_FIELDS_F",
    "DEFAULT_RING_CAPACITY",
    "ring_shapes",
    "RingWriter",
    "RingReader",
]

KIND_EXEC = 1
KIND_WAIT = 2

#: Span names the merge step gives each record kind.
KIND_NAMES = {KIND_EXEC: "procexec.worker.exec",
              KIND_WAIT: "procexec.worker.wait"}

#: Integer fields per record (int64).
RING_FIELDS_I = ("kind", "phase", "color", "n_blocks", "parent_id",
                 "trace_id", "sweep", "pid")
#: Float fields per record (float64).
RING_FIELDS_F = ("t0", "dur")

#: Records retained per worker before the ring wraps.
DEFAULT_RING_CAPACITY = 2048


def ring_shapes(n_workers: int, capacity: int = DEFAULT_RING_CAPACITY
                ) -> Tuple[Tuple[int, ...], Tuple[int, ...],
                           Tuple[int, ...]]:
    """Shapes of the ``(ints, floats, counts)`` backing arrays."""
    return ((n_workers, capacity, len(RING_FIELDS_I)),
            (n_workers, capacity, len(RING_FIELDS_F)),
            (n_workers,))


class RingWriter:
    """Worker-side handle: append records to this worker's ring slice.

    Single-writer by construction (each worker owns row ``worker_id``);
    the write counter is bumped *after* the record body is written, so a
    reader that stops at the counter never sees a torn record.
    """

    __slots__ = ("_ints", "_floats", "_counts", "_wid", "_cap")

    def __init__(self, ints: np.ndarray, floats: np.ndarray,
                 counts: np.ndarray, worker_id: int) -> None:
        self._ints = ints
        self._floats = floats
        self._counts = counts
        self._wid = int(worker_id)
        self._cap = int(ints.shape[1])

    def record(self, kind: int, phase: int, color: int, n_blocks: int,
               parent_id: int, trace_id: int, sweep: int, pid: int,
               t0: float, dur: float) -> None:
        """Append one span record (oldest record is overwritten when
        the ring is full)."""
        n = int(self._counts[self._wid])
        slot = n % self._cap
        self._ints[self._wid, slot] = (kind, phase, color, n_blocks,
                                       parent_id, trace_id, sweep, pid)
        self._floats[self._wid, slot, 0] = t0
        self._floats[self._wid, slot, 1] = dur
        self._counts[self._wid] = n + 1


class RingReader:
    """Dispatcher-side handle: drain new records into a recorder.

    Keeps one read cursor per worker ring; each :meth:`drain` call
    merges everything written since the previous call.
    """

    def __init__(self, ints: np.ndarray, floats: np.ndarray,
                 counts: np.ndarray) -> None:
        self._ints = ints
        self._floats = floats
        self._counts = counts
        self._cap = int(ints.shape[1])
        self._read: List[int] = [0] * int(ints.shape[0])
        self._next_foreign_id = -2  # -1 is "no parent"

    def drain(self, recorder: TraceRecorder,
              sweep_names: Optional[Tuple[str, ...]] = None
              ) -> Tuple[int, int]:
        """Merge every unread record carrying ``recorder.trace_id``.

        Returns ``(merged, dropped)`` where ``dropped`` counts records
        lost to ring overflow (writer lapped the reader).  Records from
        other trace ids (a previous telemetry session's leftovers) are
        skipped silently — they belong to nobody reachable any more.
        """
        merged = dropped = 0
        for wid in range(self._ints.shape[0]):
            wrote = int(self._counts[wid])
            read = self._read[wid]
            if wrote - read > self._cap:
                dropped += wrote - read - self._cap
                read = wrote - self._cap
            for n in range(read, wrote):
                slot = n % self._cap
                (kind, phase, color, n_blocks, parent_id, trace_id,
                 sweep, pid) = (int(v) for v in self._ints[wid, slot])
                if trace_id != recorder.trace_id:
                    continue
                t0 = recorder.from_monotonic(
                    float(self._floats[wid, slot, 0]))
                dur = max(0.0, float(self._floats[wid, slot, 1]))
                name = KIND_NAMES.get(kind, f"procexec.worker.{kind}")
                attrs = {
                    "worker": wid,
                    "phase": phase,
                    "colour": color,
                    "trace_id": f"{trace_id:016x}",
                }
                if kind == KIND_EXEC:
                    attrs["n_blocks"] = n_blocks
                if sweep_names is not None \
                        and 0 <= sweep < len(sweep_names):
                    attrs["sweep"] = sweep_names[sweep]
                recorder.add_record(SpanRecord(
                    name=name, ts=t0, dur=dur, thread=wid,
                    span_id=self._next_foreign_id,
                    parent_id=parent_id if parent_id >= 0 else None,
                    kind="span", attrs=attrs, pid=pid))
                self._next_foreign_id -= 1
                merged += 1
            self._read[wid] = wrote
        return merged, dropped
