"""The batching queue: many users' RHS vectors, one read of A.

Concurrent ``power`` requests for the same ``(matrix, k)`` are stacked
into one ``(n, m)`` block and advanced by a single multi-RHS
:meth:`~repro.core.fbmpk.FBMPKOperator.power_block` sweep — each
triangle of A is streamed once per stage *for the whole batch*, so the
paper's ``(k+1)/2`` traffic win is multiplied again by the batch width.
The block result is then de-interleaved back to the individual callers.

Sealing: a queue becomes a batch at the earliest of two points — when
``max_batch`` requests are queued, or when its gather window
(``gather_window_s``, counted from its first request) has passed *and*
its operator has no batch running.  Requests that arrive while a batch
runs keep gathering and are sealed the moment it completes, so the
batch width follows the load with no timer to pay: a lone request on
an idle operator runs at once (the default window is 0), and under
load each sweep takes whatever queued during the previous one.

Bit-identity: every ``power_block`` column is computed with exactly the
per-vector ``power`` arithmetic — each compiled sweep call sums every
column of a row in Algorithm 2's order, left to right onto the same
seed, so the column count changes nothing (:mod:`repro.core.kernels`).
A batched client therefore receives *the identical bits* an unbatched
serial call would have produced; the differential suite in
``tests/property`` proves it across dtypes, k values and executors.
Entries without ``power_block`` (``can_batch`` False: the unfused
operator) are served per-request inside the same queue
machinery instead.

Aliasing contract: responses are handed out as **owned copies**
(:func:`split_block`), never as views of the shared gather buffer or of
the operator's persistent block buffer — a later batch reusing those
buffers cannot mutate a response already sent.
"""

from __future__ import annotations

import asyncio
import functools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .. import obs
from ..parallel.executor import spawn_daemon_pool
from ..robust.errors import NonFiniteError
from ..robust.faults import fire as _fire_fault
from ..robust.resilience import Deadline
from .config import BATCH_WIDTH_BUCKETS, ServeConfig
from .protocol import ProtocolError, QueueFullError, ServiceClosedError
from .registry import ResidentOperator

__all__ = ["Batcher", "split_block"]


def split_block(Y: np.ndarray) -> List[np.ndarray]:
    """Split a ``(n, m)`` result block into ``m`` owned column vectors.

    ``Y[:, j]`` alone is a strided *view* into the block — handing that
    to a caller would alias the batch buffer (and, for ``m == 1``, even
    ``np.ascontiguousarray`` would pass the view through un-copied).
    ``.copy()`` is unconditional: every returned vector owns its data.
    """
    return [Y[:, j].copy() for j in range(Y.shape[1])]


@dataclass
class _Pending:
    """One queued request: its RHS and the future its caller awaits."""

    x: np.ndarray
    #: Resolved with ``(y, batch_width)`` or a :class:`ProtocolError`.
    future: "asyncio.Future"
    tenant: str
    #: The request's latency budget; checked again at flush time so an
    #: expired request is never admitted into a batch.
    deadline: Deadline = field(default_factory=Deadline.never)


@dataclass
class _Queue:
    """Requests gathering for one ``(operator, k)`` batch."""

    entry: ResidentOperator
    k: int
    items: List[_Pending] = field(default_factory=list)
    timer: Optional[asyncio.TimerHandle] = None
    #: The gather window has passed: seal as soon as the operator is
    #: idle.
    ripe: bool = False


class Batcher:
    """Seal-on-idle batching with admission control."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: Open queues, oldest first (a sealed queue is popped, and the
        #: next request for its key opens a new one at the end).
        self._queues: Dict[Tuple[int, int], _Queue] = {}
        self._inflight: Set[asyncio.Task] = set()
        #: ``id(entry)`` -> batches sealed on that operator and not yet
        #: complete; an operator absent here is idle.
        self._running: Dict[int, int] = {}
        self._pending = 0
        self._max_width = 0
        self._closing = False
        # Sweeps run on a dedicated pool of *daemon* threads, not the
        # event loop's default executor: asyncio.run joins the default
        # executor at shutdown, so a sweep wedged by a hung kernel
        # would wedge interpreter exit with it.  Daemon workers let the
        # bounded drain abandon a stuck batch and still exit cleanly.
        self._pool = None
        # Aliasing-audit hooks (held only with debug_keep_last).
        self.last_gather: Optional[np.ndarray] = None
        self.last_block: Optional[np.ndarray] = None
        self.last_outputs: Optional[List[np.ndarray]] = None

    # -- introspection ---------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests queued but not yet sealed into a batch."""
        return self._pending

    @property
    def inflight_batches(self) -> int:
        """Sealed batches currently executing."""
        return len(self._inflight)

    # -- submission ------------------------------------------------------
    async def submit(self, entry: ResidentOperator, x: np.ndarray,
                     k: int, deadline: Optional[Deadline] = None,
                     tenant: str = "-") -> Tuple[np.ndarray, int]:
        """Queue one RHS for ``entry``; returns ``(y, batch_width)``.

        Raises :class:`QueueFullError` when admission control turns the
        request away, :class:`ServiceClosedError` during drain, and
        whatever the sweep raised (mapped to a :class:`ProtocolError`)
        on compute failure.  An already-expired ``deadline`` raises
        :class:`~repro.robust.errors.DeadlineExceededError` before the
        request is queued; one that expires while gathering is rejected
        at flush time, and the batch runs without it.  Cancelling the
        awaiting coroutine simply abandons the slot — the batch still
        runs for everyone else.
        """
        if self._closing:
            raise ServiceClosedError()
        if deadline is not None:
            deadline.require("batch admission")
        if self._pending >= self.config.max_pending:
            raise QueueFullError(
                f"server is saturated ({self._pending} requests pending)")
        qk = (id(entry), k)
        q = self._queues.get(qk)
        if q is None:
            q = self._queues[qk] = _Queue(entry=entry, k=k)
        if len(q.items) >= self.config.max_queue:
            raise QueueFullError(
                f"queue for {entry.spec.describe()} k={k} is full "
                f"({len(q.items)} waiting)")
        loop = asyncio.get_running_loop()
        fut: "asyncio.Future" = loop.create_future()
        q.items.append(_Pending(x=x, future=fut, tenant=tenant,
                                deadline=deadline or Deadline.never()))
        self._pending += 1
        if len(q.items) >= self.config.max_batch:
            self._flush(qk)
        elif len(q.items) == 1:
            q.timer = loop.call_later(self.config.gather_window_s,
                                      self._window_passed, qk)
        return await fut

    # -- sealing ---------------------------------------------------------
    def _window_passed(self, qk: Tuple[int, int]) -> None:
        q = self._queues.get(qk)
        if q is None:
            return
        q.timer = None
        q.ripe = True
        self._seal_idle(qk[0])

    def _seal_idle(self, eid: int) -> None:
        """Seal the oldest ripe queue of operator ``eid`` if it has no
        batch running (the next, if every request of that one was
        cancelled or expired)."""
        while eid not in self._running:
            qk = next((key for key, q in self._queues.items()
                       if key[0] == eid and q.ripe), None)
            if qk is None:
                return
            self._flush(qk)

    def _batch_done(self, eid: int, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._running[eid] -= 1
        if not self._running[eid]:
            del self._running[eid]
            self._seal_idle(eid)

    # -- batch execution -------------------------------------------------
    def _flush(self, qk: Tuple[int, int]) -> None:
        """Seal the queue: move its requests into one executing batch."""
        q = self._queues.pop(qk, None)
        if q is None:
            return
        if q.timer is not None:
            q.timer.cancel()
        self._pending -= len(q.items)
        undone = [p for p in q.items if not p.future.done()]
        dropped = len(q.items) - len(undone)
        if dropped:
            obs.add_counter("serve.requests.cancelled", dropped)
        # A request whose deadline passed while gathering is rejected
        # here, before the batch is sealed: the sweep proceeds for
        # everyone else and never spends a column on a result nobody
        # can use any more.
        live: List[_Pending] = []
        for p in undone:
            if p.deadline.expired():
                obs.add_counter("serve.requests.expired_in_queue")
                p.future.set_exception(ProtocolError(
                    "deadline_exceeded",
                    "deadline expired while the request was queued"))
            else:
                live.append(p)
        if not live:
            return
        task = asyncio.get_running_loop().create_task(
            self._run_batch(q.entry, q.k, live))
        self._inflight.add(task)
        self._running[qk[0]] = self._running.get(qk[0], 0) + 1
        task.add_done_callback(functools.partial(self._batch_done, qk[0]))

    async def _run_batch(self, entry: ResidentOperator, k: int,
                         items: List[_Pending]) -> None:
        m = len(items)
        obs.add_counter("serve.batches")
        tel = obs.current()
        if tel is not None:
            # First creation fixes the buckets, so register the width
            # histogram explicitly rather than inheriting time buckets.
            tel.metrics.histogram("serve.batch.width",
                                  buckets=BATCH_WIDTH_BUCKETS).observe(m)
        if m > self._max_width:
            self._max_width = m
            obs.set_gauge("serve.batch.width.max", m)
        obs.add_counter(
            "serve.batched_requests" if entry.can_batch and m >= 1
            else "serve.unbatched_requests", m)
        loop = asyncio.get_running_loop()
        with obs.span("serve.batch", width=m, k=k,
                      matrix=entry.spec.key(), batched=entry.can_batch):
            X = np.stack([p.x for p in items], axis=1)
            try:
                Y = await loop.run_in_executor(
                    self._ensure_pool(), self._compute, entry, X, k)
            except asyncio.CancelledError:
                # Bounded drain abandoned this batch: its callers still
                # deserve a terminal response, not a forever-pending
                # future.
                self._fail(items, ServiceClosedError(
                    "server drain abandoned the batch"))
                raise
            except NonFiniteError as exc:
                self._fail(items, ProtocolError("non_finite", str(exc)))
                return
            except ProtocolError as exc:
                self._fail(items, exc)
                return
            except Exception as exc:
                self._fail(items, ProtocolError(
                    "internal", f"batched sweep failed: {exc!r}"))
                return
        outputs = split_block(Y)
        if self.config.debug_keep_last:
            self.last_gather = X
            self.last_block = Y
            self.last_outputs = outputs
        for p, y in zip(items, outputs):
            if not p.future.done():
                p.future.set_result((y, m))

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = spawn_daemon_pool(
                max_workers=4, thread_name_prefix="serve-batch")
        return self._pool

    def _compute(self, entry: ResidentOperator, X: np.ndarray,
                 k: int) -> np.ndarray:
        """Run the sweep in a worker thread, serialised per operator."""
        _fire_fault("serve.batch", width=X.shape[1], k=k,
                    matrix=entry.spec.key())
        with entry.compute_lock:
            if entry.can_batch:
                return entry.op.power_block(X, k, check_finite=True)
            cols = [entry.op.power(X[:, j].copy(), k, check_finite=True)
                    for j in range(X.shape[1])]
            return np.stack(cols, axis=1)

    @staticmethod
    def _fail(items: List[_Pending], exc: ProtocolError) -> None:
        for p in items:
            if not p.future.done():
                p.future.set_exception(exc)

    # -- lifecycle -------------------------------------------------------
    async def drain(self, timeout_s: Optional[float] = None) -> None:
        """Seal every open queue immediately and wait for all executing
        batches; new submissions are rejected from the first await on.

        ``timeout_s`` bounds the wait: batches still executing past it
        are abandoned (their requests get structured ``shutting_down``
        errors, their daemon worker threads die with the process)
        instead of wedging shutdown behind a hung sweep.
        """
        self._closing = True
        for qk in list(self._queues):
            self._flush(qk)
        deadline = Deadline.after(timeout_s) if timeout_s is not None \
            else Deadline.never()
        while self._inflight:
            done, pending = await asyncio.wait(
                list(self._inflight),
                timeout=deadline.remaining_or(None))
            if pending and deadline.expired():
                obs.add_counter("serve.drain.abandoned_batches",
                                len(pending))
                for task in pending:
                    task.cancel()
                await asyncio.gather(*pending, return_exceptions=True)
                break
        if self._pool is not None:
            # Daemon workers: never join (a hung sweep would block
            # exit); cancel what never started and let the rest die
            # with the process.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
