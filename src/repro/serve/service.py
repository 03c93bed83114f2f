"""Transport-agnostic solve service: parse → acquire → batch → respond.

:class:`SolveService` is the whole serving brain with no sockets in it:
:meth:`handle` takes one decoded request object and returns one
response object.  The TCP server (:mod:`repro.serve.server`) is a thin
framing shell around it, and the concurrency tests drive the service
directly on an event loop without any networking.

Request lifecycle for ``power``:

1. validate (:func:`repro.serve.protocol.parse_request`) — including a
   per-request finiteness check on ``x``, so one tenant's NaN input is
   rejected *before* it can poison a shared batch;
2. borrow the resident operator (:class:`OperatorRegistry.acquire` —
   first request per structure builds/tunes it, later ones hit);
3. queue the RHS on the batcher and await the batched result;
4. release the borrow (this is what lets LRU eviction close an
   operator only after its last in-flight request finishes).

A request carrying ``deadline_ms`` threads a monotonic
:class:`~repro.robust.resilience.Deadline` through steps 2–3: expiry at
any checkpoint (before acquire, before build, at batch admission, at
flush) returns a structured ``deadline_exceeded`` envelope without
running the sweep.  ``health`` reports in-flight load, circuit-breaker
states and pool-worker liveness; ``ready`` flips to false the moment a
drain begins.

Every failure path returns a structured error envelope; nothing in
:meth:`handle` raises except ``CancelledError`` (a disconnected
client's request is simply abandoned — its batch slot is dropped at
flush time).
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from .. import obs
from ..obs.slo import SLOTracker
from ..robust.errors import DeadlineExceededError
from ..robust.faults import fire as _fire_fault
from ..robust.resilience import Deadline
from .batcher import Batcher
from .config import ServeConfig
from .protocol import (
    ControlRequest,
    PowerRequest,
    ProtocolError,
    error_response,
    ok_response,
    parse_request,
)
from .registry import OperatorRegistry
from .spec import MatrixSpec

__all__ = ["SolveService"]

#: Rejection codes the ``stats`` op reports individual counts for.
REJECT_REASONS = ("queue_full", "deadline_exceeded", "too_large",
                  "shutting_down")


class SolveService:
    """Multi-tenant solve service over one registry and one batcher."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = (config or ServeConfig()).validate()
        self.registry = OperatorRegistry(self.config)
        self.batcher = Batcher(self.config)
        #: Set by an authorised ``shutdown`` request; the server waits
        #: on it to begin the drain.
        self.shutdown_requested = asyncio.Event()
        self._closed = False
        self._t_start = time.monotonic()
        #: ``power`` requests currently between parse and response, per
        #: tenant (event-loop thread only).
        self._inflight_by_tenant: Counter = Counter()
        #: Requests turned away, by structured rejection code.
        self._rejected_by_reason: Counter = Counter()
        #: SLO bookkeeping, bound lazily to the active telemetry
        #: session (None while telemetry is off).
        self._slo: Optional[SLOTracker] = None
        self._slo_session = None

    def _slo_tracker(self) -> Optional[SLOTracker]:
        """The SLO tracker over the *current* telemetry session's
        registry (rebuilt if the session changed; None when telemetry
        is off)."""
        tel = obs.current()
        if tel is None:
            return None
        if self._slo is None or self._slo_session is not tel:
            self._slo = SLOTracker(
                tel.metrics, target_ms=self.config.slo_target_ms,
                goal=self.config.slo_goal)
            self._slo_session = tel
        return self._slo

    # -- core compute path ----------------------------------------------
    async def power(self, spec: MatrixSpec, x: np.ndarray, k: int,
                    deadline: Optional[Deadline] = None
                    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """Compute ``A^k x`` through the resident operator and the
        batching queue; returns ``(y, meta)``.

        This is the embedding/test entry point; :meth:`handle` wraps it
        with protocol envelopes.  Raises :class:`ProtocolError`
        subclasses on rejection or failure, and
        :class:`~repro.robust.errors.DeadlineExceededError` when
        ``deadline`` runs out before the request reaches a batch.
        """
        entry = await self.registry.acquire(spec, deadline=deadline)
        try:
            if x.shape[0] != entry.n:
                raise ProtocolError(
                    "bad_request",
                    f"x: expected {entry.n} entries for "
                    f"{spec.describe()}, got {x.shape[0]}")
            y, width = await self.batcher.submit(entry, x, k,
                                                 deadline=deadline)
            meta = {
                "n": entry.n,
                "k": k,
                "plan_source": entry.source,
                "fingerprint": entry.fingerprint_key,
                "batched": entry.can_batch,
                "batch_width": width,
            }
            return y, meta
        finally:
            self.registry.release(entry)

    # -- protocol dispatch ----------------------------------------------
    async def handle(self, obj: Any) -> Dict[str, Any]:
        """Serve one decoded request object; always returns a response
        object (never raises, except ``CancelledError``)."""
        rid = obj.get("id") if isinstance(obj, Mapping) else None
        try:
            req = parse_request(obj, max_rows=self.config.max_rows,
                                allow_paths=self.config.allow_paths)
        except ProtocolError as exc:
            if exc.code in REJECT_REASONS:  # e.g. too_large at parse
                return self._reject(rid, exc.code, exc.message)
            obs.add_counter("serve.requests.failed")
            return error_response(rid, exc.code, exc.message)
        obs.add_counter("serve.requests")
        obs.add_counter(f"serve.tenant.{req.tenant}.requests")
        if isinstance(req, ControlRequest):
            return await self._handle_control(req)
        return await self._handle_power(req)

    async def _handle_power(self, req: PowerRequest) -> Dict[str, Any]:
        """Serve one ``power`` request and account it against the SLO:
        wall time from dispatch to response envelope, *good* iff the
        response is ``ok`` and under ``slo_target_ms``."""
        t0 = time.perf_counter()
        resp = await self._power_response(req)
        slo = self._slo_tracker()
        if slo is not None:
            slo.record(time.perf_counter() - t0,
                       ok=bool(resp.get("ok")))
        return resp

    async def _power_response(self, req: PowerRequest) -> Dict[str, Any]:
        if not np.isfinite(req.x).all():
            obs.add_counter("serve.requests.failed")
            return error_response(req.id, "non_finite",
                                  "x contains NaN/Inf entries")
        self._inflight_by_tenant[req.tenant] += 1
        try:
            with obs.span("serve.request", tenant=req.tenant,
                          matrix=req.spec.key(), k=req.k):
                _fire_fault("serve.request", tenant=req.tenant,
                            rid=req.id)
                y, meta = await self.power(req.spec, req.x, req.k,
                                           deadline=req.deadline)
        except asyncio.CancelledError:
            raise
        except DeadlineExceededError as exc:
            return self._reject(req.id, "deadline_exceeded", str(exc))
        except ProtocolError as exc:
            if exc.code in REJECT_REASONS:
                return self._reject(req.id, exc.code, exc.message)
            obs.add_counter("serve.requests.failed")
            return error_response(req.id, exc.code, exc.message)
        except Exception as exc:  # defensive: nothing below should leak
            obs.add_counter("serve.requests.failed")
            return error_response(req.id, "internal", repr(exc))
        finally:
            self._inflight_by_tenant[req.tenant] -= 1
            if self._inflight_by_tenant[req.tenant] <= 0:
                del self._inflight_by_tenant[req.tenant]
        obs.add_counter("serve.requests.completed")
        # ``y`` is an owned contiguous column (split_block): the codec
        # writes it straight from the array.
        return ok_response(req.id, y=y, meta=meta)

    def _reject(self, rid: Any, code: str, message: str
                ) -> Dict[str, Any]:
        """Record one admission-control rejection and build its
        response envelope."""
        self._rejected_by_reason[code] += 1
        obs.add_counter("serve.requests.rejected")
        obs.add_counter(f"serve.rejected.{code}")
        return error_response(rid, code, message)

    async def _handle_control(self, req: ControlRequest
                              ) -> Dict[str, Any]:
        if req.op == "ping":
            return ok_response(req.id, pong=True)
        if req.op == "stats":
            return ok_response(req.id, stats=self.stats())
        if req.op == "health":
            return ok_response(req.id, health=self.health())
        if req.op == "ready":
            draining = self.shutdown_requested.is_set() or self._closed
            return ok_response(req.id, ready=not draining)
        if req.op == "metrics":
            tel = obs.current()
            slo = self._slo_tracker()
            return ok_response(
                req.id,
                metrics=tel.metrics.snapshot() if tel is not None
                else None,
                slo=slo.snapshot() if slo is not None else None)
        # req.op == "shutdown"
        if not self.config.allow_shutdown:
            obs.add_counter("serve.requests.failed")
            return error_response(
                req.id, "bad_request",
                "shutdown over the wire is disabled on this server")
        self.shutdown_requested.set()
        return ok_response(req.id, draining=True)

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Live service state plus a metrics snapshot (when a telemetry
        session is active)."""
        tel = obs.current()
        slo = self._slo_tracker()
        return {
            "uptime_s": time.monotonic() - self._t_start,
            "slo": slo.snapshot() if slo is not None else None,
            "residents": self.registry.residents,
            "resident_keys": self.registry.resident_keys(),
            "pending": self.batcher.pending,
            "inflight_batches": self.batcher.inflight_batches,
            "inflight_by_tenant": dict(self._inflight_by_tenant),
            "rejected_by_reason": {
                code: self._rejected_by_reason.get(code, 0)
                for code in REJECT_REASONS},
            "draining": self.shutdown_requested.is_set() or self._closed,
            "metrics": tel.metrics.snapshot() if tel is not None else None,
        }

    def health(self) -> Dict[str, Any]:
        """Liveness detail for the ``health`` op: in-flight load,
        circuit-breaker states and pool-worker liveness per resident
        operator (``None`` liveness = no process pool spawned)."""
        slo = self._slo_tracker()
        return {
            "inflight": sum(self._inflight_by_tenant.values()),
            "slo": slo.snapshot() if slo is not None else None,
            "pending": self.batcher.pending,
            "inflight_batches": self.batcher.inflight_batches,
            "breakers": self.registry.breaker_snapshots(),
            "workers": self.registry.worker_health(),
            "draining": self.shutdown_requested.is_set() or self._closed,
        }

    # -- lifecycle -------------------------------------------------------
    async def close(self, timeout_s: Optional[float] = None) -> None:
        """Drain: seal open queues, finish in-flight batches, then close
        every resident operator.  Idempotent.

        ``timeout_s`` (default ``config.drain_timeout_s``) bounds the
        drain — a batch wedged past it is abandoned with structured
        errors instead of wedging shutdown.
        """
        if self._closed:
            return
        self._closed = True
        self.shutdown_requested.set()
        await self.batcher.drain(
            timeout_s=timeout_s if timeout_s is not None
            else self.config.drain_timeout_s)
        self.registry.close()
