"""Resident-operator registry: first request pays, the rest hit.

The registry maps a :class:`~repro.serve.spec.MatrixSpec` to a pinned
:class:`~repro.core.fbmpk.FBMPKOperator`.  The first request for a
structure materialises the matrix and — in ``tune="full"`` mode — runs
:func:`repro.tune.autotune_power`, whose persistent plan cache makes a
warm structure skip both the search *and* the preprocessing (the OSKI
workflow: only the first request per structure, ever, pays).  All later
requests hit the resident operator directly.

Concurrency contract:

* Concurrent first-requests for the same spec serialise on a per-key
  ``asyncio.Lock`` and build exactly once (the loser of the race finds
  the entry on re-check).  Cross-*process* first-requests serialise on
  the plan cache's file lock (see :meth:`repro.tune.cache.PlanCache.lock`).
* Residency is LRU-bounded by ``max_resident``.  Eviction never
  interrupts in-flight work: each borrowed entry carries a reference
  count, and an evicted operator is only closed when the count drops to
  zero.  Requests that still hold the evicted entry finish on it;
  requests arriving after eviction rebuild a fresh one.
* An operator instance must not run overlapping sweeps, so each entry
  carries a ``compute_lock`` the batcher holds around every
  ``power``/``power_block`` call.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Dict, Optional

from .. import obs
from ..core.fbmpk import FBMPKOperator, build_fbmpk_operator
from ..robust.resilience import CircuitBreaker, Deadline
from ..tune.fingerprint import fingerprint_matrix
from .config import ServeConfig
from .protocol import ProtocolError, ServiceClosedError
from .spec import MatrixSpec

__all__ = ["ResidentOperator", "OperatorRegistry"]


class ResidentOperator:
    """One pinned operator plus its serving bookkeeping."""

    def __init__(self, spec: MatrixSpec, op, fingerprint_key: str,
                 source: str) -> None:
        self.spec = spec
        self.op = op
        #: Structure-fingerprint cache key (what the plan cache keyed on).
        self.fingerprint_key = fingerprint_key
        #: How the operator came to be: ``"cache"`` (plan-cache hit),
        #: ``"search"`` (fresh autotune) or ``"build"`` (tune off).
        self.source = source
        #: Serialises sweeps on the operator (held in worker threads).
        self.compute_lock = threading.Lock()
        #: Borrow count; mutated only on the event-loop thread.
        self.refs = 0
        self.evicted = False
        self.closed = False

    @property
    def n(self) -> int:
        return self.op.n

    @property
    def can_batch(self) -> bool:
        """Whether stacked ``power_block`` sweeps are bitwise-identical
        to per-request ``power`` calls on this operator.

        True for every :class:`FBMPKOperator`, whatever its schedule
        (ABMC, levels or the levels-blocked wavefront) and executor:
        each compiled sweep call sums every one of its ``2m`` columns in
        the row order of a single vector (:mod:`repro.core.kernels`),
        and the differential suite proves it per schedule and executor.
        Other operators (the tuner's unfused adapter) have no
        ``power_block`` at all — those entries are served per-request
        instead of batched.
        """
        return isinstance(self.op, FBMPKOperator)

    def _close_op(self) -> None:
        if not self.closed:
            self.closed = True
            close = getattr(self.op, "close", None)
            if close is not None:
                close()

    def release(self) -> None:
        """Return one borrow; closes an evicted operator at zero."""
        self.refs -= 1
        if self.evicted and self.refs <= 0:
            self._close_op()


class OperatorRegistry:
    """LRU-bounded registry of resident operators, keyed by spec."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self._entries: "OrderedDict[str, ResidentOperator]" = OrderedDict()
        self._building: Dict[str, asyncio.Lock] = {}
        self._closed = False
        #: Guards the tuning search (``tune="full"`` builds): repeated
        #: search failures or budget blowouts open it and first
        #: requests get the default plan immediately.  ``None`` when
        #: the config opts out.
        self.tune_breaker: Optional[CircuitBreaker] = None
        if config.tune == "full" and config.tune_breaker:
            from ..tune import SEARCH_BREAKER
            self.tune_breaker = SEARCH_BREAKER

    # -- introspection ---------------------------------------------------
    @property
    def residents(self) -> int:
        """Number of currently pinned operators."""
        return len(self._entries)

    def resident_keys(self):
        """Spec keys in LRU order (oldest first)."""
        return list(self._entries)

    def worker_health(self):
        """Per-resident executor health (see
        :meth:`repro.core.fbmpk.FBMPKOperator.worker_health`): spec key
        → health dict, for the ``health`` op."""
        out = {}
        for key, entry in self._entries.items():
            probe = getattr(entry.op, "worker_health", None)
            if probe is not None:
                out[key] = probe()
        return out

    def breaker_snapshots(self):
        """State snapshots of every breaker the registry runs."""
        if self.tune_breaker is None:
            return []
        return [self.tune_breaker.snapshot()]

    # -- borrow / return -------------------------------------------------
    async def acquire(self, spec: MatrixSpec,
                      deadline: Optional[Deadline] = None
                      ) -> ResidentOperator:
        """Borrow the resident operator for ``spec``, building it on the
        first request.  Pair every acquire with
        :meth:`ResidentOperator.release`.

        ``deadline``: an already-expired request is refused before the
        build is even attempted, and a request whose deadline passes
        while it waits behind another builder of the same spec is
        refused on wake-up rather than paying a build it can no longer
        use.
        """
        if self._closed:
            raise ServiceClosedError()
        if deadline is not None:
            deadline.require("operator acquire")
        key = spec.key()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            entry.refs += 1
            obs.add_counter("serve.operator.hits")
            return entry
        lock = self._building.get(key)
        if lock is None:
            lock = self._building[key] = asyncio.Lock()
        async with lock:
            if self._closed:
                raise ServiceClosedError()
            if deadline is not None:
                deadline.require("operator build")
            entry = self._entries.get(key)  # lost the build race?
            if entry is None:
                loop = asyncio.get_running_loop()
                try:
                    entry = await loop.run_in_executor(
                        None, self._build, spec)
                except ProtocolError:
                    raise
                except OSError as exc:
                    raise ProtocolError(
                        "bad_request",
                        f"cannot load {spec.describe()}: {exc}") from exc
                except Exception as exc:
                    raise ProtocolError(
                        "internal",
                        f"building operator for {spec.describe()} "
                        f"failed: {exc!r}") from exc
                self._entries[key] = entry
                obs.add_counter("serve.operator.builds")
                obs.set_gauge("serve.residents", len(self._entries))
                self._evict_over_capacity()
            else:
                obs.add_counter("serve.operator.hits")
            self._building.pop(key, None)
            self._entries.move_to_end(key)
            entry.refs += 1
            return entry

    def release(self, entry: ResidentOperator) -> None:
        """Return a borrowed entry (see :meth:`ResidentOperator.release`)."""
        entry.release()

    # -- build -----------------------------------------------------------
    def _build(self, spec: MatrixSpec) -> ResidentOperator:
        """Materialise the matrix and its operator (executor thread)."""
        cfg = self.config
        with obs.span("serve.build", spec=spec.key(), tune=cfg.tune):
            a = spec.load()
            if cfg.tune == "full":
                from ..tune import autotune_power

                cache = cfg.plan_cache_dir if cfg.plan_cache_dir \
                    is not None else None
                op, result = autotune_power(
                    a, k=cfg.tune_k, cache=cache,
                    repeats=cfg.tune_repeats,
                    max_candidates=cfg.tune_max_candidates,
                    search_budget_s=cfg.tune_budget_s,
                    breaker=self.tune_breaker
                    if self.tune_breaker is not None else False)
                source = result.source
                fp_key = result.fingerprint.key()
            else:
                op = build_fbmpk_operator(
                    a, strategy=cfg.strategy, block_size=cfg.block_size,
                    executor=cfg.executor,
                    n_threads=cfg.n_workers, on_failure=cfg.on_failure,
                    hang_timeout=cfg.hang_timeout_s)
                source = "build"
                fp_key = fingerprint_matrix(a, kind="power").key()
            # Graceful degradation applies regardless of how the
            # operator was obtained: a crashed parallel phase falls back
            # to a bit-identical serial recompute instead of failing the
            # whole batch, and the watchdog (when armed) turns a hung
            # worker into exactly that failure path.
            configure = getattr(op, "configure_executor", None)
            if configure is not None:
                kwargs = {"on_failure": cfg.on_failure}
                if cfg.hang_timeout_s is not None:
                    kwargs["hang_timeout"] = cfg.hang_timeout_s
                configure(**kwargs)
            obs.add_counter(f"serve.operator.source.{source}")
            return ResidentOperator(spec=spec, op=op,
                                    fingerprint_key=fp_key, source=source)

    # -- eviction ----------------------------------------------------------
    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.config.max_resident:
            _, victim = self._entries.popitem(last=False)
            victim.evicted = True
            obs.add_counter("serve.operator.evictions")
            if victim.refs <= 0:
                victim._close_op()
        obs.set_gauge("serve.residents", len(self._entries))

    def evict(self, spec: MatrixSpec) -> bool:
        """Explicitly evict one spec (used by tests); returns whether an
        entry was resident."""
        entry = self._entries.pop(spec.key(), None)
        if entry is None:
            return False
        entry.evicted = True
        obs.add_counter("serve.operator.evictions")
        if entry.refs <= 0:
            entry._close_op()
        obs.set_gauge("serve.residents", len(self._entries))
        return True

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        """Evict and close every resident operator (idempotent).  Callers
        must have drained in-flight work first; an entry still borrowed
        is closed when its last borrower releases it."""
        self._closed = True
        while self._entries:
            _, entry = self._entries.popitem(last=False)
            entry.evicted = True
            if entry.refs <= 0:
                entry._close_op()
