"""Serving-layer configuration.

One :class:`ServeConfig` instance parameterises the whole service
stack — admission control, batch sealing, operator residency, tuning
policy — so embedding code, the ``serve`` CLI subcommand and the tests
all speak the same vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["ServeConfig", "BATCH_WIDTH_BUCKETS"]

#: Histogram buckets for the ``serve.batch.width`` metric (requests per
#: ``power_block`` sweep; the last slot counts wider batches).
BATCH_WIDTH_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass
class ServeConfig:
    """Knobs of the multi-tenant solve service.

    Batching
        A ``(matrix, k)`` queue is sealed into one batch when its
        operator has no batch running and ``gather_window_s`` has
        passed since its first request, or as soon as ``max_batch`` RHS
        vectors are queued.  Requests that arrive while a batch runs
        keep gathering and are sealed when it completes, so batches
        widen with the load on their own; the window (default 0) is
        only the minimum wait on an idle operator, latency traded for
        companions.
    Admission control
        ``max_queue`` bounds one ``(matrix, k)`` queue; ``max_pending``
        bounds requests waiting across all queues.  Beyond either, new
        requests receive a structured ``queue_full`` rejection instead
        of unbounded buffering.
    Residency
        ``max_resident`` caps pinned :class:`FBMPKOperator` instances;
        the least-recently-used one is evicted (and closed once its
        in-flight requests drain) to admit a new structure.
    Tuning
        ``tune="full"`` routes first requests through
        :func:`repro.tune.autotune_power` — the plan cache makes warm
        structures skip both search and preprocessing; ``tune="off"``
        builds the default operator directly.  Tuned winners are
        execution-only variations of the default plan (the bit-identity
        gate guarantees it), so they always stay batchable.
    Resilience
        ``tune_budget_s`` caps one tuning search (and its plan-cache
        lock wait); ``tune_breaker`` guards the search behind the
        module circuit breaker so repeated failures/budget blowouts
        serve the default plan immediately instead of re-paying the
        search.  ``hang_timeout_s`` arms the executor watchdogs of
        every operator the registry builds (heartbeat watchdog on
        process pools, bounded phase barrier on thread pools).
        ``drain_timeout_s`` bounds shutdown: batches still executing
        past it are abandoned and their requests receive structured
        ``shutting_down`` errors rather than wedging the drain.
    Observability
        ``metrics_port`` (None = off) starts a Prometheus exposition
        endpoint on a stdlib HTTP daemon thread; ``slo_target_ms`` /
        ``slo_goal`` parameterise the latency SLO the service tracks
        per ``power`` request (see :mod:`repro.obs.slo`);
        ``profile_hz`` is the sampling rate the ``--profile`` flag arms
        the :class:`~repro.obs.sampler.StackSampler` with.
    """

    # batching
    gather_window_s: float = 0.0
    max_batch: int = 32
    # admission control
    max_queue: int = 256
    max_pending: int = 4096
    # matrix admission
    max_rows: int = 200_000
    allow_paths: bool = False
    # operator residency
    max_resident: int = 4
    # execution (tune="off" build path)
    strategy: str = "abmc"
    block_size: int = 1
    executor: str = "serial"
    n_workers: Optional[int] = None
    on_failure: str = "fallback_serial"
    # tuning
    tune: str = "full"
    tune_k: int = 4
    tune_repeats: int = 2
    tune_max_candidates: Optional[int] = 4
    plan_cache_dir: Optional[str] = None
    # resilience
    tune_budget_s: Optional[float] = None
    tune_breaker: bool = True
    hang_timeout_s: Optional[float] = None
    drain_timeout_s: float = 30.0
    # observability
    #: TCP port of the Prometheus ``/metrics`` endpoint (0 = ephemeral;
    #: None — the default — disables the HTTP exporter entirely).
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: Latency SLO: a ``power`` request is *good* when it succeeds
    #: within ``slo_target_ms``; ``slo_goal`` is the fraction of good
    #: requests the error budget is computed against.
    slo_target_ms: float = 250.0
    slo_goal: float = 0.99
    #: Sampling-profiler rate when ``serve --profile`` is active.
    profile_hz: float = 100.0
    # protocol / lifecycle
    allow_shutdown: bool = True
    max_line_bytes: int = 16 * 1024 * 1024
    # test hook: retain references to the last gather/result buffers so
    # aliasing audits can assert responses share memory with neither.
    debug_keep_last: bool = field(default=False, repr=False)

    def validate(self) -> "ServeConfig":
        """Raise ``ValueError`` on out-of-range fields; returns self."""
        if self.gather_window_s < 0:
            raise ValueError("gather_window_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.max_resident < 1:
            raise ValueError("max_resident must be >= 1")
        if self.max_rows < 1:
            raise ValueError("max_rows must be >= 1")
        if self.tune not in ("off", "full"):
            raise ValueError(f"unknown tune mode {self.tune!r}")
        if self.strategy not in ("abmc", "levels"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.executor not in ("serial", "threads", "processes"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure {self.on_failure!r}")
        if self.tune_budget_s is not None and self.tune_budget_s <= 0:
            raise ValueError("tune_budget_s must be > 0 when set")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be > 0 when set")
        if self.drain_timeout_s <= 0:
            raise ValueError("drain_timeout_s must be > 0")
        if self.metrics_port is not None \
                and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics_port must be in [0, 65535]")
        if self.slo_target_ms <= 0:
            raise ValueError("slo_target_ms must be > 0")
        if not 0.0 < self.slo_goal < 1.0:
            raise ValueError("slo_goal must be in (0, 1)")
        if self.profile_hz <= 0:
            raise ValueError("profile_hz must be > 0")
        return self
