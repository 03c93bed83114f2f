"""Candidate enumeration and plan instantiation.

This module is the only place that knows how to turn an
:class:`~repro.tune.plan.ExecutionPlan` into runnable objects, and the
only place that decides *which* plans are worth trying.  Keeping both
sides here means the autotuner and the cache deal purely in plan
descriptions, and a new execution building block (a new kernel, a new
format, a new executor) becomes tunable by touching this file alone.

Two candidate spaces exist, matching :data:`repro.tune.plan.PLAN_KINDS`:

* ``power`` — the FBMPK ``A^k x`` pipeline.  Knobs: ``variant``
  (``"fused"`` sweep-grouped operator or ``"unfused"`` whole-triangle
  staging with BtB off), ``strategy``
  (``"abmc"``/``"levels"``/``"levels-blocked"``), ``block_size``
  (ABMC rows per block; for ``levels-blocked`` the cache-residency
  block row count), ``executor``
  (``"serial"``/``"threads"``/``"processes"``) and ``n_threads``.
  Every fused plan sums rows in Algorithm 2's order on one compiled
  kernel (:mod:`repro.core.kernels`), so there is no kernel knob.
* ``spmv`` — one sparse matrix-vector product.  Knobs: ``kernel``
  (:data:`repro.sparse.spmv.KERNELS` plus the ``sell`` and ``bsr``
  format conversions) and the kernel's own parameters.

The enumerations always put the library default first; the autotuner
relies on that to guarantee the default is measured (so "tuned is never
worse than default" is decided empirically, not assumed).  Candidates
are *proposals*.  Some are not bit-identical to the default path by
construction (the unfused variant and any other row ordering for power
plans, SELL/BSR's different summation orders for SpMV):
:func:`plan_is_bit_identical_by_design` says so from the plan alone, and
the power search drops them before building anything.  Others may fail
to build or run on a given matrix or host (e.g. BSR needs divisible
dimensions); the autotuner records those as errored trials.

Power plans that differ only in execution knobs
(:data:`_POWER_EXECUTION_ONLY_KEYS`) share one built operator:
:func:`power_arithmetic_key` names the preprocessing a plan needs, and
:func:`configure_power` re-points a built operator at another plan's
executor.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fbmpk import FBMPKOperator, build_fbmpk_operator, fbmpk_unfused
from ..core.partition import TriangularPartition, split_ldu
from ..core.plan import execution_cost_hint
from ..sparse.bsr import BSRMatrix
from ..sparse.csr import CSRMatrix
from ..sparse.sell import SellCSigmaMatrix
from ..sparse.spmv import KERNELS, spmv_blocked
from .plan import (
    ExecutionPlan,
    PlanFormatError,
    default_power_plan,
    default_spmv_plan,
)

__all__ = [
    "UnfusedPowerOperator",
    "power_candidates",
    "spmv_candidates",
    "order_power_candidates",
    "plan_is_bit_identical_by_design",
    "power_arithmetic_key",
    "configure_power",
    "instantiate_power",
    "instantiate_spmv",
]

#: SpMV kernels whose per-row accumulation is the same ``reduce_rows``
#: arithmetic as the default ``vectorised`` path (``blocked`` slices the
#: identical computation into row windows).  ``scipy``, ``sell`` and
#: ``bsr`` reorder the per-row summation and so are excluded.
_SPMV_KERNELS_BY_DESIGN = frozenset({"vectorised", "blocked"})

#: Power-plan knobs that only reschedule independent row updates and so
#: cannot change a result bit: the threaded and process executors are
#: bitwise-equal to serial by the differential test layer, for the
#: *same* built operator, and ``pin_workers`` only changes the worker
#: placement of the batched dispatch path (per-colour range results are
#: order-independent).
#: Everything else — variant, and notably ``strategy`` / ``block_size``,
#: whose grouping permutes the matrix and therefore the per-row
#: accumulation order — changes the floating-point arithmetic.
_POWER_EXECUTION_ONLY_KEYS = frozenset(
    {"executor", "n_threads", "assign_policy", "pin_workers"})


def plan_is_bit_identical_by_design(plan: ExecutionPlan) -> bool:
    """Whether ``plan`` performs the *same floating-point arithmetic in
    the same order* as the library default for its kind.

    Power plans qualify iff they differ from
    :func:`~repro.tune.plan.default_power_plan` only in the execution
    dimensions (:data:`_POWER_EXECUTION_ONLY_KEYS`).  SpMV plans qualify
    for the kernels in :data:`_SPMV_KERNELS_BY_DESIGN`.

    The autotuner requires this *in addition to* the empirical probe
    check before a candidate may win: on small matrices a numerically
    different plan can match the default on any finite set of probes by
    rounding coincidence, so probes alone cannot certify bit-identity
    on future inputs.
    """
    params = plan.params
    if plan.kind == "power":
        default = default_power_plan().params
        keys = (set(params) | set(default)) - _POWER_EXECUTION_ONLY_KEYS
        return all(params.get(key, default.get(key)) == default.get(key)
                   for key in keys)
    if plan.kind == "spmv":
        return params.get("kernel", "vectorised") in _SPMV_KERNELS_BY_DESIGN
    return False


def power_arithmetic_key(plan: ExecutionPlan) -> Tuple:
    """The preprocessing a power plan needs: its knobs outside
    :data:`_POWER_EXECUTION_ONLY_KEYS`, missing ones read as the
    default's.  Plans with equal keys can share one built operator;
    ``ExecutionPlan("power", dict(key))`` is the serial plan that builds
    it."""
    params = {**default_power_plan().params, **plan.params}
    return tuple(sorted((key, value) for key, value in params.items()
                        if key not in _POWER_EXECUTION_ONLY_KEYS))


def configure_power(op, plan: ExecutionPlan):
    """Re-point a built :class:`~repro.core.fbmpk.FBMPKOperator` at
    ``plan``'s execution knobs (executor, worker count, assignment
    policy, pinning), keeping its preprocessing; returns ``op``.  Any
    running worker pool is shut down."""
    params = plan.params
    return op.configure_executor(
        executor=params.get("executor", "serial"),
        n_threads=params.get("n_threads"),
        assign_policy=params.get("assign_policy", "lpt"),
        pin_workers=params.get("pin_workers"))


class UnfusedPowerOperator:
    """Adapter giving :func:`repro.core.fbmpk.fbmpk_unfused` the same
    call surface as :class:`~repro.core.fbmpk.FBMPKOperator`.

    Represents the BtB-off execution choice: whole-triangle products and
    separate even/odd vectors instead of fused grouped sweeps over the
    interleaved pair.  Its summation order differs from the fused path,
    so it is generally *not* bit-identical to the default — it exists in
    the candidate space to let the bit-identity gate document that
    empirically rather than by fiat.
    """

    def __init__(self, part: TriangularPartition) -> None:
        self.part = part
        self.executor = "serial"

    @property
    def n(self) -> int:
        return self.part.n

    def power(self, x: np.ndarray, k: int, on_iterate=None,
              counter=None, check_finite: bool = False) -> np.ndarray:
        # counter/check_finite accepted for interface parity; the
        # unfused staging has no instrumented kernels to count.
        y = fbmpk_unfused(self.part, x, k, on_iterate=on_iterate)
        if check_finite and not np.all(np.isfinite(y)):
            raise FloatingPointError("non-finite value in unfused power")
        return y

    def close(self) -> None:
        pass

    def __enter__(self) -> "UnfusedPowerOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _default_thread_counts() -> List[int]:
    """Thread counts worth probing on this host: 2 and the core count,
    deduplicated, excluding anything a 1-core host cannot exploit."""
    cores = os.cpu_count() or 1
    return sorted({c for c in (2, cores) if c > 1})


def power_candidates(
    thread_counts: Optional[Sequence[int]] = None,
    include_unfused: bool = True,
) -> List[ExecutionPlan]:
    """Enumerate the power-kernel plan space, default plan first.

    ``thread_counts=None`` probes :func:`_default_thread_counts`; pass
    an explicit sequence to widen or suppress threaded candidates.
    """
    if thread_counts is None:
        thread_counts = _default_thread_counts()
    default = default_power_plan()
    plans = [default]
    # levels-blocked block sizes bracket the residency regime: 256 rows
    # keeps the (2k-1)-block wavefront window inside L2-sized caches,
    # 4096 inside the shared LLC.
    strategies = [("abmc", 1), ("abmc", 256), ("levels", 1),
                  ("levels-blocked", 256), ("levels-blocked", 4096)]
    for strategy, block_size in strategies:
        fused = ExecutionPlan("power", {
            "variant": "fused",
            "strategy": strategy,
            "block_size": block_size,
            "executor": "serial",
        })
        if fused != default:
            plans.append(fused)
        for parallel_exec in ("threads", "processes"):
            for n_threads in thread_counts:
                plans.append(ExecutionPlan("power", {
                    "variant": "fused",
                    "strategy": strategy,
                    "block_size": block_size,
                    "executor": parallel_exec,
                    "n_threads": int(n_threads),
                }))
    if include_unfused:
        plans.append(ExecutionPlan("power", {
            "variant": "unfused",
            "strategy": "none",
            "block_size": 1,
            "executor": "serial",
        }))
    return plans


def spmv_candidates() -> List[ExecutionPlan]:
    """Enumerate the SpMV plan space, default kernel first."""
    return [
        default_spmv_plan(),
        ExecutionPlan("spmv", {"kernel": "scipy"}),
        ExecutionPlan("spmv", {"kernel": "blocked", "block_rows": 4096}),
        ExecutionPlan("spmv", {"kernel": "sell", "c": 8, "sigma": 64}),
        ExecutionPlan("spmv", {"kernel": "bsr", "r": 2}),
    ]


def order_power_candidates(
    plans: Sequence[ExecutionPlan],
    a: CSRMatrix,
    k: int,
) -> List[ExecutionPlan]:
    """Stable-sort power candidates by the analytic cost hint
    (:func:`repro.core.plan.execution_cost_hint`), keeping the default
    plan at position 0.

    The hint only reorders the empirical search — it never accepts or
    rejects a plan — so a truncated search (``max_candidates``) spends
    its budget on the analytically promising region first.
    """
    if not plans:
        return []
    head, tail = plans[0], list(plans[1:])

    def hint(plan: ExecutionPlan) -> float:
        params = plan.params
        if params.get("variant") == "unfused":
            method = "standard"
        elif params.get("strategy") == "levels-blocked":
            method = "levels-blocked"
        else:
            method = "fbmpk"
        n_threads = int(params.get("n_threads") or 1)
        # Group count before preprocessing is unknown; charge a nominal
        # per-sweep barrier population for threaded plans.  For
        # levels-blocked the group count is the block count, which the
        # block-size knob pins well enough for ordering purposes.
        n_groups = 8 if n_threads > 1 else 1
        if method == "levels-blocked":
            block = max(int(params.get("block_size", 256)), 1)
            n_groups = max(-(-a.n_rows // block), 1)
        return execution_cost_hint(
            k, a.n_rows, a.nnz, method=method, n_groups=n_groups,
            n_threads=n_threads,
            executor=params.get("executor", "serial"))

    tail.sort(key=hint)
    return [head] + tail


def instantiate_power(
    plan: ExecutionPlan,
    a: CSRMatrix,
    operator_path=None,
):
    """Build the operator a power plan describes.

    With ``operator_path`` pointing at an ``FBMPKOperator.save`` artefact
    (the cache's preprocessed-operator file), fused plans load it and
    skip the split/colour/group preprocessing entirely; any load failure
    falls back to rebuilding from the matrix, so a stale or corrupt
    artefact degrades to the slow path instead of an error.
    """
    if plan.kind != "power":
        raise PlanFormatError(f"not a power plan: {plan.kind!r}")
    params = plan.params
    variant = params.get("variant", "fused")
    if variant == "unfused":
        return UnfusedPowerOperator(split_ldu(a))
    if variant != "fused":
        raise PlanFormatError(f"unknown power variant {variant!r}")
    executor = params.get("executor", "serial")
    n_threads = params.get("n_threads")
    assign_policy = params.get("assign_policy", "lpt")
    pin_workers = params.get("pin_workers")
    if operator_path is not None:
        try:
            return FBMPKOperator.load(
                operator_path, executor=executor,
                n_threads=n_threads, assign_policy=assign_policy,
                pin_workers=pin_workers)
        except Exception:
            pass  # artefact unusable: rebuild below
    return build_fbmpk_operator(
        a,
        strategy=params.get("strategy", "abmc"),
        block_size=int(params.get("block_size", 1)),
        executor=executor,
        n_threads=n_threads,
        assign_policy=assign_policy,
        pin_workers=pin_workers,
    )


def instantiate_spmv(
    plan: ExecutionPlan,
    a: CSRMatrix,
) -> Callable[[np.ndarray], np.ndarray]:
    """Build the ``x -> A @ x`` callable an SpMV plan describes.

    Format-conversion kernels (``sell``, ``bsr``) pay their conversion
    here, once — the returned callable only executes, which is what the
    autotuner times and what a cache hit reuses.
    """
    if plan.kind != "spmv":
        raise PlanFormatError(f"not an spmv plan: {plan.kind!r}")
    params = plan.params
    kernel = params.get("kernel", "vectorised")
    if kernel == "sell":
        sell = SellCSigmaMatrix(a, c=int(params.get("c", 8)),
                                sigma=int(params.get("sigma", 64)))
        return sell.matvec
    if kernel == "bsr":
        bsr = BSRMatrix.from_csr(a, int(params.get("r", 2)))
        return bsr.matvec
    if kernel == "blocked":
        block_rows = int(params.get("block_rows", 4096))
        return lambda x: spmv_blocked(a, x, block_rows=block_rows)
    if kernel in KERNELS:
        fn = KERNELS[kernel]
        return lambda x: fn(a, x)
    raise PlanFormatError(f"unknown spmv kernel {kernel!r}")
