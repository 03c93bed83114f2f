"""Execution plans: the serialisable unit of tuning decisions.

An :class:`ExecutionPlan` names one concrete way to execute a workload
with the library's existing building blocks — which FBMPK variant,
sweep-grouping strategy and executor to use for an
``A^k x`` pipeline, or which kernel/format to use for a single SpMV.
Plans are deliberately *descriptions*, not objects holding state: they
can be enumerated (:mod:`repro.tune.registry`), timed
(:mod:`repro.tune.autotuner`), serialised into the persistent plan
cache (:mod:`repro.tune.cache`) and re-instantiated by a later process,
which is the OSKI "tuned handle" model the paper's amortisation
argument (Fig. 11) calls for.

The JSON envelope is schema-versioned (:data:`PLAN_SCHEMA_VERSION`);
:func:`ExecutionPlan.from_dict` rejects envelopes it does not
understand with :class:`PlanFormatError`, which the cache layer treats
as a miss — a cache written by a future version of the library must
degrade to re-tuning, never to a crash or a silently wrong plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

__all__ = [
    "PLAN_SCHEMA_VERSION",
    "PLAN_KINDS",
    "PlanFormatError",
    "ExecutionPlan",
    "default_power_plan",
    "default_spmv_plan",
]

#: Version of the serialised plan envelope.  Bump on any change to the
#: meaning of ``kind``/``params`` that an older reader would
#: misinterpret; readers only accept their own version.
PLAN_SCHEMA_VERSION = 1

#: The workload classes plans can describe: ``"power"`` is the FBMPK
#: ``A^k x`` pipeline, ``"spmv"`` a single sparse matrix-vector product.
PLAN_KINDS = ("power", "spmv")


class PlanFormatError(ValueError):
    """A serialised plan could not be understood (wrong schema version,
    unknown kind, malformed payload).  Cache readers map this to a
    miss."""


@dataclass(frozen=True)
class ExecutionPlan:
    """One concrete execution choice for a workload kind.

    ``params`` is a flat JSON-compatible mapping of knob names to
    values; the accepted knobs per kind are documented (and produced) by
    :mod:`repro.tune.registry`, which is also the only place that turns
    a plan back into runnable objects.  Examples::

        ExecutionPlan("power", {"variant": "fused", "strategy": "abmc",
                                "block_size": 1, "executor": "threads",
                                "n_threads": 2})
        ExecutionPlan("spmv", {"kernel": "sell", "c": 8, "sigma": 64})
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in PLAN_KINDS:
            raise PlanFormatError(f"unknown plan kind {self.kind!r}")

    @property
    def label(self) -> str:
        """Compact human-readable identity, e.g.
        ``power/1-serial-abmc-fused`` — used in telemetry span
        attributes, trial tables and log lines."""
        parts = [str(self.params[key]) for key in sorted(self.params)
                 if self.params[key] is not None]
        return f"{self.kind}/" + "-".join(parts) if parts else self.kind

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready envelope (schema-versioned)."""
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "kind": self.kind,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExecutionPlan":
        """Parse an envelope produced by :meth:`to_dict`.

        Raises :class:`PlanFormatError` on anything unexpected: a
        non-mapping, a missing or future ``schema_version``, an unknown
        ``kind`` or non-mapping ``params``.  Unknown *extra* top-level
        keys are ignored (a same-version writer may add informational
        fields).
        """
        if not isinstance(payload, Mapping):
            raise PlanFormatError("plan payload is not a mapping")
        version = payload.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise PlanFormatError(
                f"unsupported plan schema_version {version!r} "
                f"(this reader understands {PLAN_SCHEMA_VERSION})")
        kind = payload.get("kind")
        params = payload.get("params")
        if not isinstance(params, Mapping):
            raise PlanFormatError("plan params is not a mapping")
        if not isinstance(kind, str):
            raise PlanFormatError(f"plan kind is not a string: {kind!r}")
        return cls(kind=kind, params=dict(params))


def default_power_plan() -> ExecutionPlan:
    """The plan describing :func:`repro.core.build_fbmpk_operator`'s
    defaults — the untuned path every tuned plan is timed against and
    must reproduce bit-identically."""
    return ExecutionPlan("power", {
        "variant": "fused",
        "strategy": "abmc",
        "block_size": 1,
        "executor": "serial",
    })


def default_spmv_plan() -> ExecutionPlan:
    """The plan describing the default SpMV path
    (:func:`repro.sparse.spmv.spmv_vectorised`)."""
    return ExecutionPlan("spmv", {"kernel": "vectorised"})
