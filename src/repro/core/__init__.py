"""FBMPK core: the paper's primary contribution.

Partitioning (III-A), the forward-backward pipeline (III-B), back-to-back
vector storage (III-C), the ABMC-grouped fused executor (III-D/E), the
analytic access plan, and the generic ``sum alpha_i A^i x`` front end.
"""

from ..parallel.executor import ExecutionStats, ThreadedPhaseExecutor
from .btb import InterleavedPair, deinterleave, interleave
from .expr import A, MatrixSymbol, SSpMVExpression, X, from_coefficients
from .fbmpk import (
    FBMPKOperator,
    KernelCounter,
    SweepGroups,
    build_fbmpk_operator,
    check_sweep_groups,
    fbmpk_fused,
    fbmpk_reference,
    fbmpk_unfused,
    make_sweep_groups_abmc,
    make_sweep_groups_levels,
)
from .mpk import mpk_reference_dense, mpk_standard, mpk_standard_all
from .partition import StorageReport, TriangularPartition, split_ldu
from .plan import (
    AccessPlan,
    execution_cost_hint,
    fbmpk_plan,
    standard_plan,
    theoretical_ratio,
)
from .sspmv import SSpMVProblem, sspmv_fbmpk, sspmv_standard

__all__ = [
    "ExecutionStats",
    "ThreadedPhaseExecutor",
    "InterleavedPair",
    "deinterleave",
    "interleave",
    "A",
    "MatrixSymbol",
    "SSpMVExpression",
    "X",
    "from_coefficients",
    "FBMPKOperator",
    "KernelCounter",
    "SweepGroups",
    "build_fbmpk_operator",
    "check_sweep_groups",
    "fbmpk_fused",
    "fbmpk_reference",
    "fbmpk_unfused",
    "make_sweep_groups_abmc",
    "make_sweep_groups_levels",
    "mpk_reference_dense",
    "mpk_standard",
    "mpk_standard_all",
    "StorageReport",
    "TriangularPartition",
    "split_ldu",
    "AccessPlan",
    "execution_cost_hint",
    "fbmpk_plan",
    "standard_plan",
    "theoretical_ratio",
    "SSpMVProblem",
    "sspmv_fbmpk",
    "sspmv_standard",
]
