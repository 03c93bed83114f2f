"""The forward-backward matrix-power kernel (FBMPK), Section III.

Three implementations of ``y = A^k x`` over the ``A = L + D + U``
partition:

``fbmpk_reference``
    Literal transcription of the paper's Algorithm 2 (plus the even-k
    variant it mentions): pure-Python row loops over the BtB interleaved
    ``xy`` buffer.  The semantic ground truth, and the bitwise oracle of
    the operator on the same row ordering.
``fbmpk_unfused``
    Vectorised with full-triangle numpy kernels; performs the same
    forward/backward staging but streams each triangle twice per stage
    and sums rows in another order.  Needs no ordering information —
    works on any matrix as-is.
``fbmpk_fused``
    The production path.  Rows are partitioned into *sweep groups* (ABMC
    colours or dependency levels) such that every in-sweep dependency
    falls in an earlier group; each group then computes its
    contributions to **both** live iterates in one pass of SciPy's
    compiled CSR loop over the ``(n, 2)`` BtB buffer, seeded so that
    every row is summed exactly as Algorithm 2 sums it
    (:mod:`repro.core.kernels`).  Each triangle is streamed once per
    stage — the paper's ``(k+1)/2``-matrix-reads pipeline — and the
    result is bitwise equal to ``fbmpk_reference`` on the operator's
    row ordering.

:func:`build_fbmpk_operator` performs the one-off preprocessing (split,
optional ABMC reorder, group extraction) and returns an
:class:`FBMPKOperator` whose :meth:`~FBMPKOperator.power` hides the
permutation bookkeeping.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Literal, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..parallel.executor import (
    ExecutionStats,
    PhaseExecutionError,
    ThreadedPhaseExecutor,
    check_phases,
)
from ..parallel.dispatch import DescriptorBatch
from ..parallel.procexec import ProcessPhaseExecutor
from ..robust.validate import ensure_finite
from ..parallel.scheduler import (
    BlockTask,
    Phase,
    build_phases,
    phases_from_groups,
)
from ..reorder.abmc import ABMCOrdering, abmc_ordering
from ..reorder.levels import compute_levels, levels_to_groups
from ..reorder.levels_blocked import (
    LevelBlocking,
    blocked_descriptors,
    build_blocked_schedule,
    build_level_blocking,
    check_blocked_schedule,
)
from ..reorder.permute import permute_symmetric, permute_vector, unpermute_vector
from ..sparse.csr import CSRMatrix
from . import kernels
from .btb import InterleavedPair
from .partition import TriangularPartition, split_ldu

__all__ = [
    "KernelCounter",
    "SweepGroups",
    "FBMPKOperator",
    "LevelsBlockedOperator",
    "fbmpk_reference",
    "fbmpk_unfused",
    "fbmpk_fused",
    "build_fbmpk_operator",
    "make_sweep_groups_abmc",
    "make_sweep_groups_levels",
    "check_sweep_groups",
]

IterateCallback = Callable[[int, np.ndarray], None]

#: Last-level cache size assumed by the per-run DRAM traffic estimate
#: published to telemetry (a generic server-class 32 MiB LLC; the
#: machine models in :mod:`repro.machine` carry the platform-accurate
#: values for the paper's figures).
MODEL_CACHE_BYTES = 32 * 1024 * 1024


@dataclass
class KernelCounter:
    """Instrumented pass/entry counters for verifying the access plan.

    ``l_passes``/``u_passes`` increment once per full stream over the
    respective triangle; ``l_entries``/``u_entries`` accumulate the number
    of stored entries actually touched (group streams sum to full passes).
    """

    l_passes: int = 0
    u_passes: int = 0
    l_entries: int = 0
    u_entries: int = 0
    _partial_l: int = field(default=0, repr=False)
    _partial_u: int = field(default=0, repr=False)

    def count_l(self, nnz: int, total: int) -> None:
        """Record ``nnz`` streamed L-entries; rolls partial group streams
        into whole passes against the triangle's ``total`` entries."""
        self.l_entries += nnz
        self._partial_l += nnz
        while total and self._partial_l >= total:
            self.l_passes += 1
            self._partial_l -= total

    def count_u(self, nnz: int, total: int) -> None:
        """Record ``nnz`` streamed U-entries (see :meth:`count_l`)."""
        self.u_entries += nnz
        self._partial_u += nnz
        while total and self._partial_u >= total:
            self.u_passes += 1
            self._partial_u -= total


# ---------------------------------------------------------------------------
# reference implementation (Algorithm 2, pure Python)
# ---------------------------------------------------------------------------
def fbmpk_reference(
    part: TriangularPartition,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
    counter: Optional[KernelCounter] = None,
) -> np.ndarray:
    """Algorithm 2 verbatim (generalised to any ``k >= 0``).

    Row loops in pure Python over the interleaved ``xy`` buffer: the even
    slots carry the even-power iterate and the odd slots the odd-power
    one, exactly as Section III-E prescribes ("we always initialise x0 at
    the even position").  ``on_iterate(i, x_i)`` fires for every produced
    power ``i = 1..k``, which lets the generic SSpMV combination
    accumulate ``sum(alpha_i A^i x)`` without storing the sequence.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    n = part.n
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if k == 0:
        return x.copy()
    L, U, d = part.lower, part.upper, part.diag
    pair = InterleavedPair.from_initial(x)
    xy = pair.xy
    # Head: tmpvec = U x0 (a plain SpMV in the paper's line 3).
    tmp = U.matvec_scalar(x)
    if counter:
        counter.count_u(U.nnz, U.nnz)
    power = 0
    for _ in range(k // 2):
        # Forward stage (lines 7-16): stream L once top-down, finishing
        # x_{power+1} in the odd slots while pre-accumulating
        # L x_{power+1} + D x_{power+1} into tmpvec for the next stage.
        for i in range(n):
            sum0 = tmp[i] + d[i] * xy[2 * i]
            sum1 = 0.0
            for p in range(L.indptr[i], L.indptr[i + 1]):
                j = L.indices[p]
                v = L.data[p]
                sum0 += v * xy[2 * j]
                sum1 += v * xy[2 * j + 1]
            xy[2 * i + 1] = sum0
            tmp[i] = sum1 + d[i] * xy[2 * i + 1]
        power += 1
        if counter:
            counter.count_l(L.nnz, L.nnz)
        if on_iterate:
            on_iterate(power, pair.odd.copy())
        # Backward stage (lines 17-28): stream U once bottom-up, finishing
        # x_{power+1} in the even slots and leaving tmpvec = U x_{power+1}.
        for i in range(n - 1, -1, -1):
            sum0 = tmp[i]
            sum1 = 0.0
            for p in range(U.indptr[i], U.indptr[i + 1]):
                j = U.indices[p]
                v = U.data[p]
                sum0 += v * xy[2 * j + 1]
                sum1 += v * xy[2 * j]
            xy[2 * i] = sum0
            tmp[i] = sum1
        power += 1
        if counter:
            counter.count_u(U.nnz, U.nnz)
        if on_iterate:
            on_iterate(power, pair.even.copy())
    if k % 2:
        # Tail (lines 30-32): y = L x_{k-1} + tmpvec + d * x_{k-1}.
        even = pair.even.copy()
        y = L.matvec_scalar(even) + tmp + d * even
        if counter:
            counter.count_l(L.nnz, L.nnz)
        if on_iterate:
            on_iterate(k, y.copy())
        return y
    return pair.even.copy()


# ---------------------------------------------------------------------------
# unfused vectorised implementation
# ---------------------------------------------------------------------------
def fbmpk_unfused(
    part: TriangularPartition,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
) -> np.ndarray:
    """FBMPK staging with whole-triangle numpy kernels.

    Semantically identical to :func:`fbmpk_reference` but each stage does
    two separate full-triangle products instead of one fused pass (numpy
    cannot express the row-pipelined reuse without grouping).  Useful as a
    fast oracle and for matrices where no good sweep grouping exists.
    """
    if k < 0:
        raise ValueError("power k must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    n = part.n
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if k == 0:
        return x.copy()
    L, U, d = part.lower, part.upper, part.diag
    even = x.copy()
    tmp = U.matvec(even)
    power = 0
    odd = np.zeros(n, dtype=np.float64)
    for _ in range(k // 2):
        odd = tmp + d * even + L.matvec(even)
        tmp = L.matvec(odd) + d * odd
        power += 1
        if on_iterate:
            on_iterate(power, odd.copy())
        even = tmp + U.matvec(odd)
        tmp = U.matvec(even)
        power += 1
        if on_iterate:
            on_iterate(power, even.copy())
    if k % 2:
        y = L.matvec(even) + tmp + d * even
        if on_iterate:
            on_iterate(k, y.copy())
        return y
    return even.copy()


# ---------------------------------------------------------------------------
# sweep groups
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepGroups:
    """Row partition driving the fused sweeps.

    ``forward``/``backward`` list row-index arrays in *processing order*;
    validity requires every strict-lower (resp. strict-upper) dependency
    of a group's rows to lie in a strictly earlier group of that sweep.
    """

    forward: List[np.ndarray]
    backward: List[np.ndarray]
    origin: str

    @property
    def n_forward(self) -> int:
        """Number of forward sweep phases (barriers in the parallel run)."""
        return len(self.forward)

    @property
    def n_backward(self) -> int:
        """Number of backward sweep phases."""
        return len(self.backward)


def _check_groups_one_sweep(tri: CSRMatrix, groups: Sequence[np.ndarray]) -> bool:
    """Dependency check for one sweep direction: all stored columns of a
    group's rows must belong to strictly earlier groups."""
    n = tri.n_rows
    rank = np.full(n, -1, dtype=np.int64)
    for g, rows in enumerate(groups):
        if (rank[rows] != -1).any():
            return False  # overlapping groups
        rank[rows] = g
    if (rank < 0).any():
        return False  # not a partition
    rows_expanded = np.repeat(np.arange(n, dtype=np.int64), tri.row_nnz())
    return bool((rank[tri.indices] < rank[rows_expanded]).all())


def check_sweep_groups(part: TriangularPartition, groups: SweepGroups) -> bool:
    """Validate a :class:`SweepGroups` against both triangles."""
    return _check_groups_one_sweep(part.lower, groups.forward) and \
        _check_groups_one_sweep(part.upper, groups.backward)


def make_sweep_groups_levels(part: TriangularPartition) -> SweepGroups:
    """Sweep groups from dependency levels (no reordering required).

    Forward groups are the level sets of ``L``'s row DAG; backward groups
    the level sets of ``U``'s (computed bottom-up).  This is the
    level-scheduling strategy the paper points to in Section VII.
    """
    fw = levels_to_groups(compute_levels(part.lower, "forward"))
    bw = levels_to_groups(compute_levels(part.upper, "backward"))
    return SweepGroups(forward=fw, backward=bw, origin="levels")


def make_sweep_groups_abmc(ordering: ABMCOrdering) -> SweepGroups:
    """Sweep groups from an ABMC ordering of the (already reordered)
    matrix.

    Within a colour, blocks are mutually independent, so the ``w``-th rows
    of all blocks of one colour form a valid group (a *wave*): their
    lower-triangle dependencies are in earlier colours or earlier waves of
    the same block.  Forward processes colours ascending with waves
    top-down; backward processes colours descending with waves bottom-up.
    With ``block_size == 1`` this degenerates to one group per colour.
    """
    forward: List[np.ndarray] = []
    backward_per_color: List[List[np.ndarray]] = []
    for color in range(ordering.n_colors):
        ranges = ordering.blocks_of_color(color)
        if not ranges:
            continue
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        stops = np.array([r[1] for r in ranges], dtype=np.int64)
        max_len = int((stops - starts).max())
        bw_waves: List[np.ndarray] = []
        for w in range(max_len):
            fw_rows = starts + w
            forward.append(fw_rows[fw_rows < stops])
            bw_rows = stops - 1 - w
            bw_waves.append(bw_rows[bw_rows >= starts])
        backward_per_color.append(bw_waves)
    # Backward sweep: colours descending, but waves inside a colour keep
    # their bottom-up order (deepest rows of each block first).
    backward: List[np.ndarray] = []
    for bw_waves in reversed(backward_per_color):
        backward.extend(bw_waves)
    return SweepGroups(forward=forward, backward=backward, origin="abmc")


# ---------------------------------------------------------------------------
# fused vectorised implementation
# ---------------------------------------------------------------------------
ExecutorKind = Literal["serial", "threads", "processes"]

#: Valid values of ``FBMPKOperator.executor`` (the ``"processes"``
#: backend is the shared-memory worker pool of
#: :mod:`repro.parallel.procexec`).
EXECUTOR_KINDS = ("serial", "threads", "processes")

#: Sentinel distinguishing "keep the current value" from an explicit
#: None in configure_executor (None disables the hang watchdog).
_KEEP = object()


def _snapshot_counter(counter: Optional[KernelCounter]):
    """Capture a :class:`KernelCounter`'s fields so an aborted threaded
    attempt can be rolled back before the serial fallback recounts."""
    if counter is None:
        return None
    return (counter.l_passes, counter.u_passes, counter.l_entries,
            counter.u_entries, counter._partial_l, counter._partial_u)


def _restore_counter(counter: Optional[KernelCounter], snap) -> None:
    """Undo the counts of an aborted attempt (see :func:`_snapshot_counter`)."""
    if counter is None or snap is None:
        return
    (counter.l_passes, counter.u_passes, counter.l_entries,
     counter.u_entries, counter._partial_l, counter._partial_u) = snap


def _inverse_rows(perm: np.ndarray) -> np.ndarray:
    """Row gather that undoes ``X[perm]`` (used by ``power_block``)."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0], dtype=np.int64)
    return inv


def _as_float64(x: np.ndarray) -> np.ndarray:
    """``np.asarray(x, float64)`` with an explicit no-copy fast path: a
    float64 ndarray passes through untouched (the input is written
    straight into the operator's persistent BtB buffer, so no defensive
    copy is needed either)."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def _phase_segments(tri: CSRMatrix,
                    batch: DescriptorBatch) -> List[kernels.Segment]:
    """One serial segment per phase of ``batch``: the rows of its blocks,
    chained when any block is (same-colour blocks share no entries, so a
    phase's rows depend on each other only inside a block)."""
    segs = []
    for pi in range(batch.n_phases):
        lo, hi = batch.phase_range(pi)
        if lo == hi:
            continue
        order = np.argsort(batch.starts[lo:hi], kind="stable") + lo
        rows = kernels.ranges_to_rows(batch.starts[order],
                                      batch.stops[order])
        segs.append(kernels.row_set(tri, rows,
                                    bool(batch.chained[lo:hi].any())))
    return segs


def _unpack_phases(tri: CSRMatrix, ptr: np.ndarray, colors: np.ndarray,
                   starts: np.ndarray, stops: np.ndarray) -> List[Phase]:
    """The phases :meth:`FBMPKOperator.save` packed, block nnz re-read
    from ``tri``."""
    blocks = np.stack([starts, stops, tri.indptr[stops] - tri.indptr[starts]],
                      axis=1).tolist()
    return [Phase(color=c, tasks=[BlockTask(*b) for b in blocks[lo:hi]])
            for c, lo, hi in zip(colors.tolist(), ptr[:-1].tolist(),
                                 ptr[1:].tolist())]


def _descriptor_runner(kernel, tri: CSRMatrix, batch: DescriptorBatch,
                       *buffers) -> Callable[[int], None]:
    """The threads executor's ``run_desc``: descriptor ``g`` of ``batch``
    through the sweep ``kernel`` (:func:`kernels.forward` or
    :func:`kernels.backward`) over ``buffers``."""
    starts, stops, chained = batch.starts, batch.stops, batch.chained

    def run(g: int) -> None:
        s, e = int(starts[g]), int(stops[g])
        kernel(kernels.row_range(tri, s, e), slice(s, e), *buffers,
               bool(chained[g]))
    return run


@dataclass
class _ThreadedState:
    """Lazily built artefacts of the ``"threads"`` execution backend.

    The phase schedule is packed once into :class:`DescriptorBatch`
    arrays (the same plan the process backend registers in its arena);
    the claim loop runs each descriptor straight from them.
    """

    fw_phases: List[Phase]
    bw_phases: List[Phase]
    fw_batch: DescriptorBatch
    bw_batch: DescriptorBatch
    pool: ThreadedPhaseExecutor


@dataclass
class _ProcState:
    """Lazily built artefacts of the ``"processes"`` execution backend.

    The pool owns the shared-memory arena holding the triangles and the
    working buffers; the operator's ``_xy_buf``/``_tmp_buf`` are bound
    to the arena's segments while this state is live, so the sweeps
    write straight into memory every worker has mapped.  ``fw_plan``/
    ``bw_plan`` are the registered descriptor-plan slots both the
    vector and block sweeps dispatch through.
    """

    fw_phases: List[Phase]
    bw_phases: List[Phase]
    fw_plan: int
    bw_plan: int
    pool: ProcessPhaseExecutor


PhasePlan = Tuple[List[Phase], List[Phase]]


def fbmpk_fused(
    part: TriangularPartition,
    groups: SweepGroups,
    x: np.ndarray,
    k: int,
    on_iterate: Optional[IterateCallback] = None,
    counter: Optional[KernelCounter] = None,
) -> np.ndarray:
    """Fused FBMPK over precomputed sweep groups (convenience wrapper that
    prepares the sweep segments on the fly; prefer
    :class:`FBMPKOperator` for repeated use)."""
    op = FBMPKOperator(part, groups)
    return op.power(x, k, on_iterate=on_iterate, counter=counter)


class FBMPKOperator:
    """Preprocessed FBMPK executor (the library's main entry point).

    Holds the ``L + D + U`` partition, the sweep groups and the serial
    sweep segments, prepared once (the segments on first use) — the "one-off
    preprocessing whose overhead is amortised when A is reused", as the
    paper argues in Sections III and V-F.  The serial sweeps make one
    compiled call per segment: per ABMC colour when the operator carries
    its colour phases (a colour's rows are one contiguous range), per
    sweep group otherwise.  When built through
    :func:`build_fbmpk_operator` with ABMC, the operator also owns the row
    permutation and transparently maps inputs/outputs to the original
    numbering.

    The operator retains its BtB iterate buffer and sweep temporary
    between calls (outputs are always copied out), so one instance must
    not execute overlapping ``power``/``power_block`` calls from
    multiple threads; create one operator per concurrent caller.
    """

    def __init__(
        self,
        part: TriangularPartition,
        groups: SweepGroups,
        perm: Optional[np.ndarray] = None,
        validate: bool = True,
        executor: ExecutorKind = "serial",
        n_threads: Optional[int] = None,
        assign_policy: str = "lpt",
        phase_plan: Optional[PhasePlan] = None,
        on_failure: str = "raise",
        hang_timeout: Optional[float] = None,
        claim_chunk: Optional[int] = None,
        pin_workers: Optional[bool] = None,
    ) -> None:
        if validate and not check_sweep_groups(part, groups):
            raise ValueError("invalid sweep groups for this partition")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        self.part = part
        self.groups = groups
        self.perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        self.executor = executor
        self.n_threads = n_threads
        self.assign_policy = assign_policy
        #: What a crashed threaded phase does to ``power``: ``"raise"``
        #: propagates the :class:`PhaseExecutionError`; with
        #: ``"fallback_serial"`` the operator closes the pool, warns, and
        #: recomputes the whole call with the serial fused sweeps — the
        #: result is bit-identical to a clean serial run.
        self.on_failure = on_failure
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        #: Hung-worker bound forwarded to both parallel backends: the
        #: process executor's per-heartbeat watchdog and the threaded
        #: executor's per-phase barrier timeout (None disables both).
        self.hang_timeout = hang_timeout
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1 (or None)")
        #: Blocks a worker claims per work-stealing cursor round-trip in
        #: the batched dispatch path (None auto-sizes per phase); the
        #: tuner searches this jointly with executor and block size.
        self.claim_chunk = claim_chunk
        #: Deterministic best-effort worker CPU pinning for the process
        #: backend (None = auto: pin only on multi-CPU hosts).
        self.pin_workers = pin_workers
        #: :class:`~repro.parallel.executor.ExecutionStats` of the most
        #: recent ``power`` call that ran on the threaded backend; None
        #: after serial runs.
        self.last_stats: Optional[ExecutionStats] = None
        self._phase_plan = phase_plan
        self._validate_phases = validate
        self._phases_checked = False
        self._threaded: Optional[_ThreadedState] = None
        self._procs: Optional[_ProcState] = None
        # True while _xy_buf/_tmp_buf/_blk_buf are views into the
        # process pool's shared-memory arena (they must be dropped when
        # the arena is unlinked).
        self._shm_bound = False
        self._tstats = None  # lazy MatrixTrafficStats for telemetry
        # Persistent working buffers, allocated on first use and reused
        # across power calls: the 2n BtB iterate buffer and the length-n
        # sweep temporary.  Reusing them removes two O(n) allocations
        # from every A^k x call — which matters exactly in the
        # many-repeated-calls regime FBMPK exists for.  One consequence:
        # a single operator instance must not run concurrent power
        # calls (serial reuse was always the intended pattern).
        self._xy_buf: Optional[np.ndarray] = None
        self._tmp_buf: Optional[np.ndarray] = None
        self._blk_buf: Optional[np.ndarray] = None
        self._segments: Optional[Tuple[List[kernels.Segment],
                                       List[kernels.Segment]]] = None
        self._batches: Optional[Tuple[DescriptorBatch,
                                      DescriptorBatch]] = None

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.part.n

    # -- execution backend ---------------------------------------------
    def configure_executor(
        self,
        executor: Optional[ExecutorKind] = None,
        n_threads: Optional[int] = None,
        assign_policy: Optional[str] = None,
        on_failure: Optional[str] = None,
        hang_timeout: object = _KEEP,
        claim_chunk: object = _KEEP,
        pin_workers: object = _KEEP,
    ) -> "FBMPKOperator":
        """Re-point the operator at a different execution backend.

        Phases and sweep segments are preprocessing artefacts and are
        kept; only the worker pools are recreated, so a benchmark can
        sweep thread counts and policies over one amortised
        preprocessing pass (Section V-F).  Returns ``self`` for
        chaining.
        """
        if executor is not None:
            if executor not in EXECUTOR_KINDS:
                raise ValueError(f"unknown executor {executor!r}")
            self.executor = executor
        if n_threads is not None:
            self.n_threads = n_threads
        if assign_policy is not None:
            self.assign_policy = assign_policy
            self._batches = None
        if on_failure is not None:
            if on_failure not in ("raise", "fallback_serial"):
                raise ValueError(
                    f"unknown on_failure policy {on_failure!r}")
            self.on_failure = on_failure
        if hang_timeout is not _KEEP:
            # None is a meaningful value here (disable the watchdog),
            # hence the sentinel default instead of None-means-keep.
            if hang_timeout is not None and hang_timeout <= 0:
                raise ValueError(
                    "hang_timeout must be positive (or None)")
            self.hang_timeout = hang_timeout
        if claim_chunk is not _KEEP:
            # None is meaningful (auto-size per phase), same sentinel
            # discipline as hang_timeout.
            if claim_chunk is not None and claim_chunk < 1:
                raise ValueError("claim_chunk must be >= 1 (or None)")
            self.claim_chunk = claim_chunk
        if pin_workers is not _KEEP:
            self.pin_workers = pin_workers
        if self._threaded is not None:
            if assign_policy is not None:
                # Batch order depends on the policy; rebuild the plan
                # from scratch.
                self._threaded = None
            else:
                self._threaded.pool.close()
                self._threaded.pool = ThreadedPhaseExecutor(
                    self.n_threads, self.assign_policy,
                    hang_timeout=self.hang_timeout,
                    claim_chunk=self.claim_chunk)
        self._close_procs()  # next processes call rebuilds with new knobs
        return self

    def _built_phase_plan(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule both parallel
        backends execute: the constructor-provided plan if any, otherwise
        one phase per sweep group.  Built and validated once, shared by
        the ``"threads"`` and ``"processes"`` states."""
        if self._phase_plan is None:
            self._phase_plan = (
                phases_from_groups(self.part.lower, self.groups.forward),
                phases_from_groups(self.part.upper, self.groups.backward))
        fw, bw = self._phase_plan
        if self._validate_phases and not self._phases_checked:
            if not check_phases(self.part.lower, fw) \
                    or not check_phases(self.part.upper, bw):
                raise ValueError(
                    "phases are not executable with one barrier each")
            self._phases_checked = True
        return fw, bw

    def _descriptor_batches(self) -> Tuple[DescriptorBatch,
                                           DescriptorBatch]:
        """The ``(forward, backward)`` phase plan packed as descriptor
        batches under :attr:`assign_policy`, each block flagged chained
        against its sweep's triangle: the one plan the serial segments,
        the threads executor and the process workers all read."""
        if self._batches is None:
            fw, bw = self._built_phase_plan()
            self._batches = (
                DescriptorBatch.from_phases(fw, self.assign_policy,
                                            self.part.lower),
                DescriptorBatch.from_phases(bw, self.assign_policy,
                                            self.part.upper))
        return self._batches

    def _serial_segments(self) -> Tuple[List[kernels.Segment],
                                        List[kernels.Segment]]:
        """The ``(forward, backward)`` segments of the serial sweeps,
        built on first use: one per colour phase when the operator
        carries its colour phases (validated then), one per sweep group
        otherwise (a group's rows never depend on each other)."""
        if self._segments is None:
            if self._phase_plan is not None:
                fw, bw = self._descriptor_batches()
                self._segments = (_phase_segments(self.part.lower, fw),
                                  _phase_segments(self.part.upper, bw))
            else:
                self._segments = tuple(
                    [kernels.row_set(tri, rows, False)
                     for rows in groups if len(rows)]
                    for tri, groups in (
                        (self.part.lower, self.groups.forward),
                        (self.part.upper, self.groups.backward)))
        return self._segments

    def _ensure_threaded(self) -> _ThreadedState:
        """Build the descriptor batches and worker pool on first
        threaded use (lazy so serial operators pay nothing)."""
        if self._threaded is None:
            fw, bw = self._built_phase_plan()
            fw_batch, bw_batch = self._descriptor_batches()
            self._threaded = _ThreadedState(
                fw_phases=fw, bw_phases=bw,
                fw_batch=fw_batch, bw_batch=bw_batch,
                pool=ThreadedPhaseExecutor(self.n_threads,
                                           self.assign_policy,
                                           hang_timeout=self.hang_timeout,
                                           claim_chunk=self.claim_chunk))
        return self._threaded

    def _ensure_procs(self) -> _ProcState:
        """Build the process pool (and its shared-memory arena) on first
        ``"processes"`` use, and bind the operator's persistent working
        buffers to the arena segments — the sweeps then write directly
        into memory every worker has mapped, so dispatch ships no array
        data.  The binding happens *before* ``_acquire_pair`` /
        ``_acquire_tmp`` run, which makes those reuse the shared
        segments instead of allocating private memory."""
        if self._procs is None:
            fw, bw = self._built_phase_plan()
            fw_batch, bw_batch = self._descriptor_batches()
            pool = ProcessPhaseExecutor(
                self.part, n_workers=self.n_threads,
                policy=self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk,
                pin_workers=self.pin_workers)
            self._procs = _ProcState(
                fw_phases=fw, bw_phases=bw,
                fw_plan=pool.register_batch(fw_batch),
                bw_plan=pool.register_batch(bw_batch),
                pool=pool)
        self._xy_buf = self._procs.pool.xy
        self._tmp_buf = self._procs.pool.tmp
        self._shm_bound = True
        return self._procs

    def _close_procs(self) -> None:
        """Tear the process backend down: stop the workers, unlink the
        shared-memory segments, and drop any operator buffers that were
        views into them (idempotent)."""
        if self._procs is not None:
            self._procs.pool.close()
            self._procs = None
        if self._shm_bound:
            self._xy_buf = None
            self._tmp_buf = None
            self._blk_buf = None
            self._shm_bound = False

    def worker_health(self) -> Dict[str, object]:
        """Liveness snapshot of the parallel backends, for health
        endpoints: the configured executor plus one alive-bool per
        process-pool worker slot (``None`` until a pool is spawned)."""
        health: Dict[str, object] = {"executor": self.executor,
                                     "hang_timeout_s": self.hang_timeout,
                                     "process_workers": None}
        if self._procs is not None:
            health["process_workers"] = self._procs.pool.worker_liveness()
        return health

    def block_phases(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule the threaded
        backend executes (built lazily on first access).  Useful for
        feeding the very same schedule to
        :func:`repro.parallel.simulate_phases` and comparing predictions
        against :attr:`last_stats`."""
        state = self._ensure_threaded()
        return state.fw_phases, state.bw_phases

    def close(self) -> None:
        """Shut down the parallel backends: the threaded worker pool,
        and the process pool with its shared-memory segments
        (idempotent; the operator remains usable and will respawn
        workers — and re-create segments — on the next parallel call)."""
        if self._threaded is not None:
            self._threaded.pool.close()
            self._threaded = None
        self._close_procs()

    def __enter__(self) -> "FBMPKOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- working buffers -----------------------------------------------
    def _acquire_pair(self, x: np.ndarray) -> InterleavedPair:
        """The persistent BtB buffer, loaded with ``x`` in the even slots
        and zeros in the odd ones (allocated on first use, reused by
        every later ``power`` call)."""
        if self._xy_buf is None:
            self._xy_buf = np.empty(2 * self.n, dtype=np.float64)
        xy = self._xy_buf
        xy[0::2] = x
        xy[1::2] = 0.0
        return InterleavedPair(xy)

    def _acquire_tmp(self, x: np.ndarray) -> np.ndarray:
        """The persistent sweep temporary, loaded with the head product
        ``U x`` (summed from zero).  The first call adopts the product's
        own allocation; later calls copy into the retained buffer
        instead of keeping a fresh array per call."""
        head = kernels.head(self.part.upper, x[:, None])[:, 0]
        if self._tmp_buf is None:
            self._tmp_buf = head
        else:
            np.copyto(self._tmp_buf, head)
        return self._tmp_buf

    # -- sweeps --------------------------------------------------------
    def _forward_sweep(self, XY: np.ndarray, tmp: np.ndarray,
                       d: np.ndarray, counter: Optional[KernelCounter]) -> None:
        """One fused forward stage over the ``(n, 2m)`` interleaved
        buffer: finish the odd iterates and leave ``tmp = L x_odd +
        D x_odd``, streaming L exactly once (one compiled call per
        segment)."""
        l_total = self.part.lower.nnz
        for seg in self._serial_segments()[0]:
            kernels.forward(seg.tri, seg.rows, XY, tmp, d, seg.chained)
            if counter:
                counter.count_l(seg.nnz, l_total)

    def _backward_sweep(self, XY: np.ndarray, tmp: np.ndarray,
                        counter: Optional[KernelCounter]) -> None:
        """One fused backward stage: finish the even iterates and leave
        ``tmp = U x_even``, streaming U exactly once."""
        u_total = self.part.upper.nnz
        for seg in self._serial_segments()[1]:
            kernels.backward(seg.tri, seg.rows, XY, tmp, seg.chained)
            if counter:
                counter.count_u(seg.nnz, u_total)

    # -- public API ----------------------------------------------------
    def power(
        self,
        x: np.ndarray,
        k: int,
        on_iterate: Optional[IterateCallback] = None,
        counter: Optional[KernelCounter] = None,
        check_finite: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``A^k x`` with the fused forward-backward pipeline.

        With ``executor="threads"`` the forward/backward stages run on
        the real colour-phase executor (same-colour blocks concurrently,
        one barrier per colour); with ``executor="processes"`` they run
        on the shared-memory worker pool of
        :mod:`repro.parallel.procexec` (same phases, GIL-free).  Either
        way the result is bit-identical to the serial executor — and to
        :func:`fbmpk_reference` on the operator's row ordering — and the
        run's timings land in :attr:`last_stats`.  The head/tail
        full-triangle products run in the calling process whatever the
        executor.

        ``out``, if given, receives the result (a float64 array of
        shape ``(n,)``) instead of a fresh allocation — the repeated-
        call regime FBMPK exists for can then run allocation-free.  The
        returned array *is* ``out``.  Iterates passed to ``on_iterate``
        are always freshly allocated (they must outlive the call).

        ``check_finite=True`` guards the computation against NaN/Inf:
        the input vector and every produced iterate are checked, and a
        :class:`~repro.robust.errors.NonFiniteError` names the first
        power at which a non-finite value appeared — instead of silently
        propagating garbage through the remaining sweeps.

        Failure containment: if a sweep raises mid-call on a parallel
        backend, the worker pool is shut down before the exception
        leaves this method (no leaked threads or processes, no leaked
        shared memory).  With ``on_failure="fallback_serial"`` a
        :class:`~repro.robust.errors.PhaseExecutionError` is not raised
        at all — the operator warns and recomputes the whole call with
        the serial fused sweeps from the original input, bit-identical
        to a clean serial run.  This containment also covers a worker
        process killed mid-phase (detected by the pool's liveness
        polling).  (``on_iterate`` callbacks observed before the crash
        fire again during the rerun.)
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        x = _as_float64(x)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        out = self._check_out(out, (self.n,))
        if check_finite:
            ensure_finite(x, "input vector x")
        self.last_stats = None
        if self.perm is not None:
            x = permute_vector(x, self.perm)
        if k == 0:
            if self.perm is not None:
                return unpermute_vector(x, self.perm, out=out)
            if out is not None:
                np.copyto(out, x)
                return out
            return x.copy()
        mode = self.executor
        # Telemetry bookkeeping: when a session is active we always keep
        # pass counts (in the caller's counter if given, an internal one
        # otherwise) so the run's matrix-read equivalents can be
        # published; deltas are taken against a snapshot because a
        # caller-provided counter may accumulate several runs.
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        with obs.span("fbmpk.power", k=k, n=self.n,
                      executor=self.executor, origin=self.groups.origin):
            if mode == "serial":
                y = self._power_body(x, k, on_iterate, counter,
                                     check_finite, mode="serial", out=out)
                self._publish_power_telemetry(k, counter, obs_snap)
                return y
            fallback = self.on_failure == "fallback_serial"
            x_saved = x.copy() if fallback else None
            counter_saved = _snapshot_counter(counter) if fallback else None
            try:
                y = self._power_body(x, k, on_iterate, counter,
                                     check_finite, mode=mode, out=out)
            except PhaseExecutionError:
                self.close()
                # A hung worker thread cannot be killed, only abandoned
                # with its pool; it still holds references to the sweep
                # buffers via its bin closure.  Drop ours so any zombie
                # writes land in orphaned arrays — the rerun (and every
                # later call) allocates fresh ones.
                self._xy_buf = self._tmp_buf = self._blk_buf = None
                if not fallback:
                    raise
                warnings.warn(
                    f"{mode} FBMPK phase crashed; recomputing serially "
                    "(on_failure='fallback_serial')", RuntimeWarning,
                    stacklevel=2)
                _restore_counter(counter, counter_saved)
                self.last_stats = None
                y = self._power_body(x_saved, k, on_iterate, counter,
                                     check_finite, mode="serial", out=out)
            except BaseException:
                # Any other mid-sweep failure (a NonFiniteError between
                # stages, a raising on_iterate callback, ...) must not
                # leak the worker pool either.
                self.close()
                raise
            self._publish_power_telemetry(k, counter, obs_snap)
            return y

    def _check_out(self, out: Optional[np.ndarray],
                   shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """Validate a caller-provided result buffer: float64, C-order,
        exact shape — the contract that lets the pipeline write into it
        without conversions."""
        if out is None:
            return None
        if not isinstance(out, np.ndarray) or out.dtype != np.float64:
            raise TypeError("out must be a float64 ndarray")
        if out.shape != shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {shape}")
        return out

    def _power_body(
        self,
        x: np.ndarray,
        k: int,
        on_iterate: Optional[IterateCallback],
        counter: Optional[KernelCounter],
        check_finite: bool,
        mode: str,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The sweep pipeline proper; ``x`` is already permuted and
        ``k >= 1`` validated by :meth:`power`.  ``mode`` is the resolved
        execution backend for this attempt (``power`` may retry a failed
        parallel attempt with ``mode="serial"``)."""
        d = self.part.diag[:, None]
        threaded = mode == "threads"
        procs = mode == "processes"
        if procs:
            # Must run before _acquire_pair/_acquire_tmp: binds the
            # persistent buffers to the pool's shared-memory segments.
            pstate = self._ensure_procs()
        pair = self._acquire_pair(x)
        XY = pair.as_matrix()
        with obs.span("fbmpk.head", sweep="head"):
            # (n, 1) view: the kernels treat a vector as a one-column
            # block, with the same per-row arithmetic.
            tmp = self._acquire_tmp(x)[:, None]
        if counter:
            counter.count_u(self.part.upper.nnz, self.part.upper.nnz)
        if threaded:
            state = self._ensure_threaded()
            stats = ExecutionStats(n_threads=state.pool.n_threads,
                                   policy=state.pool.policy)
            self.last_stats = stats
            fw_run = _descriptor_runner(kernels.forward, self.part.lower,
                                        state.fw_batch, XY, tmp, d)
            bw_run = _descriptor_runner(kernels.backward, self.part.upper,
                                        state.bw_batch, XY, tmp)
        elif procs:
            stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                   policy=pstate.pool.policy)
            self.last_stats = stats
        power = 0
        for _ in range(k // 2):
            with obs.span("fbmpk.sweep", sweep="forward",
                          power_step=power + 1):
                if threaded:
                    state.pool.run_batched(state.fw_batch, fw_run, stats)
                elif procs:
                    pstate.pool.run_batched(pstate.fw_plan, "forward",
                                            stats)
                else:
                    self._forward_sweep(XY, tmp, d, counter)
                if (threaded or procs) and counter:
                    counter.count_l(self.part.lower.nnz,
                                    self.part.lower.nnz)
            power += 1
            obs.event("fbmpk.iterate", power_step=power)
            if check_finite:
                ensure_finite(pair.odd, f"iterate A^{power} x")
            if on_iterate:
                on_iterate(power, self._out(pair.odd))
            with obs.span("fbmpk.sweep", sweep="backward",
                          power_step=power + 1):
                if threaded:
                    state.pool.run_batched(state.bw_batch, bw_run, stats)
                elif procs:
                    pstate.pool.run_batched(pstate.bw_plan, "backward",
                                            stats)
                else:
                    self._backward_sweep(XY, tmp, counter)
                if (threaded or procs) and counter:
                    counter.count_u(self.part.upper.nnz,
                                    self.part.upper.nnz)
            power += 1
            obs.event("fbmpk.iterate", power_step=power)
            if check_finite:
                ensure_finite(pair.even, f"iterate A^{power} x")
            if on_iterate:
                on_iterate(power, self._out(pair.even))
        if k % 2:
            with obs.span("fbmpk.tail", sweep="tail", power_step=k):
                y = kernels.tail(self.part.lower, XY, tmp, d)[:, 0]
            if counter:
                counter.count_l(self.part.lower.nnz, self.part.lower.nnz)
            obs.event("fbmpk.iterate", power_step=k)
            if check_finite:
                ensure_finite(y, f"iterate A^{k} x")
            if on_iterate:
                on_iterate(k, self._out(y))
            return self._out(y, out)
        return self._out(XY[:, 0], out)

    # -- telemetry ------------------------------------------------------
    def _traffic_stats(self):
        """Lazy :class:`~repro.memsim.traffic.MatrixTrafficStats` of the
        operator's matrix (bandwidth measured over both triangles),
        built only when a telemetry session asks for the DRAM model."""
        if self._tstats is None:
            from ..memsim.traffic import MatrixTrafficStats

            bw = 1
            for tri in (self.part.lower, self.part.upper):
                if tri.nnz:
                    rows = np.repeat(
                        np.arange(tri.n_rows, dtype=np.int64),
                        tri.row_nnz())
                    bw = max(bw, int(np.abs(rows - tri.indices).max()))
            self._tstats = MatrixTrafficStats(
                n=self.n, nnz=self.part.source_nnz, bandwidth=float(bw))
        return self._tstats

    def _publish_power_telemetry(self, k: int,
                                 counter: Optional[KernelCounter],
                                 snap) -> None:
        """Publish one completed ``power``/``power_block`` call to the
        active telemetry session: instrumented pass counts (as deltas
        against ``snap``), the matrix-read equivalents that make the
        paper's ``(k+1)/2`` claim observable per run, and the modelled
        DRAM byte volumes from :mod:`repro.memsim.traffic`."""
        tel = obs.current()
        if tel is None or counter is None or snap is None:
            return
        l_entries = counter.l_entries - snap[2]
        u_entries = counter.u_entries - snap[3]
        nnz = max(self.part.source_nnz, 1)
        # Diagonal contributions: one stream of d per produced iterate.
        equivalents = (l_entries + u_entries + k * self.n) / nnz
        obs.add_counter("fbmpk.powers")
        obs.add_counter("fbmpk.l_passes", counter.l_passes - snap[0])
        obs.add_counter("fbmpk.u_passes", counter.u_passes - snap[1])
        obs.add_counter("fbmpk.matrix_read_equivalents", equivalents,
                        unit="A-reads")
        obs.add_counter("fbmpk.standard_matrix_reads", k, unit="A-reads")
        from ..memsim.traffic import fbmpk_traffic, mpk_standard_traffic

        stats = self._traffic_stats()
        fb = fbmpk_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        std = mpk_standard_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        obs.add_counter("fbmpk.model.dram_bytes", fb, unit="bytes")
        obs.add_counter("fbmpk.model.baseline_dram_bytes", std,
                        unit="bytes")
        if std:
            obs.set_gauge("fbmpk.model.traffic_ratio", fb / std)

    def power_block(self, X: np.ndarray, k: int,
                    counter: Optional[KernelCounter] = None,
                    check_finite: bool = False,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``A^k X`` for a dense block ``X`` of shape ``(n, m)``.

        Block version of :meth:`power` for subspace methods (Chebyshev
        filters, block power iteration): all ``m`` columns advance
        through the same fused sweeps, so each triangle is still
        streamed once per stage — the matrix reads are amortised over
        the whole block, not paid per column.  Each compiled call covers
        all ``2m`` columns with the per-row order of a single vector, so
        every column is bitwise equal to :meth:`power` on that column.

        The working buffer interleaves each column's even/odd iterates
        (columns ``2j``/``2j + 1``), the block generalisation of the BtB
        layout.  With ``executor="processes"`` the sweeps run on the
        shared-memory worker pool (the interleaved block buffer lives in
        a shared segment), bit-identical to the serial path and with the
        same :class:`PhaseExecutionError` containment as :meth:`power`;
        any other executor runs the serial fused sweeps.  ``out``, if
        given, receives the ``(n, m)`` result instead of a fresh
        allocation.  ``check_finite=True`` validates the input block and
        every completed stage pair (see :meth:`power`).
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        X = _as_float64(X)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"X has shape {X.shape}, expected ({self.n}, m)")
        out = self._check_out(out, X.shape)
        if check_finite:
            ensure_finite(X, "input block X")
        if self.perm is not None:
            X = X[self.perm]
        if k == 0:
            return self._finish_block(X, out, owned=False)
        m = X.shape[1]
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        mode = "processes" if self.executor == "processes" else "serial"
        with obs.span("fbmpk.power_block", k=k, n=self.n, m=m,
                      executor=mode):
            if mode == "serial":
                Y, owned = self._power_block_body(X, k, counter,
                                                  check_finite)
            else:
                fallback = self.on_failure == "fallback_serial"
                counter_saved = _snapshot_counter(counter) if fallback \
                    else None
                try:
                    Y, owned = self._power_block_body(X, k, counter,
                                                      check_finite,
                                                      procs=True)
                except PhaseExecutionError:
                    self.close()
                    # Same zombie-writer defence as power(): see there.
                    self._xy_buf = self._tmp_buf = self._blk_buf = None
                    if not fallback:
                        raise
                    warnings.warn(
                        "processes FBMPK block phase crashed; recomputing "
                        "serially (on_failure='fallback_serial')",
                        RuntimeWarning, stacklevel=2)
                    _restore_counter(counter, counter_saved)
                    self.last_stats = None
                    Y, owned = self._power_block_body(X, k, counter,
                                                      check_finite)
                except BaseException:
                    # Mid-call NonFiniteError etc. must not leak the
                    # worker pool or its shared segments.
                    self.close()
                    raise
        self._publish_power_telemetry(k, counter, obs_snap)
        return self._finish_block(Y, out, owned=owned)

    def _power_block_body(self, X: np.ndarray, k: int,
                          counter: Optional[KernelCounter],
                          check_finite: bool, procs: bool = False
                          ) -> Tuple[np.ndarray, bool]:
        """Fused block sweeps over the persistent interleaved buffer:
        serial, or on the process pool (``procs``) with the block buffer
        and temporary in shared segments and only block descriptors
        dispatched.  Returns ``(Y, owned)`` in the operator's numbering,
        ``owned=False`` meaning ``Y`` aliases the working buffer."""
        m = X.shape[1]
        d = self.part.diag[:, None]
        if procs:
            pstate = self._ensure_procs()
            XY, tmp = pstate.pool.ensure_block(m)
            self._blk_buf = XY
            stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                   policy=pstate.pool.policy)
            self.last_stats = stats
        else:
            if self._blk_buf is None or self._blk_buf.shape[1] != 2 * m:
                self._blk_buf = np.zeros((self.n, 2 * m), dtype=np.float64)
            XY = self._blk_buf
        XY[:, 0::2] = X
        XY[:, 1::2] = 0.0
        head = kernels.head(self.part.upper, X)
        if procs:
            np.copyto(tmp, head)
        else:
            tmp = head
        l_total = self.part.lower.nnz
        u_total = self.part.upper.nnz
        if counter:
            counter.count_u(u_total, u_total)
        stage = 0
        for _ in range(k // 2):
            with obs.span("fbmpk.sweep", sweep="forward",
                          power_step=stage + 1):
                if procs:
                    pstate.pool.run_batched(pstate.fw_plan, "forward_block",
                                            stats)
                    if counter:
                        counter.count_l(l_total, l_total)
                else:
                    self._forward_sweep(XY, tmp, d, counter)
            with obs.span("fbmpk.sweep", sweep="backward",
                          power_step=stage + 2):
                if procs:
                    pstate.pool.run_batched(pstate.bw_plan, "backward_block",
                                            stats)
                    if counter:
                        counter.count_u(u_total, u_total)
                else:
                    self._backward_sweep(XY, tmp, counter)
            stage += 2
            if check_finite:
                ensure_finite(XY, f"block iterates through A^{stage} X")
        if k % 2:
            with obs.span("fbmpk.tail", sweep="tail", power_step=k):
                Y = kernels.tail(self.part.lower, XY, tmp, d)
            if counter:
                counter.count_l(l_total, l_total)
            if check_finite:
                ensure_finite(Y, f"block iterate A^{k} X")
            return Y, True
        return XY[:, 0::2], False

    def _finish_block(self, Y: np.ndarray, out: Optional[np.ndarray],
                      owned: bool) -> np.ndarray:
        """Map a result block from the operator's numbering back to the
        caller's, landing in ``out`` when provided.  ``owned=False``
        marks ``Y`` as aliasing a working buffer (it must be copied
        before returning)."""
        if out is not None:
            if self.perm is not None:
                out[self.perm] = Y
            else:
                np.copyto(out, Y)
            return out
        if self.perm is not None:
            return Y[_inverse_rows(self.perm)]
        return Y if owned else Y.copy()

    def _out(self, y: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
        """Copy out of the working buffer, undoing any ABMC permutation;
        with ``out`` the copy lands in the caller's buffer instead of a
        fresh allocation."""
        y = np.asarray(y, dtype=np.float64)
        if self.perm is not None:
            return unpermute_vector(y, self.perm, out=out)
        if out is not None:
            np.copyto(out, y)
            return out
        return y.copy()

    # -- persistence ----------------------------------------------------
    def save(self, path) -> None:
        """Persist the preprocessed operator to an ``.npz`` file.

        The paper stresses that splitting/reordering "can often be
        performed offline when storing the matrix data" (Section IV-C);
        this makes the offline artefact concrete.
        """
        groups_fw = [np.asarray(g, dtype=np.int64)
                     for g in self.groups.forward]
        groups_bw = [np.asarray(g, dtype=np.int64)
                     for g in self.groups.backward]
        payload = {
            "l_indptr": self.part.lower.indptr,
            "l_indices": self.part.lower.indices,
            "l_data": self.part.lower.data,
            "u_indptr": self.part.upper.indptr,
            "u_indices": self.part.upper.indices,
            "u_data": self.part.upper.data,
            "diag": self.part.diag,
            "source_nnz": np.int64(self.part.source_nnz),
            "n_fw": np.int64(len(groups_fw)),
            "n_bw": np.int64(len(groups_bw)),
            "origin": np.bytes_(self.groups.origin.encode()),
            "has_perm": np.bool_(self.perm is not None),
        }
        if self.perm is not None:
            payload["perm"] = self.perm
        # Colour phases of one-row blocks sweep exactly as the stored
        # groups do (one group per colour), so only phases with wider
        # blocks are stored.
        if self._phase_plan is not None and any(
                t.stop - t.start > 1
                for p in self._phase_plan[0] for t in p.tasks):
            for name, phases in zip(("fw", "bw"), self._phase_plan):
                # round_robin keeps each phase's declared block order.
                b = DescriptorBatch.from_phases(phases, "round_robin")
                payload[f"{name}_phase_ptr"] = b.phase_ptr
                payload[f"{name}_phase_colors"] = b.colors
                payload[f"{name}_block_starts"] = b.starts
                payload[f"{name}_block_stops"] = b.stops
        for i, g in enumerate(groups_fw):
            payload[f"fw_{i}"] = g
        for i, g in enumerate(groups_bw):
            payload[f"bw_{i}"] = g
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path, executor: ExecutorKind = "serial",
             n_threads: Optional[int] = None,
             assign_policy: str = "lpt",
             claim_chunk: Optional[int] = None,
             pin_workers: Optional[bool] = None) -> "FBMPKOperator":
        """Rebuild an operator persisted with :meth:`save`.

        An ABMC operator whose blocks span more than one row gets its
        colour phases back, so it sweeps one segment per colour as the
        built one does.  Other operators derive their phases from the
        stored sweep groups (one phase per group); for one-row ABMC
        blocks that is one phase per colour with the same serial
        segments.
        """
        with np.load(path) as z:
            n = z["diag"].shape[0]
            lower = CSRMatrix(z["l_indptr"], z["l_indices"], z["l_data"],
                              (n, n), check=False)
            upper = CSRMatrix(z["u_indptr"], z["u_indices"], z["u_data"],
                              (n, n), check=False)
            part = TriangularPartition(lower, upper, z["diag"],
                                       int(z["source_nnz"]))
            groups = SweepGroups(
                forward=[z[f"fw_{i}"] for i in range(int(z["n_fw"]))],
                backward=[z[f"bw_{i}"] for i in range(int(z["n_bw"]))],
                origin=bytes(z["origin"]).decode(),
            )
            perm = z["perm"] if bool(z["has_perm"]) else None
            phase_plan = None
            if "fw_phase_ptr" in z.files:
                phase_plan = tuple(
                    _unpack_phases(tri, *(z[f"{name}_{key}"] for key in (
                        "phase_ptr", "phase_colors", "block_starts",
                        "block_stops")))
                    for name, tri in (("fw", lower), ("bw", upper)))
        return cls(part, groups, perm=perm, validate=False,
                   executor=executor, n_threads=n_threads,
                   assign_policy=assign_policy, phase_plan=phase_plan,
                   claim_chunk=claim_chunk, pin_workers=pin_workers)

    def barriers_per_pair(self) -> int:
        """Synchronisation phases per forward+backward iteration — the
        quantity ABMC minimises versus the ``O(n)`` of naive pipelining."""
        return self.groups.n_forward + self.groups.n_backward


@dataclass
class _BlockedPlan:
    """One ``k``'s cached levels-blocked schedule artefacts."""

    batch: DescriptorBatch
    n_phases: int


@dataclass
class _ProcBlockedState:
    """Process backend of :class:`LevelsBlockedOperator`: the pool plus
    the per-``k`` registered plan slots."""

    pool: ProcessPhaseExecutor
    slots: Dict[int, int]


class LevelsBlockedOperator:
    """Matrix power operator with the levels-blocked (RACE-style)
    schedule — the third scheduling family next to ABMC and levels.

    Instead of FBMPK's stage fusion, DRAM traffic is saved by
    *residency*: rows are partitioned into cache-sized blocks of
    consecutive dependency levels and a skewed wavefront applies all
    ``k`` powers to a block within a bounded phase window, so the
    block's matrix entries are streamed from DRAM once and reused from
    cache (:mod:`repro.reorder.levels_blocked`).  Results are
    bit-identical to serial FBMPK with ``strategy="levels"`` (and so to
    :func:`fbmpk_reference` on the natural ordering) because every
    descriptor runs :func:`repro.core.kernels.blocked`, which sums each
    row in the order of the serial stage that produces the same power.

    All three executors run the same :class:`DescriptorBatch` plan:
    ``"serial"`` walks the descriptors in batch order, ``"threads"``
    claims them through :class:`ThreadedPhaseExecutor`'s shared cursor,
    and ``"processes"`` registers the plan table (with its op-tag row)
    in the shared arena and dispatches the ``"blocked"`` sweep.  Like
    :class:`FBMPKOperator`, one instance must not run concurrent
    ``power`` calls.
    """

    def __init__(
        self,
        part: TriangularPartition,
        block_rows: int = 256,
        validate: bool = True,
        executor: ExecutorKind = "serial",
        n_threads: Optional[int] = None,
        assign_policy: str = "lpt",
        on_failure: str = "raise",
        hang_timeout: Optional[float] = None,
        claim_chunk: Optional[int] = None,
        pin_workers: Optional[bool] = None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor {executor!r}")
        if on_failure not in ("raise", "fallback_serial"):
            raise ValueError(f"unknown on_failure policy {on_failure!r}")
        if hang_timeout is not None and hang_timeout <= 0:
            raise ValueError("hang_timeout must be positive (or None)")
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1 (or None)")
        self.part = part
        self.block_rows = int(block_rows)
        self.executor = executor
        self.n_threads = n_threads
        self.assign_policy = assign_policy
        self.on_failure = on_failure
        self.hang_timeout = hang_timeout
        self.claim_chunk = claim_chunk
        self.pin_workers = pin_workers
        self.perm = None  # rows keep their original numbering
        self.last_stats: Optional[ExecutionStats] = None
        self._validate = validate
        self.blocking: LevelBlocking = build_level_blocking(
            part.lower, part.upper, self.block_rows)
        self._plans: Dict[int, _BlockedPlan] = {}
        self._pool: Optional[ThreadedPhaseExecutor] = None
        self._procs: Optional[_ProcBlockedState] = None
        self._xy_buf: Optional[np.ndarray] = None
        self._shm_bound = False
        self._tstats = None

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.part.n

    # -- plan construction ---------------------------------------------
    def _plan_for(self, k: int) -> _BlockedPlan:
        """The per-``k`` schedule/batch, built and validated once and
        cached (the repeated-call regime reuses it for free)."""
        plan = self._plans.get(k)
        if plan is None:
            schedule = build_blocked_schedule(self.blocking, k)
            if self._validate \
                    and not check_blocked_schedule(self.blocking, schedule):
                raise ValueError(
                    "levels-blocked schedule violates the ping-pong "
                    "safety invariant")
            descs = blocked_descriptors(self.blocking, schedule,
                                        self.part.lower, self.part.upper)
            batch = DescriptorBatch.from_op_phases(descs,
                                                   self.assign_policy)
            plan = _BlockedPlan(batch=batch, n_phases=schedule.n_phases)
            if len(self._plans) >= 8:
                self._plans.clear()
            self._plans[k] = plan
        return plan

    def _run(self, batch: DescriptorBatch, g: int, XY: np.ndarray,
             d: np.ndarray) -> None:
        """Execute descriptor ``g`` of ``batch`` (serial and threads
        executors; the process workers run the same kernel)."""
        start, stop = int(batch.starts[g]), int(batch.stops[g])
        kernels.blocked(kernels.row_range(self.part.lower, start, stop),
                        kernels.row_range(self.part.upper, start, stop),
                        slice(start, stop), XY, d, int(batch.ops[g]))

    # -- execution backends --------------------------------------------
    def _ensure_threaded(self) -> ThreadedPhaseExecutor:
        if self._pool is None:
            self._pool = ThreadedPhaseExecutor(
                self.n_threads, self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk)
        return self._pool

    def _ensure_procs(self) -> _ProcBlockedState:
        """Spawn the shared-memory pool on first ``"processes"`` use and
        bind the iterate buffer to its arena segment (dispatch then
        ships no array data, exactly like :class:`FBMPKOperator`)."""
        if self._procs is None:
            pool = ProcessPhaseExecutor(
                self.part, n_workers=self.n_threads,
                policy=self.assign_policy,
                hang_timeout=self.hang_timeout,
                claim_chunk=self.claim_chunk,
                pin_workers=self.pin_workers)
            self._procs = _ProcBlockedState(pool=pool, slots={})
        self._xy_buf = self._procs.pool.xy
        self._shm_bound = True
        return self._procs

    def _proc_slot(self, pstate: _ProcBlockedState, k: int,
                   batch: DescriptorBatch) -> int:
        slot = pstate.slots.get(k)
        if slot is None:
            slot = pstate.pool.register_batch(batch)
            pstate.slots[k] = slot
        return slot

    def _close_procs(self) -> None:
        if self._procs is not None:
            self._procs.pool.close()
            self._procs = None
        if self._shm_bound:
            self._xy_buf = None
            self._shm_bound = False

    def close(self) -> None:
        """Shut down the parallel backends (idempotent; the operator
        remains usable and respawns workers on the next parallel
        call)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._close_procs()

    def __enter__(self) -> "LevelsBlockedOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API ----------------------------------------------------
    def power(
        self,
        x: np.ndarray,
        k: int,
        counter: Optional[KernelCounter] = None,
        check_finite: bool = False,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``A^k x`` with the levels-blocked wavefront.

        Bit-identical to serial FBMPK (``strategy="levels"``) on every
        executor.  No ``on_iterate`` hook: intermediate powers are never
        globally materialised — different blocks sit at different powers
        within a phase, which is precisely where the locality comes
        from.  ``check_finite`` therefore guards the input and the final
        iterate only.  Failure containment matches
        :class:`FBMPKOperator.power`: a crashed parallel phase tears the
        backend down and either propagates or — with
        ``on_failure="fallback_serial"`` — recomputes the call serially,
        bit-identical to a clean serial run.
        """
        if k < 0:
            raise ValueError("power k must be non-negative")
        x = _as_float64(x)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        if out is not None:
            if not isinstance(out, np.ndarray) or out.dtype != np.float64:
                raise TypeError("out must be a float64 ndarray")
            if out.shape != (self.n,):
                raise ValueError(
                    f"out has shape {out.shape}, expected ({self.n},)")
        if check_finite:
            ensure_finite(x, "input vector x")
        self.last_stats = None
        if k == 0:
            if out is not None:
                np.copyto(out, x)
                return out
            return x.copy()
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        obs_snap = _snapshot_counter(counter) if telemetry else None
        mode = self.executor
        with obs.span("fbmpk.power", k=k, n=self.n, executor=mode,
                      schedule="levels-blocked"):
            if mode == "serial":
                y = self._power_body(x, k, counter, check_finite,
                                     mode="serial", out=out)
                self._publish_power_telemetry(k, counter, obs_snap)
                return y
            fallback = self.on_failure == "fallback_serial"
            x_saved = x.copy() if fallback else None
            counter_saved = _snapshot_counter(counter) if fallback else None
            try:
                y = self._power_body(x, k, counter, check_finite,
                                     mode=mode, out=out)
            except PhaseExecutionError:
                self.close()
                self._xy_buf = None  # zombie threads may still hold it
                if not fallback:
                    raise
                warnings.warn(
                    f"{mode} levels-blocked phase crashed; recomputing "
                    "serially (on_failure='fallback_serial')",
                    RuntimeWarning, stacklevel=2)
                _restore_counter(counter, counter_saved)
                self.last_stats = None
                y = self._power_body(x_saved, k, counter, check_finite,
                                     mode="serial", out=out)
            except BaseException:
                self.close()
                raise
            self._publish_power_telemetry(k, counter, obs_snap)
            return y

    def _acquire_xy(self, x: np.ndarray) -> np.ndarray:
        """The persistent BtB iterate buffer, loaded with ``x`` in the
        even slots (reused across calls; arena-resident while the
        process backend is live)."""
        if self._xy_buf is None:
            self._xy_buf = np.empty(2 * self.n, dtype=np.float64)
        xy = self._xy_buf
        xy[0::2] = x
        xy[1::2] = 0.0
        return xy

    def _power_body(self, x: np.ndarray, k: int,
                    counter: Optional[KernelCounter], check_finite: bool,
                    mode: str, out: Optional[np.ndarray]) -> np.ndarray:
        plan = self._plan_for(k)
        batch = plan.batch
        procs = mode == "processes"
        if procs:
            # Must run before _acquire_xy: binds the iterate buffer to
            # the pool's shared-memory segment.
            pstate = self._ensure_procs()
            slot = self._proc_slot(pstate, k, batch)
        xy = self._acquire_xy(x)
        XY = xy.reshape(-1, 2)
        d = self.part.diag
        with obs.span("fbmpk.sweep", sweep="blocked", k=k,
                      n_phases=plan.n_phases):
            if mode == "threads":
                pool = self._ensure_threaded()
                stats = ExecutionStats(n_threads=pool.n_threads,
                                       policy=pool.policy)
                self.last_stats = stats
                pool.run_batched(batch,
                                 lambda g: self._run(batch, g, XY, d), stats)
            elif procs:
                stats = ExecutionStats(n_threads=pstate.pool.n_workers,
                                       policy=pstate.pool.policy)
                self.last_stats = stats
                pstate.pool.run_batched(slot, "blocked", stats)
            else:
                for g in range(batch.n_blocks):
                    self._run(batch, g, XY, d)
        if counter:
            l_total = self.part.lower.nnz
            u_total = self.part.upper.nnz
            for _ in range(k):
                counter.count_l(l_total, l_total)
                counter.count_u(u_total, u_total)
        y = XY[:, k & 1]
        if check_finite:
            ensure_finite(y, f"iterate A^{k} x")
        if out is not None:
            np.copyto(out, y)
            return out
        return y.copy()

    # -- telemetry ------------------------------------------------------
    def _traffic_stats(self):
        """Lazy traffic stats of the operator's matrix (same measurement
        as :meth:`FBMPKOperator._traffic_stats`)."""
        if self._tstats is None:
            from ..memsim.traffic import MatrixTrafficStats

            bw = 1
            for tri in (self.part.lower, self.part.upper):
                if tri.nnz:
                    rows = np.repeat(
                        np.arange(tri.n_rows, dtype=np.int64),
                        tri.row_nnz())
                    bw = max(bw, int(np.abs(rows - tri.indices).max()))
            self._tstats = MatrixTrafficStats(
                n=self.n, nnz=self.part.source_nnz, bandwidth=float(bw))
        return self._tstats

    def _publish_power_telemetry(self, k: int,
                                 counter: Optional[KernelCounter],
                                 snap) -> None:
        """Publish one completed ``power`` call: instrumented pass
        counts plus the modelled DRAM bytes of this schedule *and* of
        FBMPK on the same matrix — the pair whose ratio predicts the
        crossover."""
        tel = obs.current()
        if tel is None or counter is None or snap is None:
            return
        l_entries = counter.l_entries - snap[2]
        u_entries = counter.u_entries - snap[3]
        nnz = max(self.part.source_nnz, 1)
        equivalents = (l_entries + u_entries + k * self.n) / nnz
        obs.add_counter("fbmpk.powers")
        obs.add_counter("fbmpk.levels_blocked.powers")
        obs.add_counter("fbmpk.matrix_read_equivalents", equivalents,
                        unit="A-reads")
        obs.add_counter("fbmpk.standard_matrix_reads", k, unit="A-reads")
        from ..memsim.traffic import fbmpk_traffic, levels_blocked_traffic

        stats = self._traffic_stats()
        lb = levels_blocked_traffic(stats, k, MODEL_CACHE_BYTES,
                                    block_rows=self.block_rows).total_bytes
        fb = fbmpk_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        obs.add_counter("fbmpk.model.dram_bytes", lb, unit="bytes")
        obs.add_counter("fbmpk.model.fbmpk_dram_bytes", fb, unit="bytes")
        if fb:
            obs.set_gauge("fbmpk.model.traffic_ratio_vs_fbmpk", lb / fb)


def build_fbmpk_operator(
    a: CSRMatrix,
    strategy: Literal["abmc", "levels", "levels-blocked"] = "abmc",
    block_size: int = 1,
    blocking: Literal["consecutive", "bfs"] = "consecutive",
    executor: ExecutorKind = "serial",
    n_threads: Optional[int] = None,
    assign_policy: str = "lpt",
    on_failure: str = "raise",
    hang_timeout: Optional[float] = None,
    claim_chunk: Optional[int] = None,
    pin_workers: Optional[bool] = None,
):
    """One-off preprocessing: split, (optionally) reorder, group, extract.

    ``strategy="abmc"`` reorders the matrix with
    :func:`repro.reorder.abmc.abmc_ordering` (the paper's parallelisation)
    and derives colour/wave sweep groups; ``strategy="levels"`` keeps the
    original order and uses dependency levels;
    ``strategy="levels-blocked"`` returns a
    :class:`LevelsBlockedOperator` scheduling the RACE-style cache-
    blocked wavefront over level-merged blocks (``block_size`` then
    counts rows per resident block).  ``block_size`` is otherwise the
    ABMC rows-per-block knob (1 = point multicolouring, which yields the
    coarsest vectorised groups; the paper's C implementation defaults to
    512/1024 rows for thread-level parallelism).  Every schedule sums
    each row in Algorithm 2's order on SciPy's compiled CSR loop
    (:mod:`repro.core.kernels`), so the result is bitwise equal to
    :func:`fbmpk_reference` on the operator's own row ordering.

    ``executor`` selects how sweeps run: ``"serial"`` (the fused
    single-thread pipeline), ``"threads"`` (the real colour-phase
    executor of :mod:`repro.parallel.executor`, ``n_threads`` workers,
    blocks dealt out by ``assign_policy``) or ``"processes"`` (the
    shared-memory worker pool of :mod:`repro.parallel.procexec`, same
    phases and policies but GIL-free — ``n_threads`` then counts worker
    processes).  With ``strategy="abmc"``
    the threaded backend gets the paper's true block phases — one phase
    per colour, one task per block, intra-block rows handled inside the
    task — so a k=2 pair costs ``2 * n_colors`` barriers regardless of
    block size; with ``strategy="levels"`` each level is one phase.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("FBMPK requires a square matrix")
    if strategy == "abmc":
        ordering = abmc_ordering(a, block_size=block_size, strategy=blocking)
        reordered = permute_symmetric(a, ordering.perm)
        part = split_ldu(reordered)
        groups = make_sweep_groups_abmc(ordering)
        # Colour-block phases for the threaded backend: forward walks
        # colours ascending, backward descending (same blocks, other
        # triangle).
        phase_plan = (build_phases(ordering, part.lower),
                      list(reversed(build_phases(ordering, part.upper))))
        return FBMPKOperator(part, groups, perm=ordering.perm,
                             executor=executor,
                             n_threads=n_threads,
                             assign_policy=assign_policy,
                             phase_plan=phase_plan,
                             on_failure=on_failure,
                             hang_timeout=hang_timeout,
                             claim_chunk=claim_chunk,
                             pin_workers=pin_workers)
    if strategy == "levels":
        part = split_ldu(a)
        groups = make_sweep_groups_levels(part)
        return FBMPKOperator(part, groups, perm=None,
                             executor=executor, n_threads=n_threads,
                             assign_policy=assign_policy,
                             on_failure=on_failure,
                             hang_timeout=hang_timeout,
                             claim_chunk=claim_chunk,
                             pin_workers=pin_workers)
    if strategy == "levels-blocked":
        # The third scheduling family: keeps the original order (like
        # "levels") but schedules (block, power) wavefronts instead of
        # per-power sweeps; block_size is the rows-per-block residency
        # knob (consecutive levels merged until a block holds at least
        # that many rows).
        part = split_ldu(a)
        return LevelsBlockedOperator(part,
                                     block_rows=max(int(block_size), 1),
                                     executor=executor,
                                     n_threads=n_threads,
                                     assign_policy=assign_policy,
                                     on_failure=on_failure,
                                     hang_timeout=hang_timeout,
                                     claim_chunk=claim_chunk,
                                     pin_workers=pin_workers)
    raise ValueError(f"unknown strategy {strategy!r}")
