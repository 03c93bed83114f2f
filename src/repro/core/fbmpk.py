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
from typing import (Callable, Dict, List, Literal, Optional, Sequence, Tuple,
                    Union)

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
from ..reorder.permute import permute_symmetric
from ..sparse.csr import CSRMatrix
from . import kernels
from .btb import InterleavedPair
from .partition import TriangularPartition, split_ldu

__all__ = [
    "KernelCounter",
    "SweepGroups",
    "FBMPKOperator",
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


def _as_float64(x: np.ndarray) -> np.ndarray:
    """``np.asarray(x, float64)`` with an explicit no-copy fast path: a
    float64 ndarray passes through untouched (the input is written
    straight into the operator's persistent BtB buffer, so no defensive
    copy is needed either)."""
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x
    return np.asarray(x, dtype=np.float64)


def _unpack_phases(tri: CSRMatrix, ptr: np.ndarray, colors: np.ndarray,
                   starts: np.ndarray, stops: np.ndarray) -> List[Phase]:
    """The phases :meth:`FBMPKOperator.save` packed, block nnz re-read
    from ``tri``."""
    blocks = np.stack([starts, stops, tri.indptr[stops] - tri.indptr[starts]],
                      axis=1).tolist()
    return [Phase(color=c, tasks=[BlockTask(*b) for b in blocks[lo:hi]])
            for c, lo, hi in zip(colors.tolist(), ptr[:-1].tolist(),
                                 ptr[1:].tolist())]


def _descriptor_runner(sweep: str, part: TriangularPartition,
                       batch: DescriptorBatch, XY: np.ndarray, tmp,
                       d: np.ndarray) -> Callable[[int], None]:
    """The threads executor's ``run_desc``: descriptor ``g`` of ``batch``
    through :func:`kernels.run_range` over the working buffers."""
    starts, stops, ops, chained = batch.pack_rows().tolist()

    def run(g: int) -> None:
        kernels.run_range(sweep, part.lower, part.upper, starts[g],
                          stops[g], XY, tmp, d, ops[g], bool(chained[g]))
    return run


PhasePlan = Tuple[List[Phase], List[Phase]]
Pool = Union[ThreadedPhaseExecutor, ProcessPhaseExecutor]


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

    Two schedules run over the partition.  Without ``blocking`` the
    operator runs Algorithm 2's forward/backward pipeline (head, ``k // 2``
    stage pairs, odd-``k`` tail), its sweeps cut by the sweep groups or
    the colour phases.  With a :class:`~repro.reorder.levels_blocked.LevelBlocking`
    (``strategy="levels-blocked"``) it runs the RACE-style wavefront
    instead: rows are partitioned into cache-sized blocks of consecutive
    dependency levels and a skewed schedule applies all ``k`` powers to a
    block within a bounded phase window, so DRAM traffic is saved by
    residency rather than by stage fusion.  Both are bitwise equal to
    :func:`fbmpk_reference` on the operator's row ordering, on every
    executor, for ``power`` and ``power_block`` alike.

    The operator retains its BtB iterate buffer between calls (outputs
    are always copied out), so one instance must not execute
    overlapping ``power``/``power_block`` calls from multiple threads;
    create one operator per concurrent caller.
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
        pin_workers: Optional[bool] = None,
        blocking: Optional[LevelBlocking] = None,
    ) -> None:
        if validate and not check_sweep_groups(part, groups):
            raise ValueError("invalid sweep groups for this partition")
        self.part = part
        self.groups = groups
        self.perm = None if perm is None else np.asarray(perm, dtype=np.int64)
        #: The levels-blocked wavefront's blocking (None: the sweep
        #: pipeline).  A preprocessing artefact like the groups.
        self.blocking = blocking
        #: :class:`~repro.parallel.executor.ExecutionStats` of the most
        #: recent call that ran on a parallel backend; None after serial
        #: runs.
        self.last_stats: Optional[ExecutionStats] = None
        self._phase_plan = phase_plan
        self._validate = validate
        self._phases_checked = False
        self._pool: Optional[Pool] = None
        # Plan slots the process pool registered, keyed by sweep name
        # (pipeline) or k (wavefront); they live as long as the pool.
        self._slots: Dict[object, int] = {}
        self._tstats = None  # lazy MatrixTrafficStats for telemetry
        # The persistent (n, 2m) BtB iterate buffer of the serial and
        # threads backends, allocated on first use and reused while the
        # width stays the same — which matters exactly in the
        # many-repeated-calls regime FBMPK exists for.  The process
        # backend uses the pool's shared-memory buffers instead.
        self._xy_buf: Optional[np.ndarray] = None
        self._segments: Optional[Tuple[List[kernels.Segment],
                                       List[kernels.Segment]]] = None
        # Coalesced (forward, backward) descriptor batches, one pair per
        # range count: 1 for the serial segments, the pool size for
        # each parallel backend.
        self._batches: Dict[int, Tuple[DescriptorBatch,
                                       DescriptorBatch]] = {}
        # The wavefront's descriptor batch per k.
        self._waves: Dict[int, DescriptorBatch] = {}
        # configure_executor validates and sets the execution knobs; it
        # compares the policy against the current one.
        self.assign_policy = assign_policy
        self.configure_executor(executor, n_threads, assign_policy,
                                on_failure, hang_timeout, pin_workers)

    @property
    def n(self) -> int:
        """Matrix dimension."""
        return self.part.n

    @property
    def schedule(self) -> str:
        """The schedule family: ``"levels-blocked"`` for the wavefront,
        otherwise the sweep groups' origin (``"abmc"`` or ``"levels"``)."""
        return "levels-blocked" if self.blocking is not None \
            else self.groups.origin

    # -- execution backend ---------------------------------------------
    def configure_executor(
        self,
        executor: Optional[ExecutorKind] = None,
        n_threads: object = _KEEP,
        assign_policy: Optional[str] = None,
        on_failure: Optional[str] = None,
        hang_timeout: object = _KEEP,
        pin_workers: object = _KEEP,
    ) -> "FBMPKOperator":
        """Re-point the operator at a different execution backend.

        Phases, descriptor batches and sweep segments are preprocessing
        artefacts and are kept; only the worker pool is shut down (the
        next parallel call respawns it with the new knobs), so a
        benchmark or the autotuner can sweep executors, thread counts
        and policies over one amortised preprocessing pass (Section
        V-F).  Knobs left at their defaults keep their current values;
        ``n_threads=None`` selects the host's CPU count.  Returns
        ``self`` for chaining.

        ``on_failure`` decides what a crashed parallel phase does to a
        call: ``"raise"`` propagates the :class:`PhaseExecutionError`;
        ``"fallback_serial"`` warns and recomputes the whole call
        serially.  ``hang_timeout`` bounds a hung worker on both
        parallel backends (the process pool's per-heartbeat watchdog,
        the thread pool's per-phase barrier timeout; None disables
        both).  ``pin_workers`` is the process backend's best-effort
        worker CPU pinning (None: only on multi-CPU hosts).
        """
        if executor is not None:
            if executor not in EXECUTOR_KINDS:
                raise ValueError(f"unknown executor {executor!r}")
            self.executor = executor
        if n_threads is not _KEEP:
            self.n_threads = n_threads
        if assign_policy is not None \
                and assign_policy != self.assign_policy:
            self.assign_policy = assign_policy
            self._batches = {}
            self._waves = {}
            self._segments = None
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
        if pin_workers is not _KEEP:
            self.pin_workers = pin_workers
        self.close()  # the next parallel call rebuilds with the new knobs
        return self

    def _built_phase_plan(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule both parallel
        backends execute: the constructor-provided plan if any, otherwise
        one phase per sweep group.  Built and validated once."""
        if self._phase_plan is None:
            self._phase_plan = (
                phases_from_groups(self.part.lower, self.groups.forward),
                phases_from_groups(self.part.upper, self.groups.backward))
        fw, bw = self._phase_plan
        if self._validate and not self._phases_checked:
            if not check_phases(self.part.lower, fw) \
                    or not check_phases(self.part.upper, bw):
                raise ValueError(
                    "phases are not executable with one barrier each")
            self._phases_checked = True
        return fw, bw

    def _descriptor_batches(self, n_parts: int
                            ) -> Tuple[DescriptorBatch, DescriptorBatch]:
        """The ``(forward, backward)`` phase plan packed as descriptor
        batches under :attr:`assign_policy`, each phase's blocks merged
        into at most ``n_parts`` row ranges per contiguous run
        (:meth:`DescriptorBatch.coalesced`) and flagged chained against
        its sweep's triangle: the one plan the serial segments
        (``n_parts=1``), the threads executor and the process workers
        (``n_parts`` = pool size) all read."""
        if n_parts not in self._batches:
            fw, bw = self._built_phase_plan()
            self._batches[n_parts] = tuple(
                DescriptorBatch.from_phases(phases, self.assign_policy)
                .coalesced(n_parts, tri)
                for phases, tri in ((fw, self.part.lower),
                                    (bw, self.part.upper)))
        return self._batches[n_parts]

    def _wave_batch(self, k: int) -> DescriptorBatch:
        """The levels-blocked schedule for ``k`` as one descriptor batch
        (each descriptor tagged with its update kind), built and
        validated once per ``k`` and cached."""
        batch = self._waves.get(k)
        if batch is None:
            schedule = build_blocked_schedule(self.blocking, k)
            if self._validate \
                    and not check_blocked_schedule(self.blocking, schedule):
                raise ValueError(
                    "levels-blocked schedule violates the ping-pong "
                    "safety invariant")
            batch = DescriptorBatch.from_op_phases(
                blocked_descriptors(self.blocking, schedule,
                                    self.part.lower, self.part.upper),
                self.assign_policy)
            if len(self._waves) >= 8:
                self._waves.clear()
            self._waves[k] = batch
        return batch

    def _serial_segments(self) -> Tuple[List[kernels.Segment],
                                        List[kernels.Segment]]:
        """The ``(forward, backward)`` segments of the serial sweeps,
        built on first use: one per contiguous run of each colour phase
        (one per colour for ABMC) when the operator carries its colour
        phases (validated then), one per sweep group otherwise (a
        group's rows never depend on each other)."""
        if self._segments is None:
            if self._phase_plan is not None:
                self._segments = tuple(
                    [kernels.Segment(slice(s, e),
                                     kernels.row_range(tri, s, e), z, c)
                     for s, e, z, c in zip(
                         b.starts.tolist(), b.stops.tolist(),
                         b.nnz.tolist(), b.chained.tolist())]
                    for b, tri in zip(self._descriptor_batches(1),
                                      (self.part.lower, self.part.upper)))
            else:
                self._segments = tuple(
                    [kernels.row_set(tri, rows, False)
                     for rows in groups if len(rows)]
                    for tri, groups in (
                        (self.part.lower, self.groups.forward),
                        (self.part.upper, self.groups.backward)))
        return self._segments

    def _ensure_pool(self, mode: str) -> Optional[Pool]:
        """The worker pool of ``mode``, spawned on first parallel use
        (lazy so serial operators pay nothing); None for ``"serial"``.
        The process pool owns a shared-memory arena holding the
        triangles and working buffers, so dispatch ships no array
        data."""
        if mode == "serial":
            return None
        if self._pool is None:
            if mode == "threads":
                self._pool = ThreadedPhaseExecutor(
                    self.n_threads, self.assign_policy,
                    hang_timeout=self.hang_timeout)
            else:
                self._pool = ProcessPhaseExecutor(
                    self.part, n_workers=self.n_threads,
                    policy=self.assign_policy,
                    hang_timeout=self.hang_timeout,
                    pin_workers=self.pin_workers)
            self._slots = {}
        return self._pool

    def worker_health(self) -> Dict[str, object]:
        """Liveness snapshot of the parallel backends, for health
        endpoints: the configured executor plus one alive-bool per
        process-pool worker slot (``None`` until a pool is spawned)."""
        health: Dict[str, object] = {"executor": self.executor,
                                     "hang_timeout_s": self.hang_timeout,
                                     "process_workers": None}
        if isinstance(self._pool, ProcessPhaseExecutor):
            health["process_workers"] = self._pool.worker_liveness()
        return health

    def block_phases(self) -> PhasePlan:
        """The ``(forward, backward)`` block-phase schedule the parallel
        sweep pipeline executes (built lazily on first access).  Useful
        for feeding the very same schedule to
        :func:`repro.parallel.simulate_phases` and comparing predictions
        against :attr:`last_stats`."""
        return self._built_phase_plan()

    def close(self) -> None:
        """Shut down the worker pool, and with a process pool its
        shared-memory segments (idempotent; the operator remains usable
        and respawns workers on the next parallel call)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "FBMPKOperator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        """Compute ``A^k x`` on the operator's schedule.

        With ``executor="threads"`` the sweeps run on the real
        colour-phase executor (same-colour blocks concurrently, one
        barrier per phase); with ``executor="processes"`` they run on
        the shared-memory worker pool of :mod:`repro.parallel.procexec`
        (same phases, GIL-free).  Either way the result is bit-identical
        to the serial executor — and to :func:`fbmpk_reference` on the
        operator's row ordering — and the run's timings land in
        :attr:`last_stats`.  The head/tail full-triangle products run in
        the calling process whatever the executor.

        ``out``, if given, receives the result (a float64 array of
        shape ``(n,)``) instead of a fresh allocation — the repeated-
        call regime FBMPK exists for can then run allocation-free.  The
        returned array *is* ``out``.  Iterates passed to
        ``on_iterate(i, x_i)`` are always freshly allocated (they must
        outlive the call).  The levels-blocked wavefront never
        materialises intermediate powers — different blocks sit at
        different powers within a phase, which is where its locality
        comes from — so it rejects ``on_iterate``.

        ``check_finite=True`` guards the computation against NaN/Inf:
        the input vector and every produced iterate (the final one only,
        on the wavefront) are checked, and a
        :class:`~repro.robust.errors.NonFiniteError` names the first
        power at which a non-finite value appeared — instead of silently
        propagating garbage through the remaining sweeps.

        Failure containment: if a sweep raises mid-call on a parallel
        backend, the worker pool is shut down before the exception
        leaves this method (no leaked threads or processes, no leaked
        shared memory).  With ``on_failure="fallback_serial"`` a
        :class:`~repro.robust.errors.PhaseExecutionError` is not raised
        at all — the operator warns and recomputes the whole call
        serially from the original input, bit-identical to a clean
        serial run.  This containment also covers a worker process
        killed mid-phase (detected by the pool's liveness polling).
        (``on_iterate`` callbacks observed before the crash fire again
        during the rerun.)
        """
        x = _as_float64(x)
        if x.shape != (self.n,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.n},)")
        if on_iterate is not None and self.blocking is not None:
            raise ValueError(
                "the levels-blocked schedule never materialises "
                "intermediate powers, so it takes no on_iterate hook; "
                "use the abmc or levels schedule")
        out = self._check_out(out, x.shape)
        Y = self._apply(x[:, None], k, on_iterate, counter, check_finite,
                        None if out is None else out[:, None], block=False)
        return Y[:, 0] if out is None else out

    def power_block(self, X: np.ndarray, k: int,
                    counter: Optional[KernelCounter] = None,
                    check_finite: bool = False,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Compute ``A^k X`` for a dense block ``X`` of shape ``(n, m)``.

        Block version of :meth:`power` for subspace methods (Chebyshev
        filters, block power iteration) and batched serving: all ``m``
        columns advance through the same sweeps, so each triangle is
        still streamed once per stage — the matrix reads are amortised
        over the whole block, not paid per column.  Each compiled call
        covers all ``2m`` interleaved columns with the per-row order of
        a single vector, so every column is bitwise equal to
        :meth:`power` on that column, on every schedule and executor,
        with the same failure containment.  ``out``, if given, receives
        the ``(n, m)`` result instead of a fresh allocation.
        ``check_finite=True`` validates the input block and every
        produced iterate (see :meth:`power`).
        """
        X = _as_float64(X)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"X has shape {X.shape}, expected ({self.n}, m)")
        return self._apply(X, k, None, counter, check_finite,
                           self._check_out(out, X.shape), block=True)

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

    def _apply(self, X: np.ndarray, k: int,
               on_iterate: Optional[IterateCallback],
               counter: Optional[KernelCounter], check_finite: bool,
               out: Optional[np.ndarray], block: bool) -> np.ndarray:
        """``power`` and ``power_block`` on the ``(n, m)`` block ``X``:
        validation, telemetry and the one failure-containment wrapper
        around :meth:`_body`; ``block`` picks the process pool's block
        buffers and the ``fbmpk.power_block`` span."""
        if k < 0:
            raise ValueError("power k must be non-negative")
        if check_finite:
            ensure_finite(X, "input block X" if block else "input vector x")
        self.last_stats = None
        if self.perm is not None:
            X = X[self.perm]
        if k == 0:
            return self._finish(X, out, owned=False)
        # Telemetry bookkeeping: when a session is active we always keep
        # pass counts (in the caller's counter if given, an internal one
        # otherwise) so the run's matrix-read equivalents can be
        # published; deltas are taken against a snapshot because a
        # caller-provided counter may accumulate several runs.
        telemetry = obs.current() is not None
        if telemetry and counter is None:
            counter = KernelCounter()
        snap = _snapshot_counter(counter)
        mode = self.executor
        span, attrs = ("fbmpk.power_block", {"m": X.shape[1]}) if block \
            else ("fbmpk.power", {"origin": self.groups.origin})
        with obs.span(span, k=k, n=self.n, executor=mode,
                      schedule=self.schedule, **attrs):
            try:
                Y, owned = self._body(X, k, on_iterate, counter,
                                      check_finite, mode, block)
            except PhaseExecutionError:
                self.close()
                # A hung worker thread cannot be killed, only abandoned
                # with its pool; it still holds references to the sweep
                # buffers via its bin closure.  Drop ours so any zombie
                # writes land in orphaned arrays — the rerun (and every
                # later call) allocates fresh ones.
                self._xy_buf = None
                if self.on_failure != "fallback_serial" or mode == "serial":
                    raise
                warnings.warn(
                    f"{mode} FBMPK {self.schedule} phase crashed; "
                    "recomputing serially (on_failure='fallback_serial')",
                    RuntimeWarning, stacklevel=3)
                _restore_counter(counter, snap)
                self.last_stats = None
                Y, owned = self._body(X, k, on_iterate, counter,
                                      check_finite, "serial", block)
            except BaseException:
                # Any other mid-sweep failure (a NonFiniteError between
                # stages, a raising on_iterate callback, ...) must not
                # leak the worker pool either.
                self.close()
                raise
        if telemetry:
            self._publish_power_telemetry(k, counter, snap)
        return self._finish(Y, out, owned)

    def _finish(self, Y: np.ndarray, out: Optional[np.ndarray],
                owned: bool) -> np.ndarray:
        """Map a result block from the operator's numbering back to the
        caller's, landing in ``out`` when provided.  ``owned=False``
        marks ``Y`` as aliasing a working buffer (it must be copied
        before returning)."""
        if out is None:
            if self.perm is None:
                return Y if owned else Y.copy()
            out = np.empty(Y.shape)
        if self.perm is not None:
            out[self.perm] = Y
        else:
            np.copyto(out, Y)
        return out

    # -- the one body ----------------------------------------------------
    def _body(self, X: np.ndarray, k: int,
              on_iterate: Optional[IterateCallback],
              counter: Optional[KernelCounter], check_finite: bool,
              mode: str, block: bool) -> Tuple[np.ndarray, bool]:
        """One attempt of a call on the execution backend ``mode``
        (:meth:`_apply` may retry a failed parallel attempt with
        ``mode="serial"``): load the ``(n, 2m)`` interleaved buffer and
        run the schedule over it.  ``X`` is already permuted and
        ``k >= 1``.  Returns ``(Y, owned)`` in the operator's numbering,
        ``owned=False`` meaning ``Y`` aliases the working buffer."""
        m = X.shape[1]
        pool = self._ensure_pool(mode)
        shared_tmp = None
        if isinstance(pool, ProcessPhaseExecutor):
            # The sweeps write straight into the arena every worker has
            # mapped, so dispatch ships only descriptor indices.
            XY, shared_tmp = pool.ensure_block(m) if block \
                else (pool.xy.reshape(-1, 2), pool.tmp[:, None])
        else:
            if self._xy_buf is None or self._xy_buf.shape[1] != 2 * m:
                self._xy_buf = np.empty((self.n, 2 * m))
            XY = self._xy_buf
        XY[:, 0::2] = X
        XY[:, 1::2] = 0.0
        if pool is not None:
            self.last_stats = ExecutionStats(n_threads=pool.n_workers,
                                             policy=pool.policy)
        d = self.part.diag[:, None]
        L, U = self.part.lower, self.part.upper
        if self.blocking is not None:
            batch = self._wave_batch(k)
            with obs.span("fbmpk.sweep", sweep="blocked", k=k,
                          n_phases=batch.n_phases):
                if pool is None:
                    for s, e, op in zip(batch.starts.tolist(),
                                        batch.stops.tolist(),
                                        batch.ops.tolist()):
                        kernels.run_range("blocked", L, U, s, e, XY, None,
                                          d, op)
                else:
                    self._dispatch(pool, "blocked", k, batch, XY, None, d,
                                   block)
            if counter:
                for _ in range(k):
                    counter.count_l(L.nnz, L.nnz)
                    counter.count_u(U.nnz, U.nnz)
            Y = XY[:, (k & 1)::2]
            if check_finite:
                ensure_finite(Y, f"iterate A^{k} x")
            return Y, False
        with obs.span("fbmpk.head", sweep="head"):
            tmp = kernels.head(U, X)
            if shared_tmp is not None:
                np.copyto(shared_tmp, tmp)
                tmp = shared_tmp
        if counter:
            counter.count_u(U.nnz, U.nnz)
        fw = bw = None
        if pool is not None:
            fw, bw = self._descriptor_batches(pool.n_workers)
        for power in range(1, 2 * (k // 2), 2):
            with obs.span("fbmpk.sweep", sweep="forward", power_step=power):
                self._stage("forward", L, fw, pool, XY, tmp, d, counter,
                            block)
            self._iterate(XY[:, 1::2], power, on_iterate, check_finite)
            with obs.span("fbmpk.sweep", sweep="backward",
                          power_step=power + 1):
                self._stage("backward", U, bw, pool, XY, tmp, d, counter,
                            block)
            self._iterate(XY[:, 0::2], power + 1, on_iterate, check_finite)
        if k % 2:
            with obs.span("fbmpk.tail", sweep="tail", power_step=k):
                Y = kernels.tail(L, XY, tmp, d)
            if counter:
                counter.count_l(L.nnz, L.nnz)
            self._iterate(Y, k, on_iterate, check_finite)
            return Y, True
        return XY[:, 0::2], False

    def _stage(self, sweep: str, tri: CSRMatrix,
               batch: Optional[DescriptorBatch], pool: Optional[Pool],
               XY: np.ndarray, tmp: np.ndarray, d: np.ndarray,
               counter: Optional[KernelCounter], block: bool) -> None:
        """One fused stage of the pipeline, streaming its triangle
        ``tri`` exactly once: serially one compiled call per segment,
        otherwise the stage's descriptor batch on ``pool``.  Forward
        finishes the odd iterates and leaves ``tmp = L x_odd +
        D x_odd``; backward finishes the even ones and leaves
        ``tmp = U x_even``."""
        count = None
        if counter:
            count = counter.count_l if sweep == "forward" \
                else counter.count_u
        if pool is not None:
            self._dispatch(pool, sweep, sweep, batch, XY, tmp, d, block)
            if count:
                count(tri.nnz, tri.nnz)
            return
        forward = sweep == "forward"
        for seg in self._serial_segments()[not forward]:
            if forward:
                kernels.forward(seg.tri, seg.rows, XY, tmp, d, seg.chained)
            else:
                kernels.backward(seg.tri, seg.rows, XY, tmp, seg.chained)
            if count:
                count(seg.nnz, tri.nnz)

    def _dispatch(self, pool: Pool, sweep: str, key,
                  batch: DescriptorBatch, XY: np.ndarray, tmp,
                  d: np.ndarray, block: bool) -> None:
        """Run ``batch`` on ``pool``: the thread pool calls
        :func:`kernels.run_range` on the given buffers; the process pool
        runs its registered copy of the batch (slot ``key``) over the
        arena's vector or block buffers."""
        if isinstance(pool, ThreadedPhaseExecutor):
            pool.run_batched(batch, _descriptor_runner(
                sweep, self.part, batch, XY, tmp, d), self.last_stats)
            return
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = pool.register_batch(batch)
        pool.run_batched(slot, sweep + "_block" if block else sweep,
                         self.last_stats)

    def _iterate(self, Y: np.ndarray, power: int,
                 on_iterate: Optional[IterateCallback],
                 check_finite: bool) -> None:
        """The per-iterate hooks of the pipeline: the trace event, the
        finiteness guard and ``on_iterate`` (vector calls only)."""
        obs.event("fbmpk.iterate", power_step=power)
        if check_finite:
            ensure_finite(Y, f"iterate A^{power} x")
        if on_iterate:
            on_iterate(power, self._finish(Y, None, owned=False)[:, 0])

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
                                 counter: KernelCounter, snap) -> None:
        """Publish one completed ``power``/``power_block`` call to the
        active telemetry session: instrumented pass counts (as deltas
        against ``snap``), the matrix-read equivalents that make the
        paper's ``(k+1)/2`` claim observable per run, and the modelled
        DRAM byte volumes from :mod:`repro.memsim.traffic` — against
        ``k`` plain SpMVs for the pipeline, against FBMPK on the same
        matrix for the wavefront (the pair whose ratio predicts the
        crossover), whose ``fbmpk.levels_blocked.powers`` counts the
        powers it applied."""
        from ..memsim.traffic import (fbmpk_traffic, levels_blocked_traffic,
                                      mpk_standard_traffic)

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
        stats = self._traffic_stats()
        fb = fbmpk_traffic(stats, k, MODEL_CACHE_BYTES).total_bytes
        if self.blocking is None:
            std = mpk_standard_traffic(stats, k,
                                       MODEL_CACHE_BYTES).total_bytes
            obs.add_counter("fbmpk.model.dram_bytes", fb, unit="bytes")
            obs.add_counter("fbmpk.model.baseline_dram_bytes", std,
                            unit="bytes")
            if std:
                obs.set_gauge("fbmpk.model.traffic_ratio", fb / std)
            return
        lb = levels_blocked_traffic(
            stats, k, MODEL_CACHE_BYTES,
            block_rows=self.blocking.block_rows).total_bytes
        obs.add_counter("fbmpk.levels_blocked.powers", k)
        obs.add_counter("fbmpk.model.dram_bytes", lb, unit="bytes")
        obs.add_counter("fbmpk.model.fbmpk_dram_bytes", fb, unit="bytes")
        if fb:
            obs.set_gauge("fbmpk.model.traffic_ratio_vs_fbmpk", lb / fb)

    # -- persistence ----------------------------------------------------
    def save(self, path) -> None:
        """Persist the preprocessed operator to an ``.npz`` file.

        The paper stresses that splitting/reordering "can often be
        performed offline when storing the matrix data" (Section IV-C);
        this makes the offline artefact concrete.  Each sweep's groups
        are stored as one concatenated row array plus offsets, and the
        file is not compressed: a fixed handful of members keeps both
        writing and reading cheap whatever the group count.  A
        levels-blocked operator also records its rows per block.
        """
        payload = {
            "l_indptr": self.part.lower.indptr,
            "l_indices": self.part.lower.indices,
            "l_data": self.part.lower.data,
            "u_indptr": self.part.upper.indptr,
            "u_indices": self.part.upper.indices,
            "u_data": self.part.upper.data,
            "diag": self.part.diag,
            "source_nnz": np.int64(self.part.source_nnz),
            "origin": np.bytes_(self.groups.origin.encode()),
            "has_perm": np.bool_(self.perm is not None),
        }
        if self.perm is not None:
            payload["perm"] = self.perm
        if self.blocking is not None:
            payload["block_rows"] = np.int64(self.blocking.block_rows)
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
        for name, groups in (("fw", self.groups.forward),
                             ("bw", self.groups.backward)):
            sizes = [len(g) for g in groups]
            payload[f"{name}_group_ptr"] = np.concatenate(
                ([0], np.cumsum(sizes, dtype=np.int64)))
            payload[f"{name}_group_rows"] = np.concatenate(
                [np.asarray(g, dtype=np.int64) for g in groups]
                + [np.zeros(0, dtype=np.int64)])
        np.savez(path, **payload)

    @classmethod
    def load(cls, path, executor: ExecutorKind = "serial",
             n_threads: Optional[int] = None,
             assign_policy: str = "lpt",
             pin_workers: Optional[bool] = None) -> "FBMPKOperator":
        """Rebuild an operator persisted with :meth:`save`.

        An ABMC operator whose blocks span more than one row gets its
        colour phases back, so it sweeps one segment per colour as the
        built one does.  Other operators derive their phases from the
        stored sweep groups (one phase per group); for one-row ABMC
        blocks that is one phase per colour with the same serial
        segments, and the parallel backends still cut each colour into
        one range per worker (its rows are independent).  A
        levels-blocked operator rebuilds its blocking from the
        partition and the stored rows per block.
        """
        with np.load(path) as z:
            n = z["diag"].shape[0]
            lower = CSRMatrix(z["l_indptr"], z["l_indices"], z["l_data"],
                              (n, n), check=False)
            upper = CSRMatrix(z["u_indptr"], z["u_indices"], z["u_data"],
                              (n, n), check=False)
            part = TriangularPartition(lower, upper, z["diag"],
                                       int(z["source_nnz"]))
            fw, bw = ([rows[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])]
                      for rows, ptr in ((z[f"{name}_group_rows"],
                                         z[f"{name}_group_ptr"].tolist())
                                        for name in ("fw", "bw")))
            groups = SweepGroups(forward=fw, backward=bw,
                                 origin=bytes(z["origin"]).decode())
            perm = z["perm"] if bool(z["has_perm"]) else None
            phase_plan = None
            if "fw_phase_ptr" in z.files:
                phase_plan = tuple(
                    _unpack_phases(tri, *(z[f"{name}_{key}"] for key in (
                        "phase_ptr", "phase_colors", "block_starts",
                        "block_stops")))
                    for name, tri in (("fw", lower), ("bw", upper)))
            blocking = None
            if "block_rows" in z.files:
                blocking = build_level_blocking(lower, upper,
                                                int(z["block_rows"]),
                                                levels=fw)
        return cls(part, groups, perm=perm, validate=False,
                   executor=executor, n_threads=n_threads,
                   assign_policy=assign_policy, phase_plan=phase_plan,
                   pin_workers=pin_workers, blocking=blocking)

    def barriers_per_pair(self) -> int:
        """Synchronisation phases per forward+backward iteration — the
        quantity ABMC minimises versus the ``O(n)`` of naive pipelining."""
        return self.groups.n_forward + self.groups.n_backward


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
    pin_workers: Optional[bool] = None,
) -> FBMPKOperator:
    """One-off preprocessing: split, (optionally) reorder, group, extract.

    ``strategy="abmc"`` reorders the matrix with
    :func:`repro.reorder.abmc.abmc_ordering` (the paper's parallelisation)
    and derives colour/wave sweep groups; ``strategy="levels"`` keeps the
    original order and uses dependency levels;
    ``strategy="levels-blocked"`` keeps the levels operator's order and
    groups but schedules the RACE-style cache-blocked wavefront over
    level-merged blocks (``block_size`` then counts rows per resident
    block).  ``block_size`` is otherwise the ABMC rows-per-block knob (1
    = point multicolouring, which yields the coarsest vectorised groups;
    the paper's C implementation defaults to 512/1024 rows for
    thread-level parallelism).  Every schedule sums each row in
    Algorithm 2's order on SciPy's compiled CSR loop
    (:mod:`repro.core.kernels`), so the result is bitwise equal to
    :func:`fbmpk_reference` on the operator's own row ordering.

    ``executor`` selects how sweeps run: ``"serial"`` (the fused
    single-thread pipeline), ``"threads"`` (the real colour-phase
    executor of :mod:`repro.parallel.executor`, ``n_threads`` workers,
    blocks dealt out by ``assign_policy``) or ``"processes"`` (the
    shared-memory worker pool of :mod:`repro.parallel.procexec`, same
    phases and policies but GIL-free — ``n_threads`` then counts worker
    processes).  With ``strategy="abmc"``
    the parallel backends get the paper's block phases — one phase per
    colour, its blocks merged into at most one row range per worker
    (cut only at block boundaries, intra-block rows handled inside the
    range) — so a k=2 pair costs ``2 * n_colors`` barriers and about one
    kernel call per worker per phase regardless of block size; with
    ``strategy="levels"`` each level is one phase.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("FBMPK requires a square matrix")
    perm = phase_plan = level_blocking = None
    if strategy == "abmc":
        ordering = abmc_ordering(a, block_size=block_size, strategy=blocking)
        perm = ordering.perm
        part = split_ldu(permute_symmetric(a, perm))
        groups = make_sweep_groups_abmc(ordering)
        # Colour-block phases for the parallel backends: forward walks
        # colours ascending, backward descending (same blocks, other
        # triangle).
        phase_plan = (build_phases(ordering, part.lower),
                      list(reversed(build_phases(ordering, part.upper))))
    elif strategy in ("levels", "levels-blocked"):
        part = split_ldu(a)
        groups = make_sweep_groups_levels(part)
        if strategy == "levels-blocked":
            # Consecutive levels merged until a block holds at least
            # block_size rows: the cache-residency knob.
            level_blocking = build_level_blocking(
                part.lower, part.upper, max(int(block_size), 1),
                levels=groups.forward)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return FBMPKOperator(part, groups, perm=perm, executor=executor,
                         n_threads=n_threads, assign_policy=assign_policy,
                         phase_plan=phase_plan, on_failure=on_failure,
                         hang_timeout=hang_timeout, pin_workers=pin_workers,
                         blocking=level_blocking)
