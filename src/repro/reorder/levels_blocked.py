"""Level-based cache blocking (RACE-style) for matrix power kernels.

FBMPK gets its DRAM win from *fusing* stages so A streams (k+1)/2 times
instead of k; *Level-based Blocking for Sparse Matrices* (arXiv
2205.01598) shows the complementary route: keep a cache-sized block of A
resident and apply **all k powers** to it before advancing, so the block
streams from DRAM once and is reused k times from cache.  This module
builds that schedule on top of the dependency levels of
:mod:`repro.reorder.levels`:

1. :func:`build_level_blocking` merges *consecutive* level sets into
   blocks of at least ``block_rows`` rows and materialises each block's
   dependency closure — the symmetric set of blocks its rows reference
   through the columns of ``L`` and ``U`` (plus itself).
2. :func:`build_blocked_schedule` list-schedules the ``(block, power)``
   grid into barrier phases: block ``b`` starts at phase ``b`` (the skew
   that creates the diagonal wavefront) and may compute power ``p`` only
   one phase after every neighbour finished power ``p - 1``.
3. :func:`blocked_descriptors` expands each scheduled ``(block, power)``
   into contiguous-row descriptors tagged with the *update kind* (op)
   that reproduces serial FBMPK's per-row arithmetic bit-for-bit.

Correctness argument (the invariant :func:`check_blocked_schedule`
verifies): the iterate buffer is the BtB pair, power ``p`` writes slot
``p & 1`` reading slot ``(p - 1) & 1``, so a row's two most recent
powers are always live.  Because the neighbour relation is symmetric,
the ASAP schedule satisfies ``t(b, p) >= 1 + t(nb, p - 1)`` for every
neighbour ``nb``, which simultaneously guarantees (a) all inputs of
``(b, p)`` are ready and (b) no neighbour has advanced past ``p + 1``
and overwritten the slot ``(b, p)`` still reads.  Within one phase a
neighbouring pair can only appear at the *same* power (any offset would
violate the inequality in one direction), and same-power blocks write
disjoint rows of one slot while reading the other — race-free without
any intra-phase ordering.

Bit-identity with serial FBMPK (``strategy="levels"``): every row is
summed left to right in CSR order (:func:`repro.core.kernels.blocked`),
which no row-range slicing changes, and each op reproduces the serial
stage that produces that power — ``u + dx`` seeds the ``L`` sum for odd
intermediates (forward stage), ``l + dx`` seeds the ``U`` sum for even
powers (backward stage), and ``(l + u) + dx`` forms a final odd power
(tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sparse.csr import CSRMatrix
from .levels import compute_levels, levels_to_groups

__all__ = [
    "OP_ODD",
    "OP_EVEN",
    "OP_FINAL_ODD",
    "LevelBlocking",
    "BlockedSchedule",
    "build_level_blocking",
    "build_blocked_schedule",
    "blocked_descriptors",
    "check_blocked_schedule",
]

#: Update kinds carried per descriptor (the ``ops`` row of the packed
#: plan table).  Each fixes both the BtB slots (odd powers read slot 0,
#: write slot 1; even powers the reverse) and the serial association
#: order of the three per-row partial sums.
OP_ODD = 0        #: odd intermediate power:  u + d*x seeds the L sum
OP_EVEN = 1       #: even power:              l + d*x seeds the U sum
OP_FINAL_ODD = 2  #: final odd power (p = k): y = (l + u) + d*x


@dataclass(frozen=True)
class LevelBlocking:
    """Rows partitioned into level-closed blocks with materialised
    dependency closures.

    ``blocks[b]`` is the sorted row-index array of block ``b`` (blocks
    are unions of consecutive dependency levels, so all ``L``
    dependencies point to the same or earlier blocks and all ``U``
    dependencies to the same or later ones); ``block_of[i]`` inverts the
    partition; ``neighbours[b]`` is the sorted array of blocks reachable
    from ``b`` through any stored entry of ``L`` or ``U`` in either
    direction, *including* ``b`` itself; ``nnz[b]`` is the combined
    ``L + U`` entry count of the block's rows (the load-balance weight);
    ``block_rows`` is the rows-per-block knob the blocking was built
    with, all that a saved operator needs to rebuild it.
    """

    blocks: Tuple[np.ndarray, ...]
    block_of: np.ndarray
    neighbours: Tuple[np.ndarray, ...]
    nnz: np.ndarray
    block_rows: int = 1

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return int(self.block_of.shape[0])


@dataclass(frozen=True)
class BlockedSchedule:
    """Barrier phases of ``(block, power)`` items for one ``k``."""

    k: int
    #: ``phases[t]`` holds the ``(block, power)`` pairs executed between
    #: barriers ``t`` and ``t + 1``.
    phases: Tuple[Tuple[Tuple[int, int], ...], ...]

    @property
    def n_phases(self) -> int:
        return len(self.phases)


def build_level_blocking(
    lower: CSRMatrix, upper: CSRMatrix, block_rows: int = 256,
    levels: Optional[Sequence[np.ndarray]] = None,
) -> LevelBlocking:
    """Partition rows into cache-sized blocks of consecutive levels.

    Levels come from the forward dependency structure (``lower``);
    consecutive levels are merged greedily until a block holds at least
    ``block_rows`` rows, so ``block_rows`` is the cache-residency knob:
    small blocks maximise reuse but multiply barriers, large blocks the
    reverse.  ``block_rows=1`` degenerates to one block per level.
    ``levels`` takes the level sets of ``lower`` when the caller already
    has them (a levels operator's forward sweep groups), sparing their
    recomputation.
    """
    if block_rows < 1:
        raise ValueError("block_rows must be positive")
    n = lower.n_rows
    if upper.n_rows != n:
        raise ValueError("lower/upper dimensions disagree")
    groups = levels_to_groups(compute_levels(lower, "forward")) \
        if levels is None else levels
    blocks: List[np.ndarray] = []
    acc: List[np.ndarray] = []
    acc_rows = 0
    for g in groups:
        acc.append(g)
        acc_rows += g.size
        if acc_rows >= block_rows:
            blocks.append(np.sort(np.concatenate(acc)))
            acc, acc_rows = [], 0
    if acc:
        blocks.append(np.sort(np.concatenate(acc)))
    block_of = np.empty(n, dtype=np.int64)
    row_weight = lower.row_nnz() + upper.row_nnz()
    nnz = np.empty(len(blocks), dtype=np.int64)
    for b, rows in enumerate(blocks):
        block_of[rows] = b
        nnz[b] = int(row_weight[rows].sum())
    nb = len(blocks)
    # Symmetric block adjacency (with self loops) from the column
    # references of both triangles.
    srcs = [np.arange(nb, dtype=np.int64)]
    dsts = [np.arange(nb, dtype=np.int64)]
    for tri in (lower, upper):
        if tri.nnz:
            r = np.repeat(np.arange(n, dtype=np.int64), tri.row_nnz())
            s, d = block_of[r], block_of[tri.indices]
            srcs.extend((s, d))
            dsts.extend((d, s))
    pairs = np.unique(
        np.stack([np.concatenate(srcs), np.concatenate(dsts)], axis=1),
        axis=0)
    boundaries = np.nonzero(np.diff(pairs[:, 0]))[0] + 1
    neighbours = tuple(part[:, 1].copy()
                       for part in np.split(pairs, boundaries)) if nb \
        else ()
    return LevelBlocking(blocks=tuple(blocks), block_of=block_of,
                         neighbours=neighbours, nnz=nnz,
                         block_rows=int(block_rows))


def build_blocked_schedule(blocking: LevelBlocking,
                           k: int) -> BlockedSchedule:
    """ASAP list schedule of the ``(block, power)`` grid.

    Block ``b`` computes power 1 at phase ``b`` — the skew that turns
    the grid into a diagonal wavefront, so at any phase only ``O(k)``
    consecutive blocks are active and each block's k visits happen in a
    bounded phase window (the cache-residency window the traffic model
    prices).  Later powers start as soon as the symmetric neighbour
    constraint ``t(b, p) >= 1 + max(t(nb, p - 1))`` allows.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    nb = blocking.n_blocks
    sched: dict = {}
    t_prev = np.arange(nb, dtype=np.int64)  # t(b, 1) = b (the skew)
    for b in range(nb):
        sched.setdefault(int(t_prev[b]), []).append((b, 1))
    for p in range(2, k + 1):
        t_cur = np.empty(nb, dtype=np.int64)
        for b in range(nb):
            t_cur[b] = 1 + int(t_prev[blocking.neighbours[b]].max())
        for b in range(nb):
            sched.setdefault(int(t_cur[b]), []).append((b, p))
        t_prev = t_cur
    phases = tuple(tuple(sched[t]) for t in sorted(sched))
    return BlockedSchedule(k=k, phases=phases)


def _op_for_power(p: int, k: int) -> int:
    if p % 2 == 0:
        return OP_EVEN
    return OP_FINAL_ODD if p == k else OP_ODD


def blocked_descriptors(
    blocking: LevelBlocking,
    schedule: BlockedSchedule,
    lower: CSRMatrix,
    upper: CSRMatrix,
) -> List[List[Tuple[int, int, int, int]]]:
    """Expand the schedule into per-phase ``(start, stop, nnz, op)``
    descriptors: each ``(block, power)`` item becomes one descriptor per
    maximal run of consecutive rows (contiguous level unions collapse to
    one fat descriptor, scattered ones degrade gracefully)."""
    row_weight = lower.row_nnz() + upper.row_nnz()
    phases: List[List[Tuple[int, int, int, int]]] = []
    for items in schedule.phases:
        descs: List[Tuple[int, int, int, int]] = []
        for b, p in items:
            rows = blocking.blocks[b]
            if not rows.size:
                continue
            op = _op_for_power(p, schedule.k)
            breaks = np.nonzero(np.diff(rows) != 1)[0] + 1
            for run in np.split(rows, breaks):
                start, stop = int(run[0]), int(run[-1]) + 1
                descs.append(
                    (start, stop, int(row_weight[start:stop].sum()), op))
        phases.append(descs)
    return phases


def check_blocked_schedule(blocking: LevelBlocking,
                           schedule: BlockedSchedule) -> bool:
    """Validate the ping-pong safety invariant by simulation.

    Walks the phases keeping each block's completed power count and
    asserts, against the state at the *start* of the phase (barrier
    semantics): every item advances its block by exactly one power, no
    block appears twice in a phase, and every neighbour sits within
    ``[p - 1, p]`` — behind by more means an input is missing, ahead by
    more means the read slot was already overwritten.  Finally every
    block must reach power ``k``.
    """
    done = np.zeros(blocking.n_blocks, dtype=np.int64)
    for items in schedule.phases:
        seen = set()
        for b, p in items:
            if b in seen:
                return False
            seen.add(b)
            if p != int(done[b]) + 1:
                return False
            nb_done = done[blocking.neighbours[b]]
            if nb_done.size and (int(nb_done.min()) < p - 1
                                 or int(nb_done.max()) > p):
                return False
        for b, p in items:
            done[b] = p
    return bool((done == schedule.k).all())
