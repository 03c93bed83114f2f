"""Algebraic Block Multi-Colour ordering (ABMC, Iwashita et al. 2012).

This is the parallelisation enabler of the paper's Section III-D:

1. rows are grouped into *blocks* (``block_size`` rows each);
2. the block *quotient graph* is coloured so same-colour blocks share no
   matrix entries;
3. rows are renumbered block-by-block in colour order.

After the reordering, the rows of one colour form a contiguous range, all
blocks inside a colour can be processed in parallel, and every dependency
through the strict lower (upper) triangle points to an earlier (later)
colour or to an earlier (later) row of the *same block* — the invariant
both the fused vectorised FBMPK sweeps and the simulated multi-threaded
executor rely on.

Two blocking strategies are provided:

``"consecutive"``
    Blocks are runs of consecutive row ids.  This is the "algebraic"
    strategy of the original paper — cheap, and effective whenever the
    input ordering already has locality (FEM meshes, RCM output).
``"bfs"``
    Blocks aggregate graph-adjacent rows via breadth-first traversal,
    improving intra-block connectivity for scrambled orderings.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import List, Literal

import numpy as np

from ..sparse.csr import CSRMatrix
from .coloring import check_coloring, greedy_coloring
from .graph import AdjacencyGraph, adjacency_from_matrix, quotient_graph

__all__ = ["ABMCOrdering", "abmc_ordering"]

BlockStrategy = Literal["consecutive", "bfs"]


@dataclass(frozen=True)
class ABMCOrdering:
    """Result of the ABMC preprocessing step.

    Attributes
    ----------
    perm:
        Row permutation, ``perm[new_row] = old_row``.
    block_of:
        For every *new* row index, the id of its block.
    color_of_block:
        Colour id per block.
    n_colors:
        Number of colours used.
    color_ranges:
        ``(start, stop)`` new-row ranges, one per colour, covering the
        matrix contiguously in colour order.
    block_ranges:
        ``(start, stop)`` new-row ranges of every block, ordered by colour
        then block id; blocks within one colour are mutually independent.
    block_size:
        The requested rows-per-block.
    """

    perm: np.ndarray
    block_of: np.ndarray
    color_of_block: np.ndarray
    n_colors: int
    color_ranges: List[tuple]
    block_ranges: List[tuple]
    block_size: int

    @property
    def n(self) -> int:
        """Number of rows."""
        return int(self.perm.shape[0])

    @property
    def n_blocks(self) -> int:
        """Number of blocks."""
        return int(self.color_of_block.shape[0])

    def blocks_of_color(self, color: int) -> List[tuple]:
        """New-row ranges of the blocks carrying ``color``.

        ``block_ranges`` is ordered by new-row position, and rows are
        sorted by colour first, so the ranges of one colour are a
        contiguous run of this list.
        """
        start, stop = self.color_ranges[color]
        return self.block_ranges[bisect_left(self.block_ranges, (start,)):
                                 bisect_left(self.block_ranges, (stop,))]

    def max_parallel_blocks(self) -> int:
        """Largest number of blocks sharing one colour — the available
        parallelism of the widest phase (cf. the ``cant`` discussion in
        Section V-A)."""
        return int(np.bincount(self.color_of_block).max(initial=0))


def _blocks_consecutive(n: int, block_size: int) -> np.ndarray:
    """Assign row ``i`` to block ``i // block_size`` (old numbering)."""
    return np.arange(n, dtype=np.int64) // block_size


def _blocks_bfs(graph: AdjacencyGraph, block_size: int) -> np.ndarray:
    """Aggregate graph-adjacent vertices into blocks by BFS traversal."""
    n = graph.n
    block_of = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for seed in range(n):
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        while queue:
            v = queue.popleft()
            order[pos] = v
            pos += 1
            for w in graph.neighbours(v):
                if not visited[w]:
                    visited[w] = True
                    queue.append(int(w))
    block_of[order] = np.arange(n, dtype=np.int64) // block_size
    return block_of


def abmc_ordering(
    a: CSRMatrix,
    block_size: int = 512,
    strategy: BlockStrategy = "consecutive",
    color_order: str = "natural",
) -> ABMCOrdering:
    """Run ABMC on a square matrix and return the full ordering artefact.

    ``block_size`` mirrors the paper's tunable (defaults 512/1024 in their
    implementation); ``block_size=1`` degenerates to classic point
    multi-colouring.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("ABMC requires a square matrix")
    if block_size < 1:
        raise ValueError("block_size must be positive")
    n = a.n_rows
    graph = adjacency_from_matrix(a)
    if strategy == "consecutive":
        block_of_old = _blocks_consecutive(n, block_size)
    elif strategy == "bfs":
        block_of_old = _blocks_bfs(graph, block_size)
    else:
        raise ValueError(f"unknown blocking strategy {strategy!r}")
    n_blocks = int(block_of_old.max(initial=-1)) + 1
    quotient = quotient_graph(graph, block_of_old, n_blocks)
    # Sequential greedy is both faster and more colour-frugal than the
    # vectorised Luby alternative at every size we handle, so it is the
    # default; ``luby_coloring`` stays available for callers who want it.
    color_of_block = greedy_coloring(quotient, order=color_order)
    assert check_coloring(quotient, color_of_block)
    n_colors = int(color_of_block.max(initial=-1)) + 1
    # New row order: sort rows by (colour of their block, block id, row id).
    # Stable lexsort keeps blocks contiguous and rows in original relative
    # order inside each block.
    row_block = block_of_old
    row_color = color_of_block[row_block]
    perm = np.lexsort((np.arange(n), row_block, row_color)).astype(np.int64)
    block_of_new = row_block[perm]
    # Contiguous ranges per colour and per block in the new numbering.
    new_colors = row_color[perm]
    color_ranges: List[tuple] = []
    for c in range(n_colors):
        idx = np.nonzero(new_colors == c)[0]
        color_ranges.append((int(idx[0]), int(idx[-1]) + 1))
    block_ranges: List[tuple] = []
    if n:
        boundaries = np.nonzero(np.diff(block_of_new))[0] + 1
        starts = np.concatenate([[0], boundaries])
        stops = np.concatenate([boundaries, [n]])
        block_ranges = [(int(s), int(e)) for s, e in zip(starts, stops)]
    return ABMCOrdering(
        perm=perm,
        block_of=block_of_new,
        color_of_block=color_of_block,
        n_colors=n_colors,
        color_ranges=color_ranges,
        block_ranges=block_ranges,
        block_size=block_size,
    )
