"""Sweep kernels: Algorithm 2's row order on SciPy's compiled CSR loop.

SciPy's ``_sparsetools.csr_matvecs`` computes ``Y += A @ X``: for each
row it adds the products ``A[i, j] * X[j, :]`` onto the *existing*
contents of ``Y[i, :]``, one stored entry at a time, left to right.  The
output buffer is an accumulator, so seeding it with the value a row's
sum starts from reproduces Algorithm 2's arithmetic exactly (the
reference is :func:`repro.core.fbmpk.fbmpk_reference`):

* forward stage, row ``i``: ``sum0 = tmp[i] + d[i] * x_even[i]`` then
  ``sum0 += L[i, j] * x_even[j]``; ``sum1 = 0`` then
  ``sum1 += L[i, j] * x_odd[j]``.  Seeding the ``(rows, 2)`` output with
  ``[tmp + d * x_even, 0]`` and running one call over the BtB ``(n, 2)``
  buffer yields ``[x_odd_new, sum1]`` for every row of a group;
* backward stage: ``sum0 = tmp[i]`` then ``+= U[i, j] * x_odd[j]``;
  ``sum1 = 0`` then ``+= U[i, j] * x_even[j]``.  The seed goes in column
  1, so the call yields ``[sum1, x_even_new]`` without swapping columns;
* head and tail: plain products from zero.

Every function here is plain: it takes triangle arrays, the rows to
update and the working buffers, and writes its results in place.  The
serial sweeps, the threads executor, the process workers and the
levels-blocked wavefront all call them, so every execution path shares
one summation order.  A triangle ``tri`` is the triple ``(indptr,
indices, data)`` of the rows being updated: ``indptr`` holds one entry
per row plus one, and its values index ``indices``/``data`` directly,
so a contiguous row range of a triangle is just a slice of its
``indptr`` (see :func:`row_range`) and needs no copying.

Every sweep kernel, the levels-blocked :func:`blocked` included, runs
over ``2m`` interleaved columns (even/odd per right-hand side): ``power``
is the ``m = 1`` case and ``power_block`` any wider one.  Each column
follows the same per-row order as a single vector, so batched columns
are bitwise equal to :meth:`~repro.core.fbmpk.FBMPKOperator.power`.

Rows of one call must not depend on each other unless the caller says
so with ``chained=True`` (ABMC blocks of more than one row): the kernel
then makes two calls.  The first, seeded, finishes the new iterate for
every row; the second starts from zero against the slots just written
and produces the pre-accumulated temporary.  Each row's sums still run
in Algorithm 2's order, because within one stage the first sum reads
only values that the stage does not change.

``_sparsetools`` is private SciPy API.  ``tests/core/test_kernel_order.py``
pins the accumulation order this module relies on and fails, naming the
SciPy version, if a release changes it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple, Union

import numpy as np
from scipy.sparse import _sparsetools

from ..reorder.levels_blocked import OP_EVEN, OP_FINAL_ODD, OP_ODD

__all__ = [
    "Segment",
    "accumulate",
    "row_range",
    "row_set",
    "chained_ranges",
    "ranges_to_rows",
    "head",
    "forward",
    "backward",
    "tail",
    "blocked",
    "run_range",
]

#: ``(indptr, indices, data)`` of the rows one kernel call updates.
Tri = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: The rows a call updates: a contiguous ``slice`` or an index array.
Rows = Union[slice, np.ndarray]


class Segment(NamedTuple):
    """One serial sweep group: its rows, their triangle arrays, the
    number of stored entries, and whether the rows depend on each
    other."""

    rows: Rows
    tri: Tri
    nnz: int
    chained: bool


def accumulate(tri: Tri, X: np.ndarray, Y: np.ndarray) -> None:
    """``Y += tri @ X``, each row summed left to right onto its seed.

    ``X`` is ``(n_cols, w)`` and ``Y`` is ``(n_rows, w)``, both
    C-contiguous float64; anything else would be copied on every
    call."""
    indptr, indices, data = tri
    _sparsetools.csr_matvecs(indptr.shape[0] - 1, X.shape[0], X.shape[1],
                             indptr, indices, data, X, Y)


def row_range(tri, start: int, stop: int) -> Tri:
    """The triangle arrays of rows ``[start, stop)`` of a CSR triangle
    (any object with ``indptr``/``indices``/``data``), without copying."""
    return tri.indptr[start:stop + 1], tri.indices, tri.data


def row_set(tri, rows: np.ndarray, chained: bool) -> Segment:
    """A serial sweep segment over the row set ``rows`` of ``tri``;
    ``chained`` says whether the rows depend on each other (see
    :func:`chained_ranges`).

    A contiguous ascending set slices the triangle in place; any other
    set gathers its rows into a compact copy (same entries, same order
    within each row, so the same arithmetic)."""
    rows = np.asarray(rows, dtype=np.int64)
    start, stop = int(rows[0]), int(rows[-1]) + 1
    if stop - start == rows.shape[0] \
            and (rows.shape[0] < 2 or bool((np.diff(rows) == 1).all())):
        nnz = int(tri.indptr[stop] - tri.indptr[start])
        return Segment(slice(start, stop), row_range(tri, start, stop), nnz,
                       chained)
    sub = tri.select_rows(rows)
    return Segment(rows, (sub.indptr, sub.indices, sub.data), sub.nnz,
                   chained)


def ranges_to_rows(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The rows of the ranges ``[starts[g], stops[g])``, concatenated in
    order."""
    lens = stops - starts
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) \
        + np.arange(int(lens.sum()), dtype=np.int64)


def chained_ranges(indptr: np.ndarray, indices: np.ndarray,
                   starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Per row range ``[starts[g], stops[g])``: whether a stored column
    of its rows falls inside the range (the rows depend on each other).

    The ranges must be disjoint, as the blocks of one sweep's phases
    are."""
    owner = np.full(indptr.shape[0] - 1, -1, dtype=np.int64)
    owner[ranges_to_rows(starts, stops)] = np.repeat(
        np.arange(starts.shape[0]), stops - starts)
    entry_owner = np.repeat(owner, np.diff(indptr))
    hit = (entry_owner >= 0) & (owner[indices] == entry_owner)
    flags = np.zeros(starts.shape[0], dtype=bool)
    flags[entry_owner[hit]] = True
    return flags


def head(m, X: np.ndarray) -> np.ndarray:
    """``m @ X`` from zero for a CSR triangle ``m`` and an ``(n, w)``
    block (Algorithm 2's line 3, and the tail's lower-triangle
    product)."""
    X = np.ascontiguousarray(X)
    Y = np.zeros((m.n_rows, X.shape[1]))
    accumulate((m.indptr, m.indices, m.data), X, Y)
    return Y


def forward(tri: Tri, rows: Rows, XY: np.ndarray, tmp: np.ndarray,
            d: np.ndarray, chained: bool = False) -> None:
    """Forward-stage update of ``rows`` (Algorithm 2, lines 7-16).

    ``XY`` is the ``(n, 2m)`` interleaved buffer (even iterate in
    columns ``0::2``, odd in ``1::2``), ``tmp`` the ``(n, m)`` sweep
    temporary and ``d`` the ``(n, 1)`` diagonal.  Writes the new odd
    iterate and leaves ``tmp = L x_odd + D x_odd`` on ``rows``."""
    x_even = XY[rows, 0::2]
    W = np.empty((x_even.shape[0], XY.shape[1]))
    W[:, 0::2] = tmp[rows] + d[rows] * x_even
    W[:, 1::2] = 0.0
    accumulate(tri, XY, W)
    odd = W[:, 0::2]
    XY[rows, 1::2] = odd
    if chained:
        W[:, 1::2] = 0.0
        accumulate(tri, XY, W)  # columns 0::2 are discarded
        odd = XY[rows, 1::2]
    tmp[rows] = W[:, 1::2] + d[rows] * odd


def backward(tri: Tri, rows: Rows, XY: np.ndarray, tmp: np.ndarray,
             chained: bool = False) -> None:
    """Backward-stage update of ``rows`` (Algorithm 2, lines 17-28):
    writes the new even iterate and leaves ``tmp = U x_even``."""
    t = tmp[rows]
    W = np.empty((t.shape[0], XY.shape[1]))
    W[:, 0::2] = 0.0
    W[:, 1::2] = t
    accumulate(tri, XY, W)
    XY[rows, 0::2] = W[:, 1::2]
    if chained:
        W[:, 0::2] = 0.0
        accumulate(tri, XY, W)  # columns 1::2 are discarded
    tmp[rows] = W[:, 0::2]


def tail(lower, XY: np.ndarray, tmp: np.ndarray,
         d: np.ndarray) -> np.ndarray:
    """Odd-``k`` tail (Algorithm 2, lines 30-32): ``L x + tmp + d x``
    with ``L x`` summed from zero, as a fresh ``(n, m)`` array."""
    even = np.ascontiguousarray(XY[:, 0::2])
    return head(lower, even) + tmp + d * even


def blocked(lower: Tri, upper: Tri, rows: slice, XY: np.ndarray,
            d: np.ndarray, op: int) -> None:
    """One power of the levels-blocked wavefront on ``rows``.

    ``XY`` is the ``(n, 2m)`` interleaved buffer and ``d`` the ``(n, 1)``
    diagonal.  Odd powers read the even columns (``0::2``) and write the
    odd ones (``1::2``), even powers the reverse.  Each op reproduces the
    serial stage that produces the same power: ``OP_ODD`` seeds the
    left-to-right ``L`` sum with ``U x + d x`` (forward stage),
    ``OP_EVEN`` seeds the ``U`` sum with ``L x + d x`` (backward stage),
    and ``OP_FINAL_ODD`` forms ``(L x + U x) + d x`` (tail).  Both
    triangles' sums run from zero except where seeded, so every one of
    the ``m`` right-hand sides follows the per-row order of a single
    vector."""
    rs, ws = (1, 0) if op == OP_EVEN else (0, 1)
    x = XY[rows, rs::2]
    W = np.zeros((x.shape[0], XY.shape[1]))
    if op == OP_FINAL_ODD:
        accumulate(upper, XY, W)
        u = W[:, rs::2].copy()
        W[:] = 0.0
        accumulate(lower, XY, W)
        XY[rows, ws::2] = W[:, rs::2] + u + d[rows] * x
        return
    if op == OP_ODD:
        first, second = upper, lower
    elif op == OP_EVEN:
        first, second = lower, upper
    else:
        raise ValueError(f"unknown blocked op {op!r}")
    accumulate(first, XY, W)
    W[:, rs::2] += d[rows] * x
    accumulate(second, XY, W)  # the other columns are discarded
    XY[rows, ws::2] = W[:, rs::2]


def run_range(sweep: str, lower, upper, start: int, stop: int,
              XY: np.ndarray, tmp, d: np.ndarray, op: int = -1,
              chained: bool = False) -> None:
    """Rows ``[start, stop)`` of one ``sweep`` (``"forward"``,
    ``"backward"`` or ``"blocked"``) over the CSR triangles
    ``lower``/``upper``: the one descriptor body the threads executor,
    the process workers and the serial wavefront share.  ``op`` is a
    blocked descriptor's update kind, ``chained`` a forward or backward
    descriptor's flag; ``tmp`` is unused by ``"blocked"``."""
    rows = slice(start, stop)
    if sweep == "forward":
        forward(row_range(lower, start, stop), rows, XY, tmp, d, chained)
    elif sweep == "backward":
        backward(row_range(upper, start, stop), rows, XY, tmp, chained)
    elif sweep == "blocked":
        blocked(row_range(lower, start, stop), row_range(upper, start, stop),
                rows, XY, d, op)
    else:
        raise ValueError(f"unknown sweep {sweep!r}")
