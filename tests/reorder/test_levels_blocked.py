"""Levels-blocked (RACE-style) scheduling: blocking construction, the
skewed wavefront schedule, descriptor expansion, and bitwise identity of
the operator against serial FBMPK across all three executors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FBMPKOperator, build_fbmpk_operator
from repro.core.partition import split_ldu
from repro.reorder import (
    blocked_descriptors,
    build_blocked_schedule,
    build_level_blocking,
    check_blocked_schedule,
)
from repro.reorder.levels_blocked import (
    OP_EVEN,
    OP_FINAL_ODD,
    OP_ODD,
    _op_for_power,
)
from repro.sparse import CSRMatrix


def _blocking(a, block_rows=8):
    part = split_ldu(a)
    return part, build_level_blocking(part.lower, part.upper, block_rows)


def _chain(n):
    """Tridiagonal matrix: one dependency level per row."""
    dense = 2.0 * np.eye(n) + np.eye(n, k=-1) + np.eye(n, k=1)
    return CSRMatrix.from_dense(dense)


# -- blocking construction -------------------------------------------------
class TestBlocking:
    def test_blocks_partition_rows(self, any_matrix):
        _, blk = _blocking(any_matrix)
        rows = np.concatenate(blk.blocks)
        assert np.array_equal(np.sort(rows), np.arange(any_matrix.n_rows))
        for b, block in enumerate(blk.blocks):
            assert (blk.block_of[block] == b).all()

    def test_block_sizes_respect_knob(self, grid):
        _, blk = _blocking(grid, block_rows=8)
        # Every block except possibly the last reached the threshold.
        assert all(b.size >= 8 for b in blk.blocks[:-1])

    def test_neighbours_symmetric_with_self_loops(self, any_matrix):
        _, blk = _blocking(any_matrix)
        for b in range(blk.n_blocks):
            assert b in blk.neighbours[b]
            for nb in blk.neighbours[b]:
                assert b in blk.neighbours[int(nb)]

    def test_neighbours_cover_matrix_references(self, grid):
        part, blk = _blocking(grid)
        for tri in (part.lower, part.upper):
            r = np.repeat(np.arange(grid.n_rows), tri.row_nnz())
            for src, dst in zip(blk.block_of[r],
                                blk.block_of[tri.indices]):
                assert dst in blk.neighbours[int(src)]

    def test_nnz_weights_sum_to_triangles(self, any_matrix):
        part, blk = _blocking(any_matrix)
        assert int(blk.nnz.sum()) == part.lower.nnz + part.upper.nnz

    def test_empty_matrix(self):
        a = CSRMatrix.from_dense(np.zeros((0, 0)))
        _, blk = _blocking(a)
        assert blk.n_blocks == 0 and blk.n == 0
        sched = build_blocked_schedule(blk, 3)
        assert check_blocked_schedule(blk, sched)
        assert sched.n_phases == 0

    def test_diagonal_matrix_single_level(self):
        a = CSRMatrix.from_dense(np.diag(np.arange(1.0, 6.0)))
        _, blk = _blocking(a, block_rows=2)
        # No off-diagonal dependencies: one level, hence one block.
        assert blk.n_blocks == 1
        assert blk.neighbours[0].tolist() == [0]

    def test_sequential_chain_one_level_per_row(self):
        # Tridiagonal chain: row i depends on i-1, so with block_rows=1
        # each level (= each row) is its own block and adjacency is the
        # path graph.
        a = _chain(12)
        _, blk = _blocking(a, block_rows=1)
        assert blk.n_blocks == 12
        assert blk.neighbours[0].tolist() == [0, 1]
        assert blk.neighbours[5].tolist() == [4, 5, 6]

    def test_block_rows_validated(self, grid):
        part = split_ldu(grid)
        with pytest.raises(ValueError):
            build_level_blocking(part.lower, part.upper, 0)


# -- schedule --------------------------------------------------------------
class TestSchedule:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_schedule_valid(self, any_matrix, k):
        _, blk = _blocking(any_matrix)
        sched = build_blocked_schedule(blk, k)
        assert check_blocked_schedule(blk, sched)

    def test_every_pair_scheduled_once(self, grid):
        _, blk = _blocking(grid)
        sched = build_blocked_schedule(blk, 4)
        items = [bp for phase in sched.phases for bp in phase]
        assert sorted(items) == [(b, p) for b in range(blk.n_blocks)
                                 for p in range(1, 5)]

    def test_wavefront_phase_count_on_chain(self):
        # On the path graph the skewed wavefront drains in at most
        # nb + 2(k-1) phases (boundary blocks close the diamond a touch
        # earlier) — crucially NOT the k * nb a phase-per-(block, power)
        # schedule would need, which is what makes residency pay.
        a = _chain(16)
        _, blk = _blocking(a, block_rows=1)
        for k in (1, 2, 4):
            sched = build_blocked_schedule(blk, k)
            assert blk.n_blocks <= sched.n_phases \
                <= blk.n_blocks + 2 * (k - 1)

    def test_k_validated(self, grid):
        _, blk = _blocking(grid)
        with pytest.raises(ValueError):
            build_blocked_schedule(blk, 0)

    def test_validator_rejects_broken_schedules(self, grid):
        from repro.reorder.levels_blocked import BlockedSchedule

        _, blk = _blocking(grid)
        good = build_blocked_schedule(blk, 2)
        # Dropping the last phase leaves blocks short of power k.
        assert not check_blocked_schedule(
            blk, BlockedSchedule(k=2, phases=good.phases[:-1]))
        # Flattening everything into one phase violates the neighbour
        # window (a block and its neighbour at different powers).
        flat = tuple([tuple(bp for ph in good.phases for bp in ph)])
        if blk.n_blocks > 1:
            assert not check_blocked_schedule(
                blk, BlockedSchedule(k=2, phases=flat))


# -- descriptors -----------------------------------------------------------
class TestDescriptors:
    def test_ops_follow_power_parity(self):
        assert _op_for_power(2, 4) == OP_EVEN
        assert _op_for_power(1, 4) == OP_ODD
        assert _op_for_power(3, 3) == OP_FINAL_ODD
        assert _op_for_power(1, 1) == OP_FINAL_ODD
        assert _op_for_power(4, 4) == OP_EVEN

    def test_descriptors_cover_each_power_once(self, any_matrix):
        part, blk = _blocking(any_matrix)
        k = 3
        sched = build_blocked_schedule(blk, k)
        descs = blocked_descriptors(blk, sched, part.lower, part.upper)
        assert len(descs) == sched.n_phases
        covered = np.zeros(any_matrix.n_rows, dtype=np.int64)
        for phase in descs:
            for start, stop, nnz, op in phase:
                assert 0 <= start < stop <= any_matrix.n_rows
                assert op in (OP_ODD, OP_EVEN, OP_FINAL_ODD)
                covered[start:stop] += 1
        assert (covered == k).all()

    def test_descriptor_nnz_matches_weights(self, grid):
        part, blk = _blocking(grid)
        sched = build_blocked_schedule(blk, 1)
        descs = blocked_descriptors(blk, sched, part.lower, part.upper)
        w = part.lower.row_nnz() + part.upper.row_nnz()
        for phase in descs:
            for start, stop, nnz, _ in phase:
                assert nnz == int(w[start:stop].sum())


# -- operator bit-identity -------------------------------------------------
class TestOperator:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("block_rows", [1, 8, 1000])
    def test_serial_matches_fbmpk_levels(self, any_matrix, k, block_rows,
                                         rng):
        x = rng.standard_normal(any_matrix.n_rows)
        ref = build_fbmpk_operator(any_matrix, strategy="levels")
        op = build_fbmpk_operator(any_matrix, strategy="levels-blocked",
                                  block_size=block_rows)
        try:
            assert isinstance(op, FBMPKOperator)
            assert op.schedule == "levels-blocked"
            assert np.array_equal(op.power(x, k), ref.power(x, k))
        finally:
            op.close()
            ref.close()

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_threads_match_serial(self, grid, k, rng):
        x = rng.standard_normal(grid.n_rows)
        serial = build_fbmpk_operator(grid, strategy="levels-blocked",
                                      block_size=8)
        threaded = build_fbmpk_operator(grid, strategy="levels-blocked",
                                        block_size=8, executor="threads",
                                        n_threads=2)
        try:
            assert np.array_equal(threaded.power(x, k), serial.power(x, k))
        finally:
            serial.close()
            threaded.close()

    def test_processes_match_serial(self, grid, rng):
        x = rng.standard_normal(grid.n_rows)
        serial = build_fbmpk_operator(grid, strategy="levels-blocked",
                                      block_size=8)
        procs = build_fbmpk_operator(grid, strategy="levels-blocked",
                                     block_size=8, executor="processes",
                                     n_threads=2)
        try:
            for k in (1, 2, 5):
                assert np.array_equal(procs.power(x, k), serial.power(x, k))
        finally:
            serial.close()
            procs.close()

    def test_configure_executor_switches_backends(self, grid, rng):
        """The wavefront keeps its blocking and per-k batches across
        executor switches; every backend gives the serial bits."""
        x = rng.standard_normal(grid.n_rows)
        X = rng.standard_normal((grid.n_rows, 3))
        with build_fbmpk_operator(grid, strategy="levels-blocked",
                                  block_size=8) as op:
            y, Y = op.power(x, 5), op.power_block(X, 4)
            for backend in ("threads", "processes", "serial", "threads"):
                op.configure_executor(executor=backend, n_threads=2,
                                      assign_policy="round_robin")
                assert np.array_equal(op.power(x, 5), y), backend
                assert np.array_equal(op.power_block(X, 4), Y), backend
                assert (op.last_stats is None) == (backend == "serial")

    def test_on_iterate_rejected(self, grid, rng):
        """Intermediate powers never exist as whole vectors on the
        wavefront, so asking for them is an error, not a silent no-op."""
        with build_fbmpk_operator(grid, strategy="levels-blocked") as op:
            with pytest.raises(ValueError, match="on_iterate"):
                op.power(rng.standard_normal(grid.n_rows), 3,
                         on_iterate=lambda i, v: None)

    def test_power_zero_copies_input(self, grid, rng):
        x = rng.standard_normal(grid.n_rows)
        with build_fbmpk_operator(grid, strategy="levels-blocked") as op:
            y = op.power(x, 0)
        assert np.array_equal(y, x)
        assert y is not x

    def test_counter_counts_full_passes(self, grid, rng):
        from repro.core import KernelCounter

        counter = KernelCounter()
        with build_fbmpk_operator(grid, strategy="levels-blocked") as op:
            op.power(rng.standard_normal(grid.n_rows), 5, counter=counter)
        # Residency reuses cached blocks but every power still *applies*
        # L and U once: the counter reports logical passes.
        assert counter.l_passes == 5
        assert counter.u_passes == 5


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_blocked_matches_levels_serial(data):
    """On random matrices and any block size, the levels-blocked
    operator is bit-identical to serial FBMPK with the levels
    strategy."""
    n = data.draw(st.integers(min_value=1, max_value=24), label="n")
    density = data.draw(st.floats(min_value=0.0, max_value=0.5),
                        label="density")
    seed = data.draw(st.integers(min_value=0, max_value=2 ** 31),
                     label="seed")
    k = data.draw(st.integers(min_value=1, max_value=6), label="k")
    block_rows = data.draw(st.integers(min_value=1, max_value=32),
                           label="block_rows")
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense = np.where(rng.random((n, n)) < density, dense, 0.0)
    np.fill_diagonal(dense, rng.standard_normal(n))
    a = CSRMatrix.from_dense(dense)
    x = rng.standard_normal(n)
    ref = build_fbmpk_operator(a, strategy="levels")
    op = build_fbmpk_operator(a, strategy="levels-blocked",
                              block_size=block_rows)
    try:
        assert np.array_equal(op.power(x, k), ref.power(x, k))
    finally:
        op.close()
        ref.close()
