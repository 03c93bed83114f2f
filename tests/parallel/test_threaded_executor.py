"""Differential tests of the real threaded colour-phase executor.

The contract under test: ``executor="threads"`` must produce **bit-for-
bit** the serial fused pipeline's result for every assignment policy and
thread count, because the per-block kernels perform the identical
floating-point operations and phases only reorder *independent* work.
Any data race, missed barrier, mis-assigned or dropped block perturbs at
least one summand and breaks bitwise equality with overwhelming
probability — which makes ``np.array_equal`` a race detector, not just a
correctness check.  Against the pure-Python Algorithm 2 transcription
(:func:`fbmpk_reference`) results agree to reassociation tolerance.
"""

import numpy as np
import pytest

from repro.core import FBMPKOperator, build_fbmpk_operator, fbmpk_reference
from repro.core.partition import split_ldu
from repro.matrices import banded_random, poisson2d
from repro.parallel import (
    BlockTask,
    DescriptorBatch,
    Phase,
    ThreadedPhaseExecutor,
    check_phases,
    phases_from_groups,
)

POLICIES = ["round_robin", "lpt", "dynamic"]
THREAD_COUNTS = [1, 2, 4, 8]
KS = [1, 2, 3, 4, 5, 6]
BLOCK = 8


def _matrices():
    return {
        "sym": banded_random(110, 6, 11, symmetric=True, seed=11),
        "unsym": banded_random(97, 5, 9, symmetric=False, seed=12),
        "grid": poisson2d(9, seed=13),
    }


@pytest.fixture(scope="module")
def matrices():
    return _matrices()


@pytest.fixture(scope="module")
def x_vectors(matrices):
    return {name: np.random.default_rng(100 + i).standard_normal(a.n_rows)
            for i, (name, a) in enumerate(matrices.items())}


@pytest.fixture(scope="module")
def serial_results(matrices, x_vectors):
    """Serial fused results, the bitwise oracle: one per (matrix, k)."""
    out = {}
    for name, a in matrices.items():
        op = build_fbmpk_operator(a, block_size=BLOCK)
        for k in KS:
            out[name, k] = op.power(x_vectors[name], k)
    return out


@pytest.fixture(scope="module")
def reference_results(matrices, x_vectors):
    """Pure-Python Algorithm 2 results: one per (matrix, k)."""
    return {(name, k): fbmpk_reference(split_ldu(a), x_vectors[name], k)
            for name, a in matrices.items() for k in KS}


@pytest.fixture(scope="module")
def threaded_ops(matrices):
    """Threaded operators cached per (matrix, policy, thread count)."""
    cache = {}

    def get(name, policy, n_threads):
        key = (name, policy, n_threads)
        if key not in cache:
            cache[key] = build_fbmpk_operator(
                matrices[name], block_size=BLOCK, executor="threads",
                n_threads=n_threads, assign_policy=policy)
        return cache[key]

    yield get
    for op in cache.values():
        op.close()


class TestDifferential:
    """216 randomized cases: 3 matrices x k in 1..6 x 3 policies x
    {1, 2, 4, 8} threads (8 exceeds the widest colour's block count on
    every test matrix, so thread starvation is always exercised)."""

    @pytest.mark.parametrize("n_threads", THREAD_COUNTS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("name", ["sym", "unsym", "grid"])
    def test_threads_match_serial_bitwise(self, name, k, policy, n_threads,
                                          threaded_ops, x_vectors,
                                          serial_results,
                                          reference_results):
        op = threaded_ops(name, policy, n_threads)
        y = op.power(x_vectors[name], k)
        np.testing.assert_array_equal(y, serial_results[name, k])
        np.testing.assert_allclose(y, reference_results[name, k],
                                   rtol=1e-9, atol=1e-12)

    def test_more_threads_than_total_blocks(self, matrices, x_vectors,
                                            serial_results):
        """n_threads far beyond the total block count: most bins stay
        empty every phase, the rest must still cover all blocks."""
        with build_fbmpk_operator(matrices["grid"], block_size=32,
                                  executor="threads", n_threads=64) as op:
            y = op.power(x_vectors["grid"], 4)
        serial = build_fbmpk_operator(matrices["grid"], block_size=32)
        np.testing.assert_array_equal(y, serial.power(x_vectors["grid"], 4))

    def test_levels_strategy_threaded(self, matrices, x_vectors):
        """The executor also covers the no-reordering levels strategy
        (one phase per dependency level, run-split tasks)."""
        a = matrices["grid"]
        serial = build_fbmpk_operator(a, strategy="levels")
        with build_fbmpk_operator(a, strategy="levels", executor="threads",
                                  n_threads=4) as op:
            for k in (1, 4, 5):
                np.testing.assert_array_equal(
                    op.power(x_vectors["grid"], k),
                    serial.power(x_vectors["grid"], k))

    def test_on_iterate_matches_serial(self, matrices, x_vectors):
        """Every intermediate power surfaced by on_iterate is bitwise
        equal between backends (and in original numbering)."""
        a = matrices["sym"]
        x = x_vectors["sym"]
        serial_seen, threaded_seen = {}, {}
        build_fbmpk_operator(a, block_size=BLOCK).power(
            x, 5, on_iterate=lambda i, xi: serial_seen.setdefault(i, xi))
        with build_fbmpk_operator(a, block_size=BLOCK, executor="threads",
                                  n_threads=4) as op:
            op.power(x, 5,
                     on_iterate=lambda i, xi: threaded_seen.setdefault(i, xi))
        assert sorted(serial_seen) == sorted(threaded_seen) == [1, 2, 3, 4, 5]
        for i in serial_seen:
            np.testing.assert_array_equal(serial_seen[i], threaded_seen[i])


class TestDeterminism:
    """Races manifest as run-to-run variation: a block of a later colour
    starting before its barrier reads half-updated iterates and changes
    bits.  Twenty identical runs must produce twenty identical results."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_repeated_runs_bitwise_identical(self, matrices, x_vectors,
                                             serial_results, policy):
        x = x_vectors["grid"]
        with build_fbmpk_operator(matrices["grid"], block_size=BLOCK,
                                  executor="threads", n_threads=4,
                                  assign_policy=policy) as op:
            first = op.power(x, 5)
            np.testing.assert_array_equal(first, serial_results["grid", 5])
            for _ in range(19):
                np.testing.assert_array_equal(op.power(x, 5), first)

    def test_thread_count_does_not_change_bits(self, matrices, x_vectors):
        """The schedule's arithmetic is independent of how blocks are
        dealt out, so every (policy, threads) combination agrees."""
        x = x_vectors["unsym"]
        results = []
        for policy in POLICIES:
            for nt in (1, 3, 8):
                with build_fbmpk_operator(
                        matrices["unsym"], block_size=BLOCK,
                        executor="threads", n_threads=nt,
                        assign_policy=policy) as op:
                    results.append(op.power(x, 6))
        for y in results[1:]:
            np.testing.assert_array_equal(y, results[0])


class TestObservability:
    def test_stats_shape(self, matrices, x_vectors):
        k = 6
        with build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="threads", n_threads=4) as op:
            fw, bw = op.block_phases()
            op.power(x_vectors["sym"], k)
            stats = op.last_stats
        assert stats is not None
        assert stats.n_threads == 4 and stats.policy == "lpt"
        assert stats.barriers == (len(fw) + len(bw)) * (k // 2)
        assert len(stats.phases) == stats.barriers
        assert len(stats.phase_wall_s) == stats.barriers
        assert all(w >= 0.0 for w in stats.phase_wall_s)
        assert stats.total_wall_s == pytest.approx(sum(stats.phase_wall_s))
        assert len(stats.thread_busy_s) == 4
        assert stats.busy_s > 0.0
        assert stats.efficiency > 0.0
        # Phase nnz accounting covers each triangle once per stage.
        fw_nnz = sum(p.nnz for p in stats.phases[:len(fw)])
        assert fw_nnz == op.part.lower.nnz

    def test_serial_run_clears_stats(self, matrices, x_vectors):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="threads", n_threads=2)
        op.power(x_vectors["sym"], 2)
        assert op.last_stats is not None
        op.configure_executor(executor="serial")
        op.power(x_vectors["sym"], 2)
        assert op.last_stats is None
        op.close()

    def test_k0_and_k1_stats(self, matrices, x_vectors):
        """k=0 shortcuts out; k=1 (tail only) runs zero phases — the
        stats must reflect that no barriers were crossed."""
        with build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="threads", n_threads=2) as op:
            op.power(x_vectors["sym"], 0)
            assert op.last_stats is None
            op.power(x_vectors["sym"], 1)
            assert op.last_stats is not None
            assert op.last_stats.barriers == 0


class TestLifecycle:
    def test_unknown_executor_rejected(self, matrices):
        with pytest.raises(ValueError, match="executor"):
            build_fbmpk_operator(matrices["sym"], executor="openmp")

    def test_configure_rejects_unknown(self, matrices):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK)
        with pytest.raises(ValueError, match="executor"):
            op.configure_executor(executor="gpu")

    def test_configure_reuses_preprocessing(self, matrices, x_vectors,
                                            serial_results):
        """Thread/policy sweeps over one operator: phases and kernels
        are built once, only the pool is replaced."""
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="threads", n_threads=1)
        fw0, _ = op.block_phases()
        op.configure_executor(n_threads=8, assign_policy="round_robin")
        fw1, _ = op.block_phases()
        assert fw0 is fw1
        y = op.power(x_vectors["sym"], 4)
        np.testing.assert_array_equal(y, serial_results["sym", 4])
        op.close()

    def test_close_then_reuse(self, matrices, x_vectors, serial_results):
        op = build_fbmpk_operator(matrices["sym"], block_size=BLOCK,
                                  executor="threads", n_threads=2)
        op.power(x_vectors["sym"], 2)
        op.close()
        op.close()  # idempotent
        y = op.power(x_vectors["sym"], 2)  # respawns workers
        np.testing.assert_array_equal(y, serial_results["sym", 2])
        op.close()

    def test_save_load_threads(self, matrices, x_vectors, serial_results,
                               tmp_path):
        """A persisted operator rebuilt with the threaded backend still
        matches the serial oracle bitwise (phases derived from groups)."""
        path = tmp_path / "op.npz"
        build_fbmpk_operator(matrices["sym"], block_size=BLOCK).save(path)
        with FBMPKOperator.load(path, executor="threads",
                                n_threads=4) as op:
            y = op.power(x_vectors["sym"], 5)
        np.testing.assert_array_equal(y, serial_results["sym", 5])

    def test_worker_exception_propagates(self):
        batch = DescriptorBatch.from_phases(
            [Phase(color=0, tasks=[BlockTask(0, 4, 7)])])

        def boom(g):
            raise RuntimeError("kernel exploded")

        with ThreadedPhaseExecutor(n_threads=2) as ex:
            with pytest.raises(RuntimeError, match="kernel exploded"):
                ex.run_batched(batch, boom)

    def test_executor_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="n_threads"):
            ThreadedPhaseExecutor(n_threads=0)


class TestPhaseValidation:
    def test_operator_phases_are_executable(self, matrices):
        for strategy in ("abmc", "levels"):
            op = build_fbmpk_operator(matrices["grid"], strategy=strategy,
                                      block_size=BLOCK, executor="threads",
                                      n_threads=1)
            fw, bw = op.block_phases()
            assert check_phases(op.part.lower, fw)
            assert check_phases(op.part.upper, bw)
            op.close()

    def test_check_phases_rejects_gap(self, matrices):
        part = split_ldu(matrices["grid"])
        n = part.n
        phases = [Phase(0, [BlockTask(0, n - 1, 0)])]  # last row missing
        assert not check_phases(part.lower, phases)

    def test_check_phases_rejects_overlap(self, matrices):
        part = split_ldu(matrices["grid"])
        n = part.n
        phases = [Phase(0, [BlockTask(0, n, 0), BlockTask(n - 1, n, 0)])]
        assert not check_phases(part.lower, phases)

    def test_check_phases_rejects_cross_task_dependency(self, matrices):
        """All rows in one phase, split into two tasks: any L entry
        crossing the split is a same-phase cross-task race."""
        part = split_ldu(matrices["grid"])
        n = part.n
        phases = [Phase(0, [BlockTask(0, n // 2, 0),
                            BlockTask(n // 2, n, 0)])]
        assert not check_phases(part.lower, phases)
        # As a single task the intra-task ordering handles it.
        assert check_phases(part.lower, [Phase(0, [BlockTask(0, n, 0)])])

    def test_invalid_plan_rejected_at_power_time(self, matrices):
        from repro.core import make_sweep_groups_levels

        part = split_ldu(matrices["grid"])
        groups = make_sweep_groups_levels(part)
        n = part.n
        bad_plan = ([Phase(0, [BlockTask(0, n // 2, 0),
                               BlockTask(n // 2, n, 0)])],
                    [Phase(0, [BlockTask(0, n, 0)])])
        op = FBMPKOperator(part, groups, executor="threads", n_threads=2,
                           phase_plan=bad_plan)
        with pytest.raises(ValueError, match="phases"):
            op.power(np.ones(n), 2)

    def test_phases_from_groups_runs(self, matrices):
        part = split_ldu(matrices["grid"])
        groups = [np.array([0, 1, 2, 5, 6]), np.array([3, 4]),
                  np.arange(7, part.n)]
        phases = phases_from_groups(part.lower, groups)
        assert [len(p.tasks) for p in phases] == [2, 1, 1]
        assert phases[0].tasks[0] == BlockTask(
            0, 3, int(part.lower.indptr[3]))
        total = sum(t.rows for p in phases for t in p.tasks)
        assert total == part.n
