"""Dispatch primitives behind the batched phase executors.

Three contracts, each tested in isolation from the sweeps they drive:

* **Cursor atomicity** — chunked claims from :class:`ThreadCursor`
  (8 threads) and :class:`SharedCursor` (8 processes over a real
  shared-memory control slab) partition ``[0, n_blocks)`` exactly: the
  claimed ranges are disjoint, contiguous, and sum to ``n_blocks`` —
  no descriptor is ever double-claimed or dropped.
* **Completion-counter barrier** — the last arrival (and only the
  last) sets the event; a poisoned lock is reported, not blocked on;
  a worker SIGKILL'd mid-phase (between claim and arrival) still
  closes the barrier through the dispatcher's liveness scan and
  surfaces as the ordinary dead-worker failure.
* **Order preservation** — the batched descriptor order is a
  permutation of the legacy per-block dispatch order within each
  colour, for every assignment policy (hypothesis property).
"""

import multiprocessing as mp
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FBMPKOperator, build_fbmpk_operator, kernels
from repro.core.partition import split_ldu
from repro.matrices import poisson2d
from repro.sparse import CSRMatrix
from repro.parallel import (
    BlockTask,
    CompletionBarrier,
    DescriptorBatch,
    ExecutionStats,
    Phase,
    PhaseExecutionError,
    ProcessPhaseExecutor,
    SharedArena,
    SharedCursor,
    ThreadCursor,
    default_claim_chunk,
    pin_worker,
)
from repro.parallel.dispatch import CTRL_CURSOR, CTRL_SLOTS, ordered_tasks
from repro.parallel.procexec import SHM_PREFIX, _AttachedSegments
from repro.parallel.scheduler import assign_tasks

from ..oracle import reference_block, reference_power

POLICIES = ["round_robin", "lpt", "dynamic"]


def _ctx():
    return mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                          else "spawn")


def shm_residue():
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SHM_PREFIX)}
    except FileNotFoundError:  # non-Linux
        return set()


@pytest.fixture
def shm_leaked():
    base = shm_residue()
    return lambda: shm_residue() - base


# -- descriptor packing ----------------------------------------------------
def _phases():
    return [
        Phase(color=0, tasks=[BlockTask(0, 4, 10), BlockTask(4, 8, 30),
                              BlockTask(8, 12, 20)]),
        Phase(color=1, tasks=[BlockTask(12, 16, 5)]),
        Phase(color=0, tasks=[]),
    ]


def test_ordered_tasks_policies():
    tasks = [BlockTask(0, 1, 10), BlockTask(1, 2, 30), BlockTask(2, 3, 30),
             BlockTask(3, 4, 20)]
    # lpt: largest first, stable among equals (the 30s keep their order).
    assert ordered_tasks(tasks, "lpt") == [tasks[1], tasks[2], tasks[3],
                                           tasks[0]]
    assert ordered_tasks(tasks, "round_robin") == tasks
    assert ordered_tasks(tasks, "dynamic") == tasks
    with pytest.raises(ValueError, match="policy"):
        ordered_tasks(tasks, "sideways")


def test_descriptor_batch_layout():
    phases = _phases()
    batch = DescriptorBatch.from_phases(phases, "round_robin")
    assert batch.n_phases == 3
    assert batch.n_blocks == 4
    assert batch.phase_range(0) == (0, 3)
    assert batch.phase_range(1) == (3, 4)
    assert batch.phase_range(2) == (4, 4)  # empty phase: zero-width range
    assert batch.phase_nnz(0) == 60
    assert [batch.phase_color(p) for p in range(3)] == [0, 1, 0]
    rows = batch.pack_rows()
    assert rows.shape == (2, 4) and rows.dtype == np.int64
    np.testing.assert_array_equal(rows[0], [0, 4, 8, 12])
    np.testing.assert_array_equal(rows[1], [4, 8, 12, 16])


def test_descriptor_batch_chained_flags():
    """Packed against a triangle, a block is flagged chained when one of
    its rows reads another row of the same block; the flags ride in the
    plan table as row 3 (row 2, the op tags, is -1 for colour sweeps)."""
    part = split_ldu(poisson2d(4, seed=0))  # row i reads i-1 and i-4
    phases = [Phase(color=0, tasks=[BlockTask(0, 1, 0), BlockTask(1, 4, 0),
                                    BlockTask(4, 5, 0), BlockTask(5, 16, 0)])]
    for tri in (part.lower, part.upper):
        batch = DescriptorBatch.from_phases(phases, "round_robin", tri)
        np.testing.assert_array_equal(batch.chained,
                                      [False, True, False, True])
        rows = batch.pack_rows()
        assert rows.shape == (4, 4) and rows.dtype == np.int64
        np.testing.assert_array_equal(rows[2], [-1, -1, -1, -1])
        np.testing.assert_array_equal(rows[3], [0, 1, 0, 1])
    assert DescriptorBatch.from_phases(phases).chained is None


def test_coalesced_merges_runs_into_balanced_ranges():
    """Contiguous same-phase blocks merge into ranges cut at block
    boundaries (or between independent rows), near equal-work points; a
    gap between runs is always a cut; chained flags are recomputed on
    the merged ranges."""
    part = split_ldu(poisson2d(4, seed=0))  # row i reads i-1 and i-4
    one_row = [BlockTask(i, i + 1, 1) for i in range(8)]
    phases = [Phase(color=0, tasks=one_row),
              Phase(color=1, tasks=[BlockTask(8, 10, 1),
                                    BlockTask(12, 16, 1)]),
              Phase(color=2, tasks=[])]
    batch = DescriptorBatch.from_phases(phases, "round_robin")
    one = batch.coalesced(1, part.lower)
    np.testing.assert_array_equal(one.phase_ptr, [0, 1, 3, 3])
    np.testing.assert_array_equal(one.starts, [0, 8, 12])
    np.testing.assert_array_equal(one.stops, [8, 10, 16])
    np.testing.assert_array_equal(one.nnz, [8, 1, 1])
    np.testing.assert_array_equal(one.chained, [True, True, True])
    np.testing.assert_array_equal(one.colors, [0, 1, 2])
    two = batch.coalesced(2, part.lower)
    np.testing.assert_array_equal(two.phase_ptr, [0, 2, 4, 4])
    np.testing.assert_array_equal(two.starts, [0, 4, 8, 12])
    np.testing.assert_array_equal(two.stops, [4, 8, 10, 16])
    # A block whose rows depend on each other is never split ...
    wide = DescriptorBatch.from_phases(
        [Phase(color=0, tasks=[BlockTask(0, 16, 40)])])
    chained = wide.coalesced(4, part.lower)
    np.testing.assert_array_equal(chained.starts, [0])
    np.testing.assert_array_equal(chained.stops, [16])
    # ... but one whose rows are independent is cut between rows.
    diagonal = split_ldu(CSRMatrix.from_dense(np.eye(16))).lower
    free = wide.coalesced(4, diagonal)
    np.testing.assert_array_equal(free.phase_ptr, [0, 4])
    np.testing.assert_array_equal(free.starts, [0, 4, 8, 12])
    np.testing.assert_array_equal(free.stops, [4, 8, 12, 16])
    np.testing.assert_array_equal(free.chained, [False] * 4)
    np.testing.assert_array_equal(wide.coalesced(1, diagonal).stops, [16])
    with pytest.raises(ValueError, match="n_parts"):
        batch.coalesced(0, part.lower)


@settings(deadline=None, max_examples=60)
@given(
    sizes=st.lists(st.lists(st.integers(1, 6), min_size=0, max_size=12),
                   min_size=1, max_size=4),
    gaps=st.lists(st.booleans(), min_size=48, max_size=48),
    policy=st.sampled_from(POLICIES),
    n_parts=st.integers(1, 5),
)
def test_coalesced_covers_the_same_rows(sizes, gaps, policy, n_parts):
    """Each phase of a coalesced batch covers exactly its blocks' rows,
    every range is a union of whole blocks and rows of blocks whose rows
    are independent, and a phase of ``r`` contiguous runs of blocks gets
    at most ``r + n_parts - 1`` ranges."""
    phases, row, flag = [], 0, iter(gaps)
    for ci, widths in enumerate(sizes):
        tasks = []
        for w in widths:
            row += next(flag)  # an optional one-row gap breaks the run
            tasks.append(BlockTask(row, row + w, w))
            row += w
        phases.append(Phase(color=ci, tasks=tasks))
    tri = split_ldu(poisson2d(19, seed=1)).lower  # 361 rows >= 4 * 12 * 7
    batch = DescriptorBatch.from_phases(phases, policy).coalesced(n_parts,
                                                                  tri)
    for pi, phase in enumerate(phases):
        lo, hi = batch.phase_range(pi)
        got = [(int(batch.starts[g]), int(batch.stops[g]))
               for g in range(lo, hi)]
        rows = sorted(r for s, e in got for r in range(s, e))
        assert rows == sorted(r for t in phase.tasks
                              for r in range(t.start, t.stop))
        edges = {t.start for t in phase.tasks} | {t.stop
                                                  for t in phase.tasks}
        for t in phase.tasks:
            if not kernels.chained_ranges(tri.indptr, tri.indices,
                                          np.array([t.start]),
                                          np.array([t.stop]))[0]:
                edges.update(range(t.start, t.stop))
        assert all(s in edges and e in edges for s, e in got)
        runs = sum(1 for i, t in enumerate(phase.tasks)
                   if i == 0 or t.start != phase.tasks[i - 1].stop)
        assert hi - lo <= runs + n_parts - 1
    np.testing.assert_array_equal(
        batch.chained, kernels.chained_ranges(tri.indptr, tri.indices,
                                              batch.starts, batch.stops))


@pytest.mark.parametrize("block_size", [1, 256])
@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_parallel_sweeps_dispatch_one_range_per_worker(block_size,
                                                       executor):
    """An ABMC colour is one contiguous run, so a parallel sweep hands
    each of its phases to the workers as at most one range per worker
    (about one kernel call each), and the serial sweeps make one call
    per colour.  Results stay bitwise equal to Algorithm 2."""
    a = poisson2d(24, seed=3)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(a.n_rows)
    X = rng.standard_normal((a.n_rows, 3))
    with build_fbmpk_operator(a, block_size=block_size, executor=executor,
                              n_threads=2) as op:
        for k in (4, 5):
            np.testing.assert_array_equal(op.power(x, k),
                                          reference_power(op, x, k))
            stats = op.last_stats
            assert stats.phases and all(p.n_tasks <= 2
                                        for p in stats.phases)
        np.testing.assert_array_equal(op.power_block(X, 4),
                                      reference_block(op, X, 4))
        fw, bw = op.block_phases()
        for batch, phases in zip(op._descriptor_batches(2), (fw, bw)):
            assert np.diff(batch.phase_ptr).max() <= 2
            assert batch.n_phases == len(phases)
        for segments, phases in zip(op._serial_segments(), (fw, bw)):
            assert len(segments) == sum(1 for p in phases if p.tasks)


@pytest.mark.parametrize("executor", ["threads", "processes"])
def test_loaded_operator_dispatches_like_built(executor, tmp_path):
    """A saved one-row-block ABMC operator comes back with one phase per
    colour (from its sweep groups); its colours' rows are independent,
    so each phase is still cut into one range per worker, as the built
    operator's one-row blocks are, and the bits stay Algorithm 2's."""
    a = poisson2d(24, seed=3)
    x = np.random.default_rng(5).standard_normal(a.n_rows)
    build_fbmpk_operator(a).save(tmp_path / "op.npz")
    ranges = []
    for op in (build_fbmpk_operator(a, executor=executor, n_threads=2),
               FBMPKOperator.load(tmp_path / "op.npz", executor=executor,
                                  n_threads=2)):
        with op:
            np.testing.assert_array_equal(op.power(x, 4),
                                          reference_power(op, x, 4))
            ranges.append([p.n_tasks for p in op.last_stats.phases])
    assert ranges[0] == ranges[1]
    assert max(ranges[1]) == 2


@settings(deadline=None, max_examples=60)
@given(
    raw=st.lists(
        st.lists(st.tuples(st.integers(0, 512), st.integers(1, 64),
                           st.integers(0, 1 << 20)),
                 min_size=0, max_size=10),
        min_size=1, max_size=5),
    policy=st.sampled_from(POLICIES),
    n_workers=st.integers(1, 8),
)
def test_batched_order_is_permutation_of_legacy(raw, policy, n_workers):
    """Within each colour, the descriptor slice holds exactly the blocks
    the legacy per-bin dispatch would have shipped — a permutation,
    never a leak across phase boundaries."""
    phases = [Phase(color=ci,
                    tasks=[BlockTask(s, s + r, z) for s, r, z in spec])
              for ci, spec in enumerate(raw)]
    batch = DescriptorBatch.from_phases(phases, policy)
    assert batch.n_phases == len(phases)
    assert batch.n_blocks == sum(len(p.tasks) for p in phases)
    for pi, phase in enumerate(phases):
        lo, hi = batch.phase_range(pi)
        assert hi - lo == len(phase.tasks)
        got = sorted((int(batch.starts[g]), int(batch.stops[g]),
                      int(batch.nnz[g])) for g in range(lo, hi))
        legacy = sorted((t.start, t.stop, t.nnz)
                        for bin_ in assign_tasks(phase.tasks, n_workers,
                                                 policy)
                        for t in bin_)
        assert got == legacy
        assert batch.phase_color(pi) == phase.color


def test_default_claim_chunk():
    assert default_claim_chunk(0, 4) == 1
    assert default_claim_chunk(3, 4) == 1
    assert default_claim_chunk(320, 4) == 20
    with pytest.raises(ValueError, match="positive"):
        default_claim_chunk(16, 0)


# -- cursors ---------------------------------------------------------------
def _check_partition(claims, n_blocks, chunk):
    """Claimed ranges must tile [0, n_blocks) exactly, in cursor order,
    each at most one chunk wide."""
    claims = sorted(claims)
    assert sum(hi - lo for lo, hi in claims) == n_blocks
    pos = 0
    for lo, hi in claims:
        assert lo == pos, f"gap or double-claim at {pos}: got {lo}"
        assert 0 < hi - lo <= chunk
        pos = hi
    assert pos == n_blocks


def test_thread_cursor_chunk_semantics():
    cur = ThreadCursor(0)
    assert cur.claim(5, 3) == (0, 3)
    assert cur.claim(5, 3) == (3, 5)  # truncated at hi
    assert cur.claim(5, 3) == (5, 5)  # drained: empty range
    cur.reset(2)
    assert cur.claim(5, 10) == (2, 5)


def test_thread_cursor_eight_way_hammer():
    import threading

    n_blocks, chunk = 997, 3
    cur = ThreadCursor(0)
    claims = [[] for _ in range(8)]

    def worker(wid):
        while True:
            lo, hi = cur.claim(n_blocks, chunk)
            if lo >= hi:
                return
            claims[wid].append((lo, hi))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    _check_partition([c for per in claims for c in per], n_blocks, chunk)


def _hammer_main(spec, lock, n_blocks, chunk, start, outq, wid):
    seg = _AttachedSegments({"ctrl": spec})
    cursor = SharedCursor(seg.view("ctrl"), lock)
    start.wait()
    claims = []
    while True:
        lo, hi = cursor.claim(n_blocks, chunk)
        if lo >= hi:
            break
        claims.append((lo, hi))
    outq.put((wid, claims))
    seg.close()


def test_shared_cursor_eight_way_hammer(shm_leaked):
    """Eight processes hammer one shared-memory cursor: every descriptor
    index is claimed exactly once and the chunk bound holds."""
    ctx = _ctx()
    arena = SharedArena()
    arena.add("ctrl", np.zeros(CTRL_SLOTS, dtype=np.int64))
    lock, start, outq = ctx.Lock(), ctx.Event(), ctx.Queue()
    n_blocks, chunk = 1000, 7
    procs = [ctx.Process(target=_hammer_main,
                         args=(arena.spec["ctrl"], lock, n_blocks, chunk,
                               start, outq, i), daemon=True)
             for i in range(8)]
    for p in procs:
        p.start()
    start.set()
    results = [outq.get(timeout=60) for _ in range(8)]
    for p in procs:
        p.join(10)
    arena.close()
    assert shm_leaked() == set()
    assert sorted(wid for wid, _ in results) == list(range(8))
    _check_partition([c for _, claims in results for c in claims],
                     n_blocks, chunk)


def test_shared_cursor_reset_rearms():
    arena = SharedArena()
    ctrl = arena.add("ctrl", np.zeros(CTRL_SLOTS, dtype=np.int64))
    cur = SharedCursor(ctrl, mp.get_context().Lock())
    assert cur.claim(4, 8) == (0, 4)
    assert cur.claim(4, 8) == (4, 4)
    cur.reset(1)
    assert int(ctrl[CTRL_CURSOR]) == 1
    assert cur.claim(4, 8) == (1, 4)
    arena.close()


# -- completion barrier ----------------------------------------------------
def test_completion_barrier_last_arrival_sets_event():
    ctx = _ctx()
    ctrl = np.zeros(CTRL_SLOTS, dtype=np.int64)
    bar = CompletionBarrier(ctrl, ctx.Lock(), ctx.Event())
    bar.arm(3)
    assert bar.remaining() == 3
    assert not bar.wait(0)
    assert bar.arrive() and not bar.wait(0)
    assert bar.arrive() and not bar.wait(0)
    assert bar.arrive() and bar.wait(0)
    assert bar.remaining() == 0
    bar.arm(1)  # re-arm clears the event for the next phase
    assert not bar.wait(0)


def test_completion_barrier_poisoned_lock_reports_not_blocks():
    ctx = _ctx()
    lock = ctx.Lock()
    bar = CompletionBarrier(np.zeros(CTRL_SLOTS, dtype=np.int64), lock,
                            ctx.Event())
    bar.arm(1)
    lock.acquire()  # simulate a worker SIGKILL'd inside the section
    assert bar.arrive(timeout=0.05) is False
    assert bar.remaining() == 1  # the failed arrival must not decrement
    lock.release()
    assert bar.arrive(timeout=0.05) is True
    assert bar.wait(0)


def _hook_suicide(**kw):
    os.kill(os.getpid(), signal.SIGKILL)


def test_sigkill_mid_phase_trips_liveness_scan(shm_leaked):
    """A worker SIGKILL'd between claiming a descriptor and arriving at
    the barrier never decrements the completion counter; the
    dispatcher's watchdog/liveness scan must arrive on its behalf and
    fail the phase instead of hanging on the event."""
    a = poisson2d(8, seed=2)
    part = split_ldu(a)
    n = part.n
    step = max(1, n // 8)
    tasks = [BlockTask(i, min(i + step, n), step)
             for i in range(0, n, step)]
    phases = [Phase(color=0, tasks=tasks)]
    with ProcessPhaseExecutor(part, n_workers=2,
                              task_hook=_hook_suicide) as ex:
        with pytest.raises(PhaseExecutionError, match="died"):
            ex.run_batched(ex.register_phases(phases, "forward"), "forward")
    assert shm_leaked() == set()


# -- batched accounting ----------------------------------------------------
def test_one_enqueue_per_phase_per_worker(shm_leaked):
    """The tentpole invariant: a sweep costs n_phases x n_workers
    enqueues — never one per block."""
    a = poisson2d(8, seed=2)
    part = split_ldu(a)
    n = part.n
    tasks = [BlockTask(i, min(i + 4, n), 4) for i in range(0, n, 4)]
    phases = [Phase(color=0, tasks=tasks)]
    stats = ExecutionStats(n_threads=2, policy="lpt")
    with ProcessPhaseExecutor(part, n_workers=2) as ex:
        ex.run_batched(ex.register_phases(phases, "forward"), "forward", stats)
    assert stats.enqueues == len(phases) * 2
    assert stats.enqueues < len(tasks)  # strictly below per-block cost
    # The default chunk: several claims per worker, to rebalance.
    assert default_claim_chunk(len(tasks), 2) == 2
    assert stats.steals == len(tasks) // 2
    assert stats.barriers == len(phases)
    assert shm_leaked() == set()


# -- pinning ---------------------------------------------------------------
def test_pin_worker_modes():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no affinity API")
    saved = os.sched_getaffinity(0)
    try:
        assert pin_worker(0, enable=False) is None
        if len(saved) < 2:
            # Auto mode must refuse to serialise a 1-CPU host.
            assert pin_worker(0, enable=None) is None
        cpu = pin_worker(1, enable=True)
        if cpu is not None:  # best-effort: syscall may be denied
            assert os.sched_getaffinity(0) == {cpu}
            assert cpu in saved
    finally:
        os.sched_setaffinity(0, saved)


def test_pin_worker_round_robin_is_deterministic():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("platform has no affinity API")
    saved = sorted(os.sched_getaffinity(0))
    try:
        first = pin_worker(0, enable=True)
        os.sched_setaffinity(0, set(saved))
        again = pin_worker(0, enable=True)
        assert first == again
        os.sched_setaffinity(0, set(saved))
        wrapped = pin_worker(len(saved), enable=True)
        assert wrapped == first  # slot wraps around the CPU list
    finally:
        os.sched_setaffinity(0, set(saved))
