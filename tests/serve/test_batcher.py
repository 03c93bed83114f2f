"""Batching-queue behaviour: gather-window batching, seal-on-idle,
early sealing at ``max_batch``, admission control, the
unbatchable-operator fallback, drain semantics, and the aliasing audit
— batched responses must never share memory with the gather/result
buffers."""

import asyncio
import threading

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.serve import (
    Batcher,
    QueueFullError,
    ResidentOperator,
    ServeConfig,
    ServiceClosedError,
    split_block,
)
from repro.serve.spec import MatrixSpec

SPEC = MatrixSpec(standin="cant", rows=250, seed=0)


def make_entry(strategy="abmc", spec=SPEC):
    a = spec.load()
    op = build_fbmpk_operator(a, strategy=strategy)
    return ResidentOperator(spec, op, "00", "build")


def make_batcher(**over):
    over.setdefault("tune", "off")
    over.setdefault("gather_window_s", 0.02)
    return Batcher(ServeConfig(**over).validate())


def vectors(n, m, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(n) for _ in range(m)]


def reference(entry, xs, k):
    return [entry.op.power(x.copy(), k) for x in xs]


def run(coro):
    return asyncio.run(coro)


# -- batching --------------------------------------------------------------
def test_concurrent_submits_share_one_batch():
    async def main():
        entry = make_entry()
        b = make_batcher()
        xs = vectors(entry.n, 5)
        results = await asyncio.gather(
            *[b.submit(entry, x, 3) for x in xs])
        widths = {w for _, w in results}
        assert widths == {5}            # one sweep served all five
        for (y, _), ref in zip(results, reference(entry, xs, 3)):
            assert np.array_equal(y, ref)
        await b.drain()
        entry._close_op()

    run(main())


def test_different_k_never_share_a_batch():
    async def main():
        entry = make_entry()
        b = make_batcher()
        x = vectors(entry.n, 1)[0]
        (y3, w3), (y4, w4) = await asyncio.gather(
            b.submit(entry, x, 3), b.submit(entry, x, 4))
        assert (w3, w4) == (1, 1)
        assert np.array_equal(y3, entry.op.power(x.copy(), 3))
        assert np.array_equal(y4, entry.op.power(x.copy(), 4))
        await b.drain()
        entry._close_op()

    run(main())


def test_max_batch_seals_early():
    async def main():
        entry = make_entry()
        b = make_batcher(max_batch=2, gather_window_s=5.0)
        xs = vectors(entry.n, 4)
        # The window is far too long to fire in-test: only the
        # max_batch early seal can complete these.
        results = await asyncio.wait_for(
            asyncio.gather(*[b.submit(entry, x, 2) for x in xs]),
            timeout=10)
        assert [w for _, w in results] == [2, 2, 2, 2]
        await b.drain()
        entry._close_op()

    run(main())


# -- seal on idle (default window) ----------------------------------------
class Gate:
    """Holds every ``power_block`` sweep of an entry until released, and
    records the width of each."""

    def __init__(self, entry):
        self.release = threading.Event()
        self.widths = []
        inner = entry.op.power_block

        def power_block(X, k, **kw):
            self.widths.append(X.shape[1])
            assert self.release.wait(30), "gate never released"
            return inner(X, k, **kw)

        entry.op.power_block = power_block


async def until(cond, timeout=10.0):
    loop = asyncio.get_running_loop()
    t_end = loop.time() + timeout
    while not cond():
        assert loop.time() < t_end, "condition never held"
        await asyncio.sleep(0.001)


def gated_setup():
    entry = make_entry()
    gate = Gate(entry)
    b = Batcher(ServeConfig(tune="off").validate())
    assert b.config.gather_window_s == 0
    return entry, gate, b


def test_lone_request_on_idle_operator_is_sealed_at_once():
    async def main():
        entry, gate, b = gated_setup()
        xs = vectors(entry.n, 2)
        try:
            t1 = asyncio.ensure_future(b.submit(entry, xs[0], 3))
            # Sealed and running before a second request exists.
            await until(lambda: gate.widths == [1])
            assert (b.pending, b.inflight_batches) == (0, 1)
            gate.release.set()
            y1, w1 = await asyncio.wait_for(t1, timeout=30)
            y2, w2 = await asyncio.wait_for(
                b.submit(entry, xs[1], 3), timeout=30)
        finally:
            gate.release.set()
        assert (w1, w2) == (1, 1)
        for y, ref in zip((y1, y2), reference(entry, xs, 3)):
            assert np.array_equal(y, ref)
        await b.drain()
        entry._close_op()

    run(main())


def test_requests_arriving_while_busy_seal_as_one_batch_on_completion():
    async def main():
        entry, gate, b = gated_setup()
        xs = vectors(entry.n, 4)
        try:
            first = asyncio.ensure_future(b.submit(entry, xs[0], 3))
            await until(lambda: gate.widths == [1])
            rest = [asyncio.ensure_future(b.submit(entry, x, 3))
                    for x in xs[1:]]
            await until(lambda: b.pending == 3)
            gate.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *rest), timeout=30)
        finally:
            gate.release.set()
        assert gate.widths == [1, 3]
        assert [w for _, w in results] == [1, 3, 3, 3]
        for (y, _), ref in zip(results, reference(entry, xs, 3)):
            assert np.array_equal(y, ref)
        await b.drain()
        entry._close_op()

    run(main())


def test_window_expiring_while_busy_does_not_seal_a_second_batch():
    async def main():
        entry, gate, b = gated_setup()
        xs = vectors(entry.n, 3)
        try:
            first = asyncio.ensure_future(b.submit(entry, xs[0], 3))
            await until(lambda: gate.widths == [1])
            rest = [asyncio.ensure_future(b.submit(entry, x, 3))
                    for x in xs[1:]]
            # Far past the (zero) window, but the operator is busy.
            await asyncio.sleep(0.05)
            assert (b.pending, b.inflight_batches) == (2, 1)
            assert gate.widths == [1]
            gate.release.set()
            await asyncio.wait_for(asyncio.gather(first, *rest),
                                   timeout=30)
        finally:
            gate.release.set()
        assert gate.widths == [1, 2]
        await b.drain()
        entry._close_op()

    run(main())


def test_drain_seals_queues_waiting_on_a_busy_operator():
    async def main():
        entry, gate, b = gated_setup()
        xs = vectors(entry.n, 3)
        try:
            first = asyncio.ensure_future(b.submit(entry, xs[0], 3))
            await until(lambda: gate.widths == [1])
            rest = [asyncio.ensure_future(b.submit(entry, x, 3))
                    for x in xs[1:]]
            await until(lambda: b.pending == 2)
            drain = asyncio.ensure_future(b.drain())
            await until(lambda: b.pending == 0)
            assert b.inflight_batches == 2
            gate.release.set()
            results = await asyncio.wait_for(
                asyncio.gather(first, *rest), timeout=30)
            await asyncio.wait_for(drain, timeout=30)
        finally:
            gate.release.set()
        assert [w for _, w in results] == [1, 2, 2]
        for (y, _), ref in zip(results, reference(entry, xs, 3)):
            assert np.array_equal(y, ref)
        assert (b.pending, b.inflight_batches) == (0, 0)
        entry._close_op()

    run(main())


# -- admission control -----------------------------------------------------
def test_queue_full_rejection():
    async def main():
        entry = make_entry()
        b = make_batcher(max_queue=2, gather_window_s=0.2)
        xs = vectors(entry.n, 4)
        results = await asyncio.gather(
            *[b.submit(entry, x, 2) for x in xs],
            return_exceptions=True)
        rejected = [r for r in results
                    if isinstance(r, QueueFullError)]
        served = [r for r in results if isinstance(r, tuple)]
        assert len(rejected) == 2
        assert len(served) == 2
        await b.drain()
        entry._close_op()

    run(main())


def test_global_pending_cap():
    async def main():
        entry = make_entry()
        b = make_batcher(max_pending=3, max_queue=100,
                         gather_window_s=0.2)
        xs = vectors(entry.n, 6)
        # Spread across two k values so no single queue hits max_queue.
        results = await asyncio.gather(
            *[b.submit(entry, x, 2 + (i % 2)) for i, x in enumerate(xs)],
            return_exceptions=True)
        rejected = [r for r in results if isinstance(r, QueueFullError)]
        assert len(rejected) == 3
        await b.drain()
        entry._close_op()

    run(main())


# -- unbatchable fallback --------------------------------------------------
def test_unbatchable_entry_served_per_request():
    from repro.core.partition import split_ldu
    from repro.tune.registry import UnfusedPowerOperator

    async def main():
        op = UnfusedPowerOperator(split_ldu(SPEC.load()))  # no power_block
        entry = ResidentOperator(SPEC, op, "00", "build")
        assert not entry.can_batch
        b = make_batcher()
        xs = vectors(entry.n, 3)
        results = await asyncio.gather(
            *[b.submit(entry, x, 3) for x in xs])
        # Still gathered (the queue machinery is shared) but computed
        # per-request with `power`, so results match that path exactly.
        for (y, _), ref in zip(results, reference(entry, xs, 3)):
            assert np.array_equal(y, ref)
        await b.drain()
        entry._close_op()

    run(main())


# -- failure and cancellation ----------------------------------------------
def test_nan_input_fails_batch_with_non_finite():
    async def main():
        entry = make_entry()
        b = make_batcher()
        bad = np.full(entry.n, np.nan)
        with pytest.raises(Exception) as exc_info:
            await b.submit(entry, bad, 3)
        assert getattr(exc_info.value, "code", None) == "non_finite"
        await b.drain()
        entry._close_op()

    run(main())


def test_cancelled_request_drops_out_of_batch():
    async def main():
        entry = make_entry()
        b = make_batcher(gather_window_s=0.1)
        xs = vectors(entry.n, 2)
        t_keep = asyncio.ensure_future(b.submit(entry, xs[0], 3))
        t_drop = asyncio.ensure_future(b.submit(entry, xs[1], 3))
        await asyncio.sleep(0.01)       # both queued, window open
        t_drop.cancel()
        y, width = await t_keep
        assert width == 1               # the cancelled slot was dropped
        assert np.array_equal(y, entry.op.power(xs[0].copy(), 3))
        with pytest.raises(asyncio.CancelledError):
            await t_drop
        await b.drain()
        entry._close_op()

    run(main())


# -- drain -----------------------------------------------------------------
def test_drain_rejects_new_and_flushes_queued():
    async def main():
        entry = make_entry()
        b = make_batcher(gather_window_s=30.0)   # would never self-fire
        x = vectors(entry.n, 1)[0]
        t = asyncio.ensure_future(b.submit(entry, x, 2))
        await asyncio.sleep(0.01)
        await b.drain()                  # seals the open queue
        y, _ = await t
        assert np.array_equal(y, entry.op.power(x.copy(), 2))
        with pytest.raises(ServiceClosedError):
            await b.submit(entry, x, 2)
        assert b.pending == 0
        assert b.inflight_batches == 0
        entry._close_op()

    run(main())


# -- aliasing audit --------------------------------------------------------
def test_split_block_returns_owned_copies():
    Y = np.arange(12.0).reshape(3, 4)
    cols = split_block(Y)
    for j, y in enumerate(cols):
        assert y.base is None                       # owns its data
        assert not np.shares_memory(y, Y)
        assert np.array_equal(y, Y[:, j])
    # Width-1 blocks are the trap: a "contiguous view" would alias.
    one = split_block(np.arange(3.0).reshape(3, 1))[0]
    assert one.base is None


def test_batched_outputs_never_alias_gather_or_block_buffers():
    async def main():
        entry = make_entry()
        b = make_batcher(debug_keep_last=True)
        xs = vectors(entry.n, 4)
        results = await asyncio.gather(
            *[b.submit(entry, x, 3) for x in xs])
        assert b.last_gather is not None
        assert b.last_block is not None
        for y, _ in results:
            assert y.base is None
            assert not np.shares_memory(y, b.last_gather)
            assert not np.shares_memory(y, b.last_block)
            # Nor the operator's persistent interleaved block buffer.
            blk = getattr(entry.op, "_blk_buf", None)
            if blk is not None:
                assert not np.shares_memory(y, blk)
        # Mutating the shared buffers after the fact cannot corrupt
        # responses already handed out.
        snapshot = [y.copy() for y, _ in results]
        b.last_block[:] = -1.0
        b.last_gather[:] = -1.0
        for (y, _), snap in zip(results, snapshot):
            assert np.array_equal(y, snap)
        await b.drain()
        entry._close_op()

    run(main())


def test_sequential_batches_do_not_corrupt_prior_responses():
    async def main():
        entry = make_entry()
        b = make_batcher()
        xs1 = vectors(entry.n, 3, seed=1)
        first = await asyncio.gather(
            *[b.submit(entry, x, 4) for x in xs1])
        snapshot = [y.copy() for y, _ in first]
        # A second batch reuses the operator's internal buffers.
        xs2 = vectors(entry.n, 3, seed=2)
        await asyncio.gather(*[b.submit(entry, x, 4) for x in xs2])
        for (y, _), snap in zip(first, snapshot):
            assert np.array_equal(y, snap)
        await b.drain()
        entry._close_op()

    run(main())
