"""Operator-registry behaviour: build-once under racing first requests,
LRU eviction bounded by ``max_resident``, and refcounted eviction that
never closes an operator with requests still in flight."""

import asyncio
import threading

import pytest

from repro.core.fbmpk import FBMPKOperator
from repro.serve import (
    OperatorRegistry,
    ResidentOperator,
    ServeConfig,
    ServiceClosedError,
)
from repro.serve.spec import MatrixSpec

SPEC_A = MatrixSpec(standin="cant", rows=300, seed=0)
SPEC_B = MatrixSpec(standin="cant", rows=300, seed=1)
SPEC_C = MatrixSpec(standin="cant", rows=300, seed=2)


def make_registry(**over):
    over.setdefault("tune", "off")
    return OperatorRegistry(ServeConfig(**over).validate())


def run(coro):
    return asyncio.run(coro)


# -- build and hit ---------------------------------------------------------
def test_first_acquire_builds_then_hits():
    async def main():
        reg = make_registry()
        e1 = await reg.acquire(SPEC_A)
        assert isinstance(e1.op, FBMPKOperator)
        assert e1.source == "build"
        assert e1.can_batch          # every FBMPK operator batches
        assert reg.residents == 1
        e2 = await reg.acquire(SPEC_A)
        assert e2 is e1
        assert e1.refs == 2
        reg.release(e1)
        reg.release(e2)
        assert e1.refs == 0
        reg.close()
        assert e1.closed

    run(main())


def test_concurrent_first_requests_build_exactly_once():
    async def main():
        reg = make_registry()
        builds = []
        build_lock = threading.Lock()
        orig_build = reg._build

        def counting_build(spec):
            with build_lock:
                builds.append(spec.key())
            return orig_build(spec)

        reg._build = counting_build
        entries = await asyncio.gather(
            *[reg.acquire(SPEC_A) for _ in range(8)])
        assert len(builds) == 1
        assert all(e is entries[0] for e in entries)
        assert entries[0].refs == 8
        for e in entries:
            reg.release(e)
        reg.close()

    run(main())


def test_build_failure_maps_to_protocol_error():
    from repro.serve import ProtocolError

    async def main():
        reg = make_registry(allow_paths=True)
        with pytest.raises(ProtocolError) as exc_info:
            await reg.acquire(MatrixSpec(path="/no/such/file.mtx"))
        assert exc_info.value.code == "bad_request"
        assert reg.residents == 0
        # A failed build leaves no poisoned state: retrying still works
        # (with a spec that exists this time).
        entry = await reg.acquire(SPEC_A)
        reg.release(entry)
        reg.close()

    run(main())


# -- LRU eviction ----------------------------------------------------------
def test_lru_eviction_closes_idle_operator():
    async def main():
        reg = make_registry(max_resident=2)
        ea = await reg.acquire(SPEC_A)
        reg.release(ea)
        eb = await reg.acquire(SPEC_B)
        reg.release(eb)
        # Touch A so B is now the least recently used.
        ea2 = await reg.acquire(SPEC_A)
        reg.release(ea2)
        ec = await reg.acquire(SPEC_C)
        reg.release(ec)
        assert reg.residents == 2
        assert eb.evicted and eb.closed
        assert not ea.evicted
        reg.close()

    run(main())


def test_eviction_defers_close_while_borrowed():
    async def main():
        reg = make_registry(max_resident=1)
        ea = await reg.acquire(SPEC_A)      # borrowed, not released
        eb = await reg.acquire(SPEC_B)      # evicts A
        assert ea.evicted
        assert not ea.closed                # still in flight
        assert ea.op.power is not None      # usable until released
        reg.release(ea)
        assert ea.closed                    # last borrower returned it
        reg.release(eb)
        reg.close()

    run(main())


def test_request_after_eviction_rebuilds():
    async def main():
        reg = make_registry(max_resident=1)
        ea = await reg.acquire(SPEC_A)
        reg.release(ea)
        eb = await reg.acquire(SPEC_B)
        reg.release(eb)
        ea2 = await reg.acquire(SPEC_A)
        assert ea2 is not ea                # fresh instance, old one gone
        reg.release(ea2)
        reg.close()

    run(main())


# -- can_batch gate --------------------------------------------------------
def test_can_batch_requires_numpy_fbmpk():
    """Only an FBMPK operator (with ``power_block``) is batched."""
    class FakeOp:
        n = 4

    entry = ResidentOperator(SPEC_A, FakeOp(), "00", "build")
    assert not entry.can_batch          # not an FBMPKOperator


def test_every_fbmpk_operator_is_batchable():
    """ABMC at any block size, levels and levels-blocked all batch; the
    unfused operator has no ``power_block`` and is served per
    request."""
    from repro.core import build_fbmpk_operator
    from repro.core.partition import split_ldu
    from repro.tune.registry import UnfusedPowerOperator

    a = SPEC_A.load()
    for strategy, block_size in (("abmc", 1), ("abmc", 256), ("levels", 1),
                                 ("levels-blocked", 256)):
        op = build_fbmpk_operator(a, strategy=strategy,
                                  block_size=block_size)
        try:
            entry = ResidentOperator(SPEC_A, op, "00", "build")
            assert entry.can_batch, strategy
        finally:
            op.close()
    entry = ResidentOperator(SPEC_A, UnfusedPowerOperator(split_ldu(a)),
                             "00", "build")
    assert not entry.can_batch


# -- lifecycle -------------------------------------------------------------
def test_closed_registry_rejects_acquire():
    async def main():
        reg = make_registry()
        reg.close()
        with pytest.raises(ServiceClosedError):
            await reg.acquire(SPEC_A)

    run(main())


def test_tune_full_uses_plan_cache(tmp_path):
    async def main():
        cfg = ServeConfig(tune="full", tune_repeats=1,
                          tune_max_candidates=1,
                          plan_cache_dir=str(tmp_path)).validate()
        reg = OperatorRegistry(cfg)
        e1 = await reg.acquire(SPEC_A)
        assert e1.source == "search"    # first ever: pays the search
        assert e1.can_batch             # tuned winners stay batchable
        reg.release(e1)
        reg.evict(SPEC_A)
        e2 = await reg.acquire(SPEC_A)
        assert e2.source == "cache"     # warm structure: plan-cache hit
        reg.release(e2)
        reg.close()

    run(main())
