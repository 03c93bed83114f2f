"""Chaos soak: a real TCP solve server under randomized fault
injection and worker signals.

Every round of the soak picks one chaos mode — injected raises and
delays on the event loop's request path, injected raises and bounded
hangs in the batch compute thread, SIGSTOP or SIGKILL of a live
process-pool worker — then fires a wave of concurrent requests at the
server over real sockets.  The resilience layer (watchdog + bounded
barriers + ``fallback_serial``) must turn every one of those failure
shapes into one of exactly two outcomes per request:

* an ``ok`` response whose vector is **bitwise identical** to the
  serial reference, or
* a structured error envelope with a code from ``ERROR_CODES``.

No request may hang without a terminal response, no worker process may
outlive the server, and no ``/dev/shm`` segment may leak."""

import asyncio
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.core import build_fbmpk_operator
from repro.parallel.procexec import SHM_PREFIX
from repro.robust.faults import (
    DelayFault,
    FaultInjector,
    HangFault,
    RaiseFault,
)
from repro.serve import ERROR_CODES, ServeConfig, SolveServer, SolveService

ROWS = 250
K = 3
WAVE = 8
READ_TIMEOUT_S = 30.0


def shm_residue():
    try:
        return {f for f in os.listdir("/dev/shm")
                if f.startswith(SHM_PREFIX)}
    except FileNotFoundError:  # non-Linux
        return set()


def make_request(rid, x, deadline_ms=None):
    req = {"id": rid, "op": "power", "k": K,
           "tenant": f"t{hash(rid) % 3}",
           "matrix": {"standin": "cant", "rows": ROWS, "seed": 0},
           "x": x.tolist()}
    if deadline_ms is not None:
        req["deadline_ms"] = deadline_ms
    return req


async def send_wave(host, port, requests):
    """One connection per ~4 requests; returns {rid: response}."""
    chunks = [requests[i::2] for i in range(2)]
    results = {}

    async def one_conn(chunk):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for req in chunk:
                writer.write(json.dumps(req).encode() + b"\n")
            await writer.drain()
            for _ in chunk:
                line = await asyncio.wait_for(reader.readline(),
                                              READ_TIMEOUT_S)
                assert line, "server closed mid-response"
                resp = json.loads(line)
                results[resp["id"]] = resp
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await asyncio.gather(*[one_conn(c) for c in chunks if c])
    return results


def pool_pids(service):
    """PIDs of the resident operator's process-pool workers (spawning
    the pool if the operator exists but has not run parallel yet)."""
    for entry in service.registry._entries.values():
        pool = getattr(entry.op, "_pool", None)
        if pool is not None:
            return pool.start()
    return []


@pytest.mark.slow
def test_chaos_soak_every_request_terminal_and_bitwise():
    rng = np.random.default_rng(42)
    xs = {}

    config = ServeConfig(
        tune="off", executor="processes", n_workers=2,
        on_failure="fallback_serial", hang_timeout_s=1.0,
        gather_window_s=0.01, drain_timeout_s=10.0,
    )
    chaos_rounds = [
        "warmup",             # clean round; spawns operator + pool
        "raise_request",      # event-loop request path raises
        "delay_request",      # event-loop request path stalls briefly
        "raise_batch",        # compute thread raises mid-batch
        "hang_batch",         # compute thread stalls (bounded)
        "sigstop_worker",     # pool worker alive but silent -> watchdog
        "sigkill_worker",     # pool worker dies -> dead-worker path
        "deadline_storm",     # microscopic deadlines expire in queue
        "cooldown",           # clean round: service fully recovered
    ]

    async def soak():
        service = SolveService(config)
        server = SolveServer(service, port=0)
        await server.start()
        injector = FaultInjector(seed=7)
        responses = {}
        try:
            with injector:
                for rnd, mode in enumerate(chaos_rounds):
                    injector.clear()
                    if mode == "raise_request":
                        injector.install("serve.request",
                                         RaiseFault(times=3))
                    elif mode == "delay_request":
                        injector.install("serve.request",
                                         DelayFault(0.02, times=4))
                    elif mode == "raise_batch":
                        injector.install("serve.batch",
                                         RaiseFault(times=2))
                    elif mode == "hang_batch":
                        injector.install("serve.batch",
                                         HangFault(seconds=1.5, times=1))
                    elif mode in ("sigstop_worker", "sigkill_worker"):
                        # A prior fallback may have torn the pool down
                        # (it respawns lazily); one clean request
                        # guarantees live workers to signal.
                        rid = f"{mode}-{rnd}-warm"
                        xs[rid] = rng.standard_normal(ROWS)
                        responses.update(await send_wave(
                            server.host, server.port,
                            [make_request(rid, xs[rid])]))
                        pids = pool_pids(service)
                        assert pids, "pool should be live by now"
                        if mode == "sigstop_worker":
                            os.kill(pids[0], signal.SIGSTOP)
                        else:
                            os.kill(pids[-1], signal.SIGKILL)
                            await asyncio.sleep(0.05)

                    deadline_ms = 1e-6 if mode == "deadline_storm" \
                        else None
                    wave = []
                    for i in range(WAVE):
                        rid = f"{mode}-{rnd}-{i}"
                        xs[rid] = rng.standard_normal(ROWS)
                        wave.append(make_request(rid, xs[rid],
                                                 deadline_ms))
                    responses.update(
                        await send_wave(server.host, server.port, wave))

            health = await service.handle({"id": "h", "op": "health"})
            stats = await service.handle({"id": "s", "op": "stats"})
        finally:
            await server.aclose()
        return responses, health, stats

    shm_before = shm_residue()
    t0 = time.monotonic()
    responses, health, stats = asyncio.run(soak())
    elapsed = time.monotonic() - t0

    # -- every request terminal, structured ---------------------------
    n_expected = WAVE * len(chaos_rounds) + 2  # + the two warm probes
    assert len(responses) == n_expected
    ok_ids, failed = [], {}
    for rid, resp in responses.items():
        if resp.get("ok"):
            ok_ids.append(rid)
        else:
            code = resp["error"]["code"]
            assert code in ERROR_CODES, f"{rid}: unknown code {code!r}"
            failed[rid] = code

    # Clean rounds must fully succeed; the deadline storm must reject
    # with the deadline code specifically.
    for rid, code in failed.items():
        assert not rid.startswith(("warmup", "cooldown")), \
            f"clean-round request {rid} failed with {code}"
        if rid.startswith("deadline_storm"):
            assert code == "deadline_exceeded"
    assert any(rid.startswith("deadline_storm") for rid in failed)
    # Chaos must not take out more than the injected budgets allow:
    # 3 request-path raises, up to 2 whole batches (a batch fault fails
    # every request sealed into it — worst case the full wave), and the
    # WAVE deadline-storm rejections.  Delays and bounded hangs must
    # not fail anything.
    assert len(ok_ids) >= n_expected - (3 + WAVE + WAVE)

    # -- bitwise identity of every success ----------------------------
    from repro.matrices import generate_standin

    a = generate_standin("cant", n_rows=ROWS, seed=0)
    with build_fbmpk_operator(a) as ref_op:
        for rid in ok_ids:
            ref = ref_op.power(xs[rid].copy(), K)
            got = np.asarray(responses[rid]["y"])
            assert np.array_equal(got, ref), \
                f"{rid}: batched result differs from serial bits"

    # -- the service observed and survived the chaos -------------------
    assert health["ok"]
    rej = stats["stats"]["rejected_by_reason"]
    assert rej["deadline_exceeded"] >= 1

    # -- no leaked workers, no leaked shared memory --------------------
    for _ in range(50):  # close() reaps asynchronously-exiting workers
        if not multiprocessing.active_children():
            break
        time.sleep(0.1)
    assert multiprocessing.active_children() == []
    assert shm_residue() - shm_before == set()

    # Bounded soak: the whole gauntlet (including a SIGSTOP detection
    # at hang_timeout=1s and a 1.5s bounded hang) stays well under CI's
    # budget.
    assert elapsed < 60.0
