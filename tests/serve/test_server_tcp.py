"""End-to-end TCP tests: real sockets, concurrent NDJSON clients, the
batching proof (fewer sweeps than requests, width > 1, results bitwise
equal to the serial reference), malformed input, client disconnects,
and the remote-shutdown drain."""

import asyncio
import json

import numpy as np
import pytest

from repro import obs
from repro.core import build_fbmpk_operator
from repro.serve import ServeConfig, SolveServer, SolveService
from repro.serve.spec import MatrixSpec

SPEC = MatrixSpec(standin="cant", rows=250, seed=0)


def make_server(**over):
    over.setdefault("tune", "off")
    over.setdefault("gather_window_s", 0.05)
    service = SolveService(ServeConfig(**over))
    return SolveServer(service, port=0)


def run(coro):
    return asyncio.run(coro)


async def send_line(writer, obj):
    writer.write(json.dumps(obj).encode() + b"\n")
    await writer.drain()


async def read_line(reader, timeout=30):
    line = await asyncio.wait_for(reader.readline(), timeout)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def client_power(port, reqs, timeout=30):
    """One connection: send all requests up front, read all responses
    (out-of-order safe, matched by id)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for r in reqs:
            await send_line(writer, r)
        out = {}
        for _ in reqs:
            resp = await read_line(reader, timeout)
            out[resp["id"]] = resp
        return out
    finally:
        writer.close()
        await writer.wait_closed()


def power_req(i, x, k=3, tenant="anon"):
    return {"id": f"r{i}", "op": "power", "k": k, "tenant": tenant,
            "matrix": {"standin": SPEC.standin, "rows": SPEC.rows,
                       "seed": SPEC.seed},
            "x": x.tolist()}


# -- the end-to-end batching proof -----------------------------------------
def test_concurrent_tcp_clients_are_batched_and_bitwise_correct():
    async def main():
        tel = obs.Telemetry()
        tel.activate()
        try:
            server = make_server()
            await server.start()
            n_req, n_conn = 8, 4
            rng = np.random.default_rng(7)
            xs = [rng.standard_normal(SPEC.rows) for _ in range(n_req)]
            reqs = [power_req(i, x) for i, x in enumerate(xs)]
            chunks = [reqs[c::n_conn] for c in range(n_conn)]
            results = await asyncio.gather(
                *[client_power(server.port, chunk) for chunk in chunks])
            await server.aclose()
        finally:
            tel.deactivate()
        responses = {}
        for chunk in results:
            responses.update(chunk)
        assert len(responses) == n_req
        assert all(r["ok"] for r in responses.values())

        # Batching proof 1: the report counts fewer sweeps than
        # requests served, and a batch wider than one request.
        counters = tel.metrics.snapshot()["counters"]
        gauges = tel.metrics.snapshot()["gauges"]
        assert counters["serve.requests.completed"]["value"] == n_req
        assert counters["serve.batches"]["value"] < n_req
        assert gauges["serve.batch.width.max"]["value"] > 1
        widths = [r["meta"]["batch_width"] for r in responses.values()]
        assert max(widths) > 1

        # Batching proof 2: every wire result is bitwise identical to
        # the unbatched serial reference.
        a = SPEC.load()
        op = build_fbmpk_operator(a)
        try:
            for i, x in enumerate(xs):
                ref = op.power(x.copy(), 3)
                got = np.asarray(responses[f"r{i}"]["y"])
                assert np.array_equal(got, ref)
        finally:
            op.close()

    run(main())


# -- protocol robustness over the wire -------------------------------------
def test_malformed_json_line_keeps_connection_usable():
    async def main():
        server = make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        writer.write(b"this is not json\n")
        await writer.drain()
        resp = await read_line(reader)
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"
        assert resp["id"] is None
        # The same connection still serves valid requests.
        await send_line(writer, {"id": "p", "op": "ping"})
        resp = await read_line(reader)
        assert resp == {"id": "p", "ok": True, "pong": True}
        writer.close()
        await writer.wait_closed()
        await server.aclose()

    run(main())


def test_non_finite_literal_is_bad_request_and_keeps_connection():
    """stdlib ``json.dumps`` writes ``NaN``/``Infinity`` for non-finite
    floats, but they are not JSON: the line fails to decode, gets a
    structured ``bad_request``, and the connection keeps serving."""
    async def main():
        server = make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        x = np.ones(SPEC.rows)
        for bad in (np.nan, np.inf):
            x[3] = bad
            await send_line(writer, power_req(0, x))
            resp = await read_line(reader)
            assert not resp["ok"]
            assert resp["error"]["code"] == "bad_request"
            assert "invalid JSON" in resp["error"]["message"]
        x[3] = 1.0
        await send_line(writer, power_req(1, x))
        resp = await read_line(reader)
        assert resp["ok"] and resp["id"] == "r1"
        writer.close()
        await writer.wait_closed()
        await server.aclose()

    run(main())


def test_bad_request_gets_structured_error_with_id():
    async def main():
        server = make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await send_line(writer, {"id": "bad1", "op": "power",
                                 "matrix": {"standin": "no-such"},
                                 "x": [1.0]})
        resp = await read_line(reader)
        assert resp["id"] == "bad1"
        assert resp["error"]["code"] == "bad_request"
        writer.close()
        await writer.wait_closed()
        await server.aclose()

    run(main())


def test_stats_over_the_wire():
    async def main():
        server = make_server()
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await send_line(writer, {"id": "s", "op": "stats"})
        resp = await read_line(reader)
        assert resp["ok"]
        assert resp["stats"]["residents"] == 0
        writer.close()
        await writer.wait_closed()
        await server.aclose()

    run(main())


# -- disconnects -----------------------------------------------------------
def test_client_disconnect_mid_request_does_not_break_others():
    async def main():
        server = make_server(gather_window_s=0.15)
        await server.start()
        rng = np.random.default_rng(8)
        x_stay = rng.standard_normal(SPEC.rows)
        x_gone = rng.standard_normal(SPEC.rows)

        # The deserter sends a request into the gather window and
        # vanishes without reading the response.
        _, w_gone = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await send_line(w_gone, power_req(99, x_gone))
        await asyncio.sleep(0.02)
        w_gone.close()

        responses = await client_power(
            server.port, [power_req(0, x_stay)])
        assert responses["r0"]["ok"]
        a = SPEC.load()
        op = build_fbmpk_operator(a)
        try:
            ref = op.power(x_stay.copy(), 3)
        finally:
            op.close()
        assert np.array_equal(np.asarray(responses["r0"]["y"]), ref)
        await server.aclose()
        # Drained cleanly: no queued work, no in-flight batches, no
        # orphaned tasks left behind by the vanished client.
        assert server.service.batcher.pending == 0
        assert server.service.batcher.inflight_batches == 0
        lingering = [t for t in asyncio.all_tasks()
                     if t is not asyncio.current_task()
                     and not t.done()]
        assert lingering == []

    run(main())


# -- shutdown --------------------------------------------------------------
def test_remote_shutdown_drains_and_stops():
    async def main():
        server = make_server()
        await server.start()
        serve_task = asyncio.ensure_future(server.serve_forever())
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await send_line(writer, {"id": "q", "op": "shutdown"})
        resp = await read_line(reader)
        assert resp["ok"] and resp["draining"]
        await asyncio.wait_for(serve_task, timeout=30)
        writer.close()
        # New connections are refused once the listener is gone.
        with pytest.raises(OSError):
            await asyncio.open_connection("127.0.0.1", server.port)

    run(main())


def test_shutdown_disabled_is_rejected():
    async def main():
        server = make_server(allow_shutdown=False)
        await server.start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        await send_line(writer, {"id": "q", "op": "shutdown"})
        resp = await read_line(reader)
        assert not resp["ok"]
        assert resp["error"]["code"] == "bad_request"
        writer.close()
        await writer.wait_closed()
        await server.aclose()

    run(main())
