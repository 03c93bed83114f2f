"""Tests of the load generator and the output check, against a stub
NDJSON server (no ``repro serve`` process is started), of the verdict
rule of ``run.py compare``, and of the supervisor that leaves no process
behind.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import queue
import shutil
import socketserver
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import loadgen
import run
import workloads


class StubServer:
    """Answers each NDJSON request line with ``answer(obj)`` after
    ``delay_s``, and records the most requests it held unanswered."""

    def __init__(self, answer, delay_s: float = 0.0) -> None:
        self.answer = answer
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.outstanding = 0
        self.peak = 0
        stub = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:
                pending: "queue.Queue" = queue.Queue()

                def respond() -> None:
                    while True:
                        obj = pending.get()
                        if obj is None:
                            return
                        time.sleep(stub.delay_s)
                        data = json.dumps(stub.answer(obj)).encode() + b"\n"
                        with stub.lock:
                            stub.outstanding -= 1
                        try:
                            self.wfile.write(data)
                            self.wfile.flush()
                        except OSError:
                            return

                responder = threading.Thread(target=respond, daemon=True)
                responder.start()
                for line in self.rfile:
                    with stub.lock:
                        stub.outstanding += 1
                        stub.peak = max(stub.peak, stub.outstanding)
                    pending.put(json.loads(line))
                pending.put(None)
                responder.join(timeout=10)

        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", 0),
                                                      Handler)
        self.server.daemon_threads = True
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


def doubled(obj):
    return {"id": obj["id"], "ok": True, "y": [2 * v for v in obj["x"]]}


def lines_for(n: int):
    return [json.dumps({"id": i, "op": "power", "x": [float(i)]}).encode()
            + b"\n" for i in range(n)]


@pytest.fixture
def stub():
    servers = []

    def make(answer=doubled, delay_s=0.0):
        servers.append(StubServer(answer, delay_s))
        return servers[-1]

    yield make
    for s in servers:
        s.close()


# -- percentile rule ----------------------------------------------------------
@pytest.mark.parametrize("n,expected", [(200, 95), (1000, 99), (120, 91),
                                        (72, 86), (11, 9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert loadgen.tail_percentile(n) == expected
    values = list(range(n))
    cut = loadgen.percentile(values, expected)
    assert sum(v > cut for v in values) >= 10
    # one percentile higher would leave fewer than ten beyond
    if expected < 99:
        assert sum(v > loadgen.percentile(values, expected + 1)
                   for v in values) < 10


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        loadgen.tail_percentile(10)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert loadgen.percentile(values, 50) == 50.0
    assert loadgen.percentile(values, 95) == 95.0
    assert loadgen.percentile([3.0], 99) == 3.0


# -- failure counts as a miss -------------------------------------------------
def test_failed_requests_count_as_infinite_latency(stub):
    def flaky(obj):
        if obj["id"] % 4 == 0:
            return {"id": obj["id"], "ok": False,
                    "error": {"code": "queue_full", "message": "stub"}}
        return doubled(obj)

    server = stub(flaky)
    n = 40
    result = asyncio.run(loadgen.open_loop(
        "127.0.0.1", server.port, lines_for(n), [0.002 * i for i in range(n)]))
    lat = result.latencies_s()
    assert result.attempted == n and result.failed == n // 4
    assert sum(math.isinf(v) for v in lat) == n // 4
    assert all(math.isfinite(v) for i, v in enumerate(lat) if i % 4)
    # a quarter failed: every percentile past 75 lands on a failure
    assert math.isinf(loadgen.percentile(lat, 80))
    assert math.isfinite(loadgen.percentile(lat, 50))


def test_missing_response_is_a_failure(stub):
    def drops_one(obj):
        if obj["id"] == 3:
            time.sleep(1.0)  # answers after the client gave up
        return doubled(obj)

    server = stub(drops_one)
    result = asyncio.run(loadgen.open_loop(
        "127.0.0.1", server.port, lines_for(6), [0.0] * 6, connections=1,
        timeout_s=0.3))
    assert [s.ok for s in result.samples] == [True, True, True, False,
                                              False, False]
    assert result.failed == 3


# -- due-time accounting ------------------------------------------------------
def test_client_stall_is_charged_from_due_time(stub):
    server = stub()
    n, gap, stall_at, stall_s = 60, 0.01, 0.1, 0.25
    marks = {}

    async def scenario():
        async def stall():
            await asyncio.sleep(stall_at)
            marks["start"] = time.perf_counter()
            time.sleep(stall_s)  # blocks the generator's event loop
            marks["end"] = time.perf_counter()

        phase, _ = await asyncio.gather(
            loadgen.open_loop("127.0.0.1", server.port, lines_for(n),
                              [gap * i for i in range(n)], lead_s=0.0),
            stall())
        return phase

    result = asyncio.run(scenario())
    assert result.failed == 0
    delayed = [s for s in result.samples
               if marks["start"] <= s.due < marks["end"]]
    assert len(delayed) >= 10
    for s in delayed:
        # sent only after the stall, and latency counts from the due time
        assert s.sent >= marks["end"] - 1e-3
        assert s.latency_s >= marks["end"] - s.due - 1e-3
        assert s.late_s >= marks["end"] - s.due - 1e-3
    late = [s.late_s for s in result.samples]
    assert loadgen.percentile(late, 95) > 0.1
    on_time = [s for s in result.samples if s.due >= marks["end"] + 0.05]
    assert on_time and max(s.late_s for s in on_time) < 0.05


# -- closed loop --------------------------------------------------------------
def test_closed_loop_keeps_exactly_in_flight_outstanding(stub):
    server = stub(delay_s=0.003)

    def make_line(i):
        return b'{"id":%d,"op":"power","x":[0.0]}\n' % i

    result = asyncio.run(loadgen.closed_loop(
        "127.0.0.1", server.port, make_line, in_flight=4, duration_s=0.4))
    assert result.failed == 0 and result.attempted > 8
    assert result.max_in_flight == 4
    assert server.peak <= 4
    assert all(s.response["y"] == [0.0] for s in result.samples)


def test_closed_loop_rejects_uneven_split():
    with pytest.raises(ValueError):
        asyncio.run(loadgen.closed_loop("127.0.0.1", 1, lambda i: b"",
                                        in_flight=3, duration_s=0.1))


# -- a wrong vector fails the run ---------------------------------------------
TINY_SPEC = workloads.Standin("cant", 200)


def tiny(closed):
    return workloads.ServeWorkload("tiny", specs=(TINY_SPEC,), ks=(2,),
                                   rate=40.0, prewarm=False, closed=closed)


def stub_server_class(wrong_tenant_prefix):
    """A ``workloads.Server`` stand-in: answers with the serial FBMPK
    result, except one request whose tenant matches the prefix."""
    from repro.core import build_fbmpk_operator

    a = TINY_SPEC.load()
    op = build_fbmpk_operator(a)
    lock = threading.Lock()  # one sweep at a time, as the server does
    spoiled = []

    def answer(obj):
        with lock:
            y = op.power(np.asarray(obj["x"]), obj["k"])
        if obj["tenant"].startswith(wrong_tenant_prefix) and not spoiled:
            spoiled.append(obj["id"])
            y[0] += 1e-3
        return {"id": obj["id"], "ok": True, "y": y.tolist(),
                "meta": {"batch_width": 1}}

    class FakeServer:
        def __init__(self, plan_cache, trace=None, report=None):
            self.t_launch = time.perf_counter()
            self.stub = StubServer(answer)

        async def wait_port(self):
            return self.stub.port

        async def stop(self):
            self.stub.close()

    return FakeServer


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("prefix,code", [("open-", 1), ("none", 0)])
def test_wrong_vector_gives_nonzero_exit(monkeypatch, capsys, prefix, code,
                                         closed):
    monkeypatch.setattr(workloads, "Server", stub_server_class(prefix))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny(closed))
    assert run.run_one("tiny", seed=0, seconds=1.0, trace=False,
                       out=None) == code
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is (code == 0)
    assert last["failed"] == (1 if code else 0)
    assert set(last["metrics"]) == {m["name"] for m in
                                    run.load_spec()["end_to_end"]}


TINY_MPK = workloads.MpkWorkload("tiny-mpk", workloads.Standin("cant", 200),
                                 k=2)


class SpoiledWhileTraced:
    """Wraps an operator: ``power`` returns a wrong vector while a
    telemetry session is active, that is, in the traced half only."""

    def __init__(self, op):
        self.op = op

    def power(self, x, k):
        from repro import obs

        y = self.op.power(x, k)
        if obs.current() is not None:
            y = y.copy()
            y[0] += 1e-3
        return y

    def close(self):
        self.op.close()


@pytest.mark.parametrize("spoil,code", [(True, 1), (False, 0)])
def test_wrong_vector_in_traced_pass_gives_nonzero_exit(
        monkeypatch, capsys, tmp_path, spoil, code):
    import layers

    if spoil:
        tune = workloads.MpkWorkload.tune

        def spoiled_tune(self, a, cache_dir):
            op, result = tune(self, a, cache_dir)
            return SpoiledWhileTraced(op), result

        monkeypatch.setattr(workloads.MpkWorkload, "tune", spoiled_tune)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny-mpk", TINY_MPK)
    monkeypatch.setattr(layers, "RESULTS", tmp_path)
    assert run.run_one("tiny-mpk", seed=0, seconds=0.4, trace=True,
                       out=None) == code
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is (code == 0)
    assert (last["failed"] > 0) is spoil
    assert set(last["metrics"]) == {m["name"] for m in
                                    run.load_spec()["per_layer"]}


# -- compare verdicts ---------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change,lower,expected", [
    ([v * 0.9 for v in PARENT], True, "gain"),
    ([v * 0.9 for v in PARENT], False, "same"),
    ([v * 1.3 for v in PARENT], True, "regression"),
    ([v * 1.3 for v in PARENT], False, "gain"),
    ([v * 1.05 for v in PARENT], True, "same"),
    # the change wins only 8 of 10 pairs: no gain
    ([v * 0.9 for v in PARENT[:8]] + [200.0, 200.0], True, "same"),
])
def test_verdict(change, lower, expected):
    assert run.verdict(PARENT, change, 0.24, lower) == expected


def _record(workload, value, failed=0, valid=True):
    return {"workload": workload, "seed": 0, "trace": False,
            "attempted": 100, "failed": failed, "valid": valid,
            "details": {"late_p95_ms": 1.0 if valid else 50.0},
            "metrics": {m["name"]: {"value": value, "unit": m["unit"]}
                        for m in run.load_spec()["end_to_end"]}}


def _write(path, runs):
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_flags_more_failures_as_regression(tmp_path, capsys):
    parent = _write(tmp_path / "p.json",
                    [_record("w", 1.0 + i / 100) for i in range(5)])
    same = _write(tmp_path / "c1.json",
                  [_record("w", 1.0 + i / 100) for i in range(5)])
    failing = _write(tmp_path / "c2.json",
                     [_record("w", 1.0 + i / 100, failed=int(i == 0))
                      for i in range(5)])
    assert run.compare([parent, "--", same]) == 0
    assert run.compare([parent, "--", failing]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("failed/attempted" in r and r.endswith("regression")
               for r in rows)


def test_compare_drops_runs_whose_generator_ran_late(tmp_path, capsys):
    parent = _write(tmp_path / "p.json",
                    [_record("w", 1.0 + i / 100) for i in range(5)])
    # a late run with a far worse value would be a regression if kept
    change = _write(tmp_path / "c.json",
                    [_record("w", 1.0 + i / 100) for i in range(5)]
                    + [_record("w", 9.0, valid=False) for _ in range(6)])
    assert run.compare([parent, "--", change]) == 0
    assert capsys.readouterr().out.count("dropped w") == 6


def test_verdict_unresolved_when_parent_spreads_wider_than_bound():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert run.verdict(wide, [v * 1.01 for v in wide], 0.24, True) \
        == "unresolved"
    # unless every change run beats every parent run
    assert run.verdict(wide, [50.0] * 10, 0.24, True) == "gain"


def _as_subreaper(body: str) -> str:
    """Run ``body`` in a fresh interpreter that has made itself the
    reaper of its orphans, as the supervisor does; returns its stdout."""
    script = (f"import subprocess, sys, time\n"
              f"sys.path.insert(0, {str(run.HERE)!r})\n"
              f"import run\n"
              f"assert run._become_subreaper()\n" + body)
    return subprocess.run([sys.executable, "-c", script], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def test_supervisor_waits_for_orphaned_descendants(tmp_path):
    # The shell exits at once; the process it leaves behind (as a
    # multiprocessing resource tracker does) ends 0.5 s later.
    marker = tmp_path / "done"
    out = _as_subreaper(
        f"t0 = time.monotonic()\n"
        f"subprocess.run(['sh', '-c', '(sleep 0.5; touch {marker}) &'])\n"
        f"run._reap(30.0)\n"
        f"print(time.monotonic() - t0, run._children())\n")
    elapsed, left = out.split(maxsplit=1)
    assert marker.exists() and float(elapsed) >= 0.5
    assert left.strip() == "[]"


def test_supervisor_kills_what_outlives_the_reap_timeout():
    out = _as_subreaper(
        "t0 = time.monotonic()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'])\n"
        "run._reap(0.2)\n"
        "print(time.monotonic() - t0, run._children())\n")
    elapsed, left = out.split(maxsplit=1)
    assert float(elapsed) < 10.0
    assert left.strip() == "[]"


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    # Only BENCHMARK.json and the benchmark's own files: no program.
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, bench)
    shutil.copy(run.SPEC_FILE, tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "mpk-fem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
