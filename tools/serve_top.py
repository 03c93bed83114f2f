#!/usr/bin/env python
"""Live terminal dashboard for ``python -m repro serve``.

Polls a running solve server's ``stats``/``health`` NDJSON ops over
one persistent TCP connection and renders a ``top``-style view:

* request totals (completed / failed / rejected) with rates derived
  between polls,
* latency quantiles and the SLO error-budget panel (burn rate,
  compliance, budget remaining),
* live load: in-flight requests, pending queue depth, in-flight
  batches, batch-width histogram,
* batched-dispatch counters from the process executor — enqueues,
  work-steal claims (``procexec.steal_count``) and mean dispatch-wait
  latency (``procexec.dispatch_wait``) — when a resident operator runs
  on the processes backend,
* resident operators, circuit-breaker states and pool-worker liveness.

Usage::

    python tools/serve_top.py --port-file port.txt          # live view
    python tools/serve_top.py --port 7654 --once            # one frame

``--once`` prints a single frame and exits 0 (the CI smoke step uses
it as a "dashboard renders against a real server" assertion).  The
rendering itself is a pure function over two consecutive stats
snapshots (:func:`render`), so tests can drive it without a socket.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.protocol import decode_line, encode_line  # noqa: E402


def _fmt_ms(v: Optional[float]) -> str:
    return "-" if v is None else f"{v:8.2f}"


def _fmt_pct(v: Optional[float]) -> str:
    return "-" if v is None else f"{100.0 * v:6.2f}%"


def _rate(cur: float, prev: Optional[float], dt: float) -> str:
    if prev is None or dt <= 0:
        return "      -"
    return f"{(cur - prev) / dt:7.1f}"


def _counter(metrics: Optional[Dict[str, Any]], name: str) -> float:
    if not metrics:
        return 0.0
    return float(metrics.get("counters", {})
                 .get(name, {}).get("value", 0.0))


def _bar(count: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return " " * width
    filled = round(width * count / total)
    return "#" * filled + " " * (width - filled)


def render(stats: Dict[str, Any], health: Dict[str, Any],
           prev: Optional[Dict[str, Any]] = None,
           dt: float = 0.0, width: int = 78) -> str:
    """Render one dashboard frame from ``stats``/``health`` payloads.

    ``prev`` is the previous poll's stats payload (None on the first
    frame) and ``dt`` the seconds between the two — rates are simple
    deltas.  Pure function: no I/O, deterministic for fixed inputs.
    """
    metrics = stats.get("metrics")
    prev_metrics = prev.get("metrics") if prev else None
    lines: List[str] = []
    bar = "=" * width
    lines.append(bar)
    lines.append(f"repro serve  up {stats.get('uptime_s', 0.0):8.1f}s"
                 f"   draining: {stats.get('draining', False)}")
    lines.append(bar)

    # -- requests -------------------------------------------------------
    total = _counter(metrics, "serve.requests")
    done = _counter(metrics, "serve.requests.completed")
    failed = _counter(metrics, "serve.requests.failed")
    rejected = _counter(metrics, "serve.requests.rejected")
    prev_total = _counter(prev_metrics, "serve.requests") if prev else None
    lines.append(f"requests   total {total:10.0f}   "
                 f"ok {done:10.0f}   failed {failed:6.0f}   "
                 f"rejected {rejected:6.0f}   "
                 f"req/s {_rate(total, prev_total, dt)}")
    rej = stats.get("rejected_by_reason") or {}
    if any(rej.values()):
        parts = "  ".join(f"{k}={v}" for k, v in sorted(rej.items()) if v)
        lines.append(f"  rejections: {parts}")

    # -- SLO / latency --------------------------------------------------
    slo = stats.get("slo")
    if slo:
        lines.append(f"latency ms p50 {_fmt_ms(slo.get('p50_ms'))}   "
                     f"p95 {_fmt_ms(slo.get('p95_ms'))}   "
                     f"p99 {_fmt_ms(slo.get('p99_ms'))}   "
                     f"target {slo.get('target_ms', 0):.0f}")
        burn = slo.get("burn_rate")
        lines.append(f"slo        goal {_fmt_pct(slo.get('goal'))}  "
                     f"compliance {_fmt_pct(slo.get('compliance'))}  "
                     f"burn {'-' if burn is None else f'{burn:.2f}x'}"
                     f"  budget left {_fmt_pct(slo.get('budget_remaining'))}")
    else:
        lines.append("slo        (telemetry off on the server: start it "
                     "with --metrics-port)")

    # -- load -----------------------------------------------------------
    inflight = health.get("inflight", 0)
    lines.append(f"load       in-flight {inflight:5d}   "
                 f"pending {stats.get('pending', 0):5d}   "
                 f"batches {stats.get('inflight_batches', 0):3d}   "
                 f"residents {stats.get('residents', 0):2d}")
    tenants = stats.get("inflight_by_tenant") or {}
    if tenants:
        parts = "  ".join(f"{t}={n}" for t, n in sorted(tenants.items()))
        lines.append(f"  by tenant: {parts}")

    # -- batch width histogram ------------------------------------------
    hists = (metrics or {}).get("histograms", {})
    bw = hists.get("serve.batch.width")
    if bw and bw.get("count"):
        lines.append("batch width")
        edges = bw["buckets"]
        counts = bw["counts"]
        total_obs = bw["count"]
        labels = [f"<= {int(e)}" for e in edges] + [f" > {int(edges[-1])}"]
        for label, count in zip(labels, counts):
            if count:
                lines.append(f"  {label:>8} |{_bar(count, total_obs)}| "
                             f"{count}")

    # -- batched dispatch (process executor) ----------------------------
    enq = _counter(metrics, "procexec.enqueues")
    steals = _counter(metrics, "procexec.steal_count")
    if enq or steals:
        prev_steals = (_counter(prev_metrics, "procexec.steal_count")
                       if prev else None)
        wait = hists.get("procexec.dispatch_wait") or {}
        wait_n = wait.get("count") or 0
        wait_mean_ms = (1e3 * wait["sum"] / wait_n) if wait_n else None
        lines.append(f"dispatch   enqueues {enq:9.0f}   "
                     f"steals {steals:9.0f}   "
                     f"steals/s {_rate(steals, prev_steals, dt)}   "
                     f"wait avg {_fmt_ms(wait_mean_ms)} ms")

    # -- breakers / workers ---------------------------------------------
    breakers = health.get("breakers") or {}
    for name, snap in sorted(breakers.items()):
        if isinstance(snap, dict):
            state = snap.get("state", "?")
            fails = snap.get("failures", snap.get("failure_count", 0))
            lines.append(f"breaker    {name}: {state} ({fails} failures)")
    workers = health.get("workers")
    if workers:
        for key, info in sorted(workers.items()):
            if isinstance(info, dict):
                alive = info.get("process_workers")
                lines.append(f"workers    {key}: "
                             f"executor={info.get('executor')} "
                             f"liveness={alive}")
    lines.append(bar)
    return "\n".join(lines)


async def _poll(reader, writer, op: str, timeout_s: float) -> Dict[str, Any]:
    writer.write(encode_line({"id": op, "op": op}))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout_s)
    if not line:
        raise ConnectionError("server closed the connection")
    resp = decode_line(line)
    if not resp.get("ok"):
        raise RuntimeError(f"{op} failed: {resp.get('error')}")
    return resp


async def amain(args) -> int:
    port = args.port
    if args.port_file:
        deadline = time.monotonic() + args.timeout
        path = Path(args.port_file)
        while True:
            if path.exists() and path.read_text().strip():
                port = int(path.read_text().strip())
                break
            if time.monotonic() >= deadline:
                print(f"error: {path} never appeared", file=sys.stderr)
                return 1
            await asyncio.sleep(0.1)

    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(args.host, port), args.timeout)
    prev: Optional[Dict[str, Any]] = None
    t_prev = time.monotonic()
    try:
        while True:
            stats = (await _poll(reader, writer, "stats",
                                 args.timeout))["stats"]
            health = (await _poll(reader, writer, "health",
                                  args.timeout))["health"]
            now = time.monotonic()
            frame = render(stats, health, prev=prev,
                           dt=now - t_prev)
            if not args.once:
                # ANSI clear + home keeps the frame in place like top.
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            if args.once:
                return 0
            prev, t_prev = stats, now
            await asyncio.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=7654)
    ap.add_argument("--port-file",
                    help="read the port from this file (server's "
                         "--port-file)")
    ap.add_argument("--interval", type=float, default=1.0,
                    help="seconds between polls (default 1)")
    ap.add_argument("--once", action="store_true",
                    help="print one frame and exit (CI smoke mode)")
    ap.add_argument("--timeout", type=float, default=30.0)
    args = ap.parse_args()
    try:
        return asyncio.run(amain(args))
    except KeyboardInterrupt:
        return 0
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away: normal for a
        # streaming dashboard, not an error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
