#!/usr/bin/env python
"""Concurrent NDJSON client for ``python -m repro serve``.

Fires many ``power`` requests at a running solve server over one or
more TCP connections *concurrently* (so they queue while the server's
operator is busy and get batched), collects the responses, and reports
the batching the server actually achieved.  Lines go through the
server's own codec (:func:`repro.serve.protocol.encode_line` and
:func:`~repro.serve.protocol.decode_line`).

With ``--verify``, every returned vector is compared **bitwise**
against a locally computed reference (the default serial FBMPK
operator) — the service's batched, tuned, possibly parallel sweep must
produce the identical float64 bits.

Used by the CI serving-smoke step::

    python -m repro serve --port 0 --port-file port.txt &
    python tools/serve_client.py --port-file port.txt \
        --requests 8 --verify --shutdown

Exit code 0 only if every request succeeded (and verified).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.serve.protocol import decode_line, encode_line  # noqa: E402


def make_x(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


async def connect(host: str, port: int, timeout_s: float,
                  connect_timeout_s: float = 5.0):
    """Dial with full-jitter exponential backoff: the server may still
    be starting up, and a thundering herd of clients retrying in
    lockstep would only make that worse.

    ``connect_timeout_s`` caps one dial attempt (a SYN to a firewalled
    or SIGSTOPped server can otherwise hang for minutes); ``timeout_s``
    bounds the whole retry loop.
    """
    from repro.robust.resilience import Deadline, RetryPolicy

    deadline = Deadline.after(timeout_s)
    policy = RetryPolicy(base_delay_s=0.05, max_delay_s=1.0)
    delays = policy.delays(deadline)
    while True:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port),
                timeout=min(connect_timeout_s,
                            max(0.001, deadline.remaining_or(
                                connect_timeout_s))))
        except (OSError, asyncio.TimeoutError):
            delay = next(delays, None)
            if delay is None:
                raise
            await asyncio.sleep(delay)


async def run_connection(host: str, port: int, requests: list,
                         timeout_s: float,
                         connect_timeout_s: float = 5.0) -> dict:
    """Send all assigned requests immediately, then read the responses
    (they may arrive out of order — matched by id)."""
    reader, writer = await connect(host, port, timeout_s,
                                   connect_timeout_s)
    responses = {}
    try:
        for req in requests:
            writer.write(encode_line(req))
        await writer.drain()
        for _ in requests:
            line = await asyncio.wait_for(reader.readline(), timeout_s)
            if not line:
                raise ConnectionError("server closed the connection")
            resp = decode_line(line)
            responses[resp.get("id")] = resp
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    return responses


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

    matrix = {"standin": args.standin, "rows": args.rows,
              "seed": args.matrix_seed}
    requests = [
        {"id": f"r{i}", "op": "power", "matrix": matrix, "k": args.k,
         "tenant": f"tenant{i % args.tenants}",
         "x": make_x(args.rows, args.seed + i)}
        for i in range(args.requests)
    ]
    if args.deadline_ms is not None:
        for req in requests:
            req["deadline_ms"] = args.deadline_ms
    per_conn = [requests[c::args.connections]
                for c in range(args.connections)]
    t0 = time.perf_counter()
    results = await asyncio.gather(*[
        run_connection(args.host, port, chunk, args.timeout,
                       args.connect_timeout)
        for chunk in per_conn if chunk])
    elapsed = time.perf_counter() - t0
    responses = {}
    for chunk in results:
        responses.update(chunk)

    failures = 0
    widths = []
    for i in range(args.requests):
        resp = responses.get(f"r{i}")
        if resp is None or not resp.get("ok"):
            err = (resp or {}).get("error", {})
            print(f"r{i}: FAILED {err.get('code')}: {err.get('message')}",
                  file=sys.stderr)
            failures += 1
            continue
        widths.append(resp.get("meta", {}).get("batch_width", 1))

    verified = None
    if args.verify and failures == 0:
        from repro.core import build_fbmpk_operator
        from repro.matrices import generate_standin

        a = generate_standin(args.standin, n_rows=args.rows,
                             seed=args.matrix_seed)
        op = build_fbmpk_operator(a)
        verified = True
        for i in range(args.requests):
            ref = op.power(make_x(args.rows, args.seed + i), args.k)
            got = np.asarray(responses[f"r{i}"]["y"])
            if not np.array_equal(ref, got):
                print(f"r{i}: result differs from serial reference "
                      f"(max abs diff {np.abs(ref - got).max():.3e})",
                      file=sys.stderr)
                verified = False
        op.close()

    if args.shutdown:
        reader, writer = await connect(args.host, port, args.timeout)
        writer.write(encode_line({"id": "bye", "op": "shutdown"}))
        await writer.drain()
        await asyncio.wait_for(reader.readline(), args.timeout)
        writer.close()

    ok = args.requests - failures
    max_width = max(widths) if widths else 0
    print(f"{ok}/{args.requests} ok in {elapsed:.2f}s over "
          f"{args.connections} connection(s); "
          f"max batch width {max_width}"
          + ("" if verified is None else
             f"; bitwise vs serial reference: "
             f"{'MATCH' if verified else 'MISMATCH'}"))
    if failures or verified is False:
        return 1
    if args.expect_batching and max_width < 2:
        print("error: expected batching (max batch width < 2)",
              file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, default=7654)
    ap.add_argument("--port-file",
                    help="read the port from this file (server's "
                         "--port-file)")
    ap.add_argument("--requests", type=int, default=8)
    ap.add_argument("--connections", type=int, default=4)
    ap.add_argument("--tenants", type=int, default=2)
    ap.add_argument("--standin", default="cant")
    ap.add_argument("--rows", type=int, default=2000)
    ap.add_argument("--matrix-seed", type=int, default=0)
    ap.add_argument("-k", type=int, default=4)
    ap.add_argument("--seed", type=int, default=100,
                    help="base seed for the request vectors")
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--connect-timeout", type=float, default=5.0,
                    help="cap on one TCP dial attempt; the backoff "
                         "retry loop as a whole is bounded by --timeout")
    ap.add_argument("--deadline-ms", type=float, default=None,
                    help="attach this per-request deadline_ms budget; "
                         "expired requests get structured "
                         "deadline_exceeded errors")
    ap.add_argument("--verify", action="store_true",
                    help="compare every result bitwise against a local "
                         "serial FBMPK reference")
    ap.add_argument("--expect-batching", action="store_true",
                    help="fail unless some response was served from a "
                         "batch of width >= 2")
    ap.add_argument("--shutdown", action="store_true",
                    help="send a shutdown request when done (lets the "
                         "server drain and write its telemetry)")
    args = ap.parse_args()
    return asyncio.run(amain(args))


if __name__ == "__main__":
    raise SystemExit(main())
