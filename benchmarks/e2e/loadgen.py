"""Open- and closed-loop NDJSON load generator for the serving workloads.

One asyncio process drives at most two TCP connections (the host has two
CPUs; more client threads or connections would compete with the server
being measured).  Request lines are encoded before a phase starts, so
the timed region holds only socket writes and reads.

Open loop: request ``i`` is *due* at ``t0 + offsets[i]`` and is sent then,
whatever the state of earlier requests.  Its latency runs from the due
time, not the send time, so a stall in the generator (or a full socket
buffer) is charged to every request it delays; how late the generator
actually sent each request is reported separately as lateness.

Closed loop: each connection keeps ``in_flight / connections`` requests
outstanding and sends the next one only when a response arrives, so the
offered load adapts to what the server completes (capacity).

Receipt is stamped when ``readline()`` returns, before any JSON decode;
responses are decoded and matched by ``id`` only after the phase ends.
A request that never gets a response, or gets an error response, counts
as +inf latency: it misses every latency limit.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Sample",
    "PhaseResult",
    "open_loop",
    "closed_loop",
    "percentile",
    "tail_percentile",
    "decode_responses",
    "STREAM_LIMIT",
]

#: StreamReader line limit: a response carries a whole result vector.
STREAM_LIMIT = 1 << 26


def tail_percentile(n: int, beyond: int = 10) -> int:
    """Highest whole percentile of ``n`` samples that leaves at least
    ``beyond`` samples above it (nearest-rank definition)."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    raise ValueError(f"{n} samples leave no percentile with "
                     f"{beyond} samples beyond it")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; +inf entries (failed requests) sort
    last, so they count as misses of any finite limit."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


@dataclass
class Sample:
    """One request's timeline (``time.perf_counter`` seconds)."""

    index: int
    #: When the request was due (open loop) or sent (closed loop).
    due: float
    sent: float
    received: Optional[float] = None
    #: Decoded response object (set by :func:`decode_responses`).
    response: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.response is not None and self.response.get("ok") is True

    @property
    def latency_s(self) -> float:
        """Due-to-receipt seconds; +inf when the request failed."""
        if not self.ok or self.received is None:
            return math.inf
        return self.received - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent this request."""
        return self.sent - self.due


@dataclass
class PhaseResult:
    """Everything one phase observed, decoded."""

    samples: List[Sample]
    t_start: float
    t_end: float
    #: When the closed loop stopped sending new requests.
    t_stop: Optional[float] = None
    #: Highest number of requests outstanding at once (closed loop).
    max_in_flight: int = 0
    raw: List[Tuple[float, bytes]] = field(default_factory=list, repr=False)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def latencies_s(self) -> List[float]:
        return [s.latency_s for s in self.samples]


async def _connect_all(host: str, port: int, n: int):
    """``n`` connections, or none: a failed dial closes the earlier ones."""
    conns = []
    try:
        for _ in range(n):
            conns.append(await asyncio.open_connection(
                host, port, limit=STREAM_LIMIT))
    except OSError:
        for _, writer in conns:
            await _close(writer)
        raise
    return conns


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:
        pass


async def _read_n(reader: asyncio.StreamReader, n: int, deadline: float,
                  raw: List[Tuple[float, bytes]]) -> None:
    """Append ``(receipt time, line)`` for up to ``n`` response lines,
    giving up at ``deadline`` or end of stream."""
    for _ in range(n):
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        try:
            line = await asyncio.wait_for(reader.readline(), remaining)
        except (asyncio.TimeoutError, OSError):
            return
        if not line:
            return
        raw.append((time.perf_counter(), line))


def decode_responses(result: PhaseResult) -> PhaseResult:
    """Match raw response lines to samples by ``id`` (after timing)."""
    by_index: Dict[int, Sample] = {s.index: s for s in result.samples}
    for t, line in result.raw:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        sample = by_index.get(obj.get("id")) if isinstance(obj, dict) \
            else None
        if sample is None or sample.response is not None:
            continue
        sample.received = t
        sample.response = obj
    result.raw = []
    return result


async def open_loop(host: str, port: int, lines: Sequence[bytes],
                    offsets: Sequence[float], connections: int = 2,
                    timeout_s: float = 60.0,
                    lead_s: float = 0.05) -> PhaseResult:
    """Send ``lines[i]`` (whose JSON ``id`` must be ``i``) at
    ``t0 + offsets[i]`` over ``connections`` connections, round-robin.

    Waits for every response until ``timeout_s`` after the last due
    time; missing responses stay failed.  Returns decoded samples.
    """
    if len(lines) != len(offsets):
        raise ValueError("one offset per request line")
    conns = await _connect_all(host, port, connections)
    t0 = time.perf_counter() + lead_s
    samples = [Sample(index=i, due=t0 + off, sent=math.nan)
               for i, off in enumerate(offsets)]
    order = sorted(range(len(lines)), key=lambda i: offsets[i])
    mine = [order[c::connections] for c in range(connections)]
    deadline = t0 + (max(offsets) if offsets else 0.0) + timeout_s
    raw: List[Tuple[float, bytes]] = []

    async def send(writer: asyncio.StreamWriter, idx: List[int]) -> None:
        for i in idx:
            delay = samples[i].due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            samples[i].sent = time.perf_counter()
            try:
                writer.write(lines[i])
                await writer.drain()
            except OSError:
                return  # connection lost: the rest stay unanswered

    try:
        await asyncio.gather(*(
            part for (reader, writer), idx in zip(conns, mine)
            for part in (send(writer, idx),
                         _read_n(reader, len(idx), deadline, raw))))
    finally:
        for _, writer in conns:
            await _close(writer)
    t_end = max((t for t, _ in raw), default=t0)
    return decode_responses(PhaseResult(samples=samples, t_start=t0,
                                        t_end=t_end, raw=raw))


async def closed_loop(host: str, port: int,
                      make_line: Callable[[int], bytes], in_flight: int,
                      duration_s: float, connections: int = 2,
                      timeout_s: float = 60.0) -> PhaseResult:
    """Keep ``in_flight`` requests outstanding (split evenly over the
    connections) for ``duration_s``, then let the last ones finish.

    ``make_line(i)`` returns the encoded request with ``id`` ``i``; it
    must only splice pre-encoded bytes.  ``t_stop`` is when sending
    stopped: completions up to it, over ``t_stop - t_start``, are the
    capacity at ``in_flight`` outstanding requests.
    """
    if in_flight < connections or in_flight % connections:
        raise ValueError("in_flight must be a positive multiple of "
                         "connections")
    window = in_flight // connections
    conns = await _connect_all(host, port, connections)
    samples: List[Sample] = []
    raw: List[Tuple[float, bytes]] = []
    outstanding = 0
    peak = 0
    t0 = time.perf_counter()
    stop_at = t0 + duration_s

    def send_one(writer: asyncio.StreamWriter) -> None:
        nonlocal outstanding, peak
        i = len(samples)
        now = time.perf_counter()
        samples.append(Sample(index=i, due=now, sent=now))
        writer.write(make_line(i))
        outstanding += 1
        peak = max(peak, outstanding)

    async def drive(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        nonlocal outstanding
        mine = 0
        for _ in range(window):
            send_one(writer)
            mine += 1
        try:
            await writer.drain()
        except OSError:
            return
        deadline = stop_at + timeout_s
        while mine:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return
            try:
                line = await asyncio.wait_for(reader.readline(), remaining)
            except (asyncio.TimeoutError, OSError):
                return
            if not line:
                return
            raw.append((time.perf_counter(), line))
            outstanding -= 1
            mine -= 1
            if time.perf_counter() < stop_at:
                send_one(writer)
                mine += 1
                try:
                    await writer.drain()
                except OSError:
                    return

    try:
        await asyncio.gather(*(drive(r, w) for r, w in conns))
    finally:
        for _, writer in conns:
            await _close(writer)
    t_end = max((t for t, _ in raw), default=t0)
    return decode_responses(PhaseResult(samples=samples, t_start=t0,
                                        t_end=t_end, t_stop=stop_at,
                                        max_in_flight=peak, raw=raw))
