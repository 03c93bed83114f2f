"""Asyncio TCP shell around :class:`~repro.serve.service.SolveService`.

Framing is one JSON object per line in both directions (see
:mod:`repro.serve.protocol`).  Each connection gets its own reader
loop; each request line becomes its own task, so a slow batch never
blocks the connection from submitting more requests — that concurrency
is precisely what fills the next batch while the current one runs.
Responses are written under a per-connection lock (they may complete
out of order).  Lines are decoded and encoded by the codec of
:mod:`repro.serve.protocol`; the ``serve.decode`` and ``serve.encode``
spans time that wire layer on either side of ``serve.request``.

Disconnect semantics: when a client drops, every request task spawned
for that connection is cancelled.  A cancelled request's future is
abandoned — the batcher drops it at flush time (or skips its slot when
setting results), and the batch still completes for everyone else.
"""

from __future__ import annotations

import asyncio
from typing import Optional, Set

from .. import obs
from ..obs.exporter import MetricsHTTPServer
from .protocol import (ProtocolError, decode_line, encode_line,
                       error_response)
from .service import SolveService

__all__ = ["SolveServer"]


class SolveServer:
    """NDJSON-over-TCP front end; ``port=0`` binds an ephemeral port.

    When ``config.metrics_port`` is set (0 = ephemeral), :meth:`start`
    additionally launches the Prometheus exposition endpoint of
    :class:`~repro.obs.exporter.MetricsHTTPServer` on a daemon thread;
    the resolved port is :attr:`metrics_port`.
    """

    def __init__(self, service: SolveService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._metrics_http: Optional[MetricsHTTPServer] = None

    @property
    def metrics_port(self) -> Optional[int]:
        """Resolved port of the ``/metrics`` endpoint (None = off)."""
        return None if self._metrics_http is None \
            else self._metrics_http.port

    async def start(self) -> "SolveServer":
        """Bind and start accepting; resolves the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=self.service.config.max_line_bytes)
        self.port = self._server.sockets[0].getsockname()[1]
        cfg = self.service.config
        if cfg.metrics_port is not None and self._metrics_http is None:
            self._metrics_http = MetricsHTTPServer(
                host=cfg.metrics_host, port=cfg.metrics_port).start()
            obs.event("serve.metrics_listening",
                      port=self._metrics_http.port)
        obs.event("serve.listening", host=self.host, port=self.port)
        return self

    async def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` request arrives (or
        :meth:`aclose` is called), then drain and close."""
        if self._server is None:
            await self.start()
        try:
            await self.service.shutdown_requested.wait()
        finally:
            await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, drop live connections, drain the service."""
        if self._metrics_http is not None:
            self._metrics_http.stop()
            self._metrics_http = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        await self.service.close()

    # -- one connection --------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        obs.add_counter("serve.connections")
        write_lock = asyncio.Lock()
        request_tasks: Set[asyncio.Task] = set()
        try:
            await self._read_loop(reader, writer, write_lock,
                                  request_tasks)
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection's reader; end
            # the handler cleanly (asyncio's stream glue re-raises a
            # propagated CancelledError as loop noise otherwise).
            pass
        finally:
            # Disconnect (or server shutdown): abandon this client's
            # outstanding requests.  Their batch slots are skipped; the
            # batches themselves run to completion for other clients.
            for t in list(request_tasks):
                t.cancel()
            if request_tasks:
                await asyncio.gather(*request_tasks,
                                     return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_loop(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter,
                         write_lock: asyncio.Lock,
                         request_tasks: Set[asyncio.Task]) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                # Oversized request line: the stream is no longer
                # frameable, so reject and hang up.
                await self._send(writer, write_lock, error_response(
                    None, "bad_request",
                    f"request line exceeds "
                    f"{self.service.config.max_line_bytes} bytes"))
                return
            except (ConnectionError, OSError):
                return
            if not line:
                return  # EOF: client is done sending
            line = line.strip()
            if not line:
                continue
            try:
                with obs.span("serve.decode", bytes=len(line)):
                    obj = decode_line(line)
            except ProtocolError as exc:
                await self._send(writer, write_lock, error_response(
                    None, exc.code, exc.message))
                continue
            t = asyncio.get_running_loop().create_task(
                self._dispatch(obj, writer, write_lock))
            request_tasks.add(t)
            t.add_done_callback(request_tasks.discard)

    async def _dispatch(self, obj, writer: asyncio.StreamWriter,
                        write_lock: asyncio.Lock) -> None:
        try:
            resp = await self.service.handle(obj)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # service.handle should never raise
            rid = obj.get("id") if isinstance(obj, dict) else None
            resp = error_response(rid, "internal", repr(exc))
        await self._send(writer, write_lock, resp)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock,
                    obj) -> None:
        async with lock:
            if writer.is_closing():
                return
            # The span closes before the drain's await, so no other
            # task's spans nest under it.
            with obs.span("serve.encode"):
                writer.write(encode_line(obj))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
