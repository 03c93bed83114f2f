"""Wire protocol: newline-delimited JSON requests and responses.

One request per line, one response line per request, matched by the
client-chosen ``id`` (responses may arrive out of submission order —
the whole point of batching is that several requests complete
together).  This module owns the one codec both directions use:
:func:`encode_line` writes with ``orjson``, whose float formatting is
Ryu's shortest round-trip representation, so a float64 result survives
the response encoding **bit-exactly** — what the batched sweep computed
is what the client's ``np.array(resp["y"])`` holds, whether the client
parses with ``orjson`` or with the standard library's ``json``.
:func:`decode_line` parses request lines, and reads the shortest
round-trip floats a stdlib ``json.dumps`` client writes back to the
same bits.

The wire is strict JSON.  ``NaN`` and ``Infinity`` are not JSON
literals (stdlib ``json.dumps`` writes them anyway), so a request line
carrying one fails to decode and gets a structured ``bad_request``;
the connection stays open.  In-process :meth:`SolveService.handle`
callers, which pass decoded objects, still get ``non_finite`` for
NaN/Inf entries of ``x``.  Non-finite floats in *control* responses
(``stats``, ``metrics``, ...) encode as ``null``.  An integer ``id``
must fit in 64 bits; a wider one decodes as a float and is echoed as
one.

Requests::

    {"id": "r1", "op": "power", "tenant": "alice",
     "matrix": {"standin": "cant", "rows": 2000, "seed": 0},
     "k": 4, "x": [/* n floats */], "deadline_ms": 5000}
    {"id": "p1", "op": "ping"}
    {"id": "s1", "op": "stats"}
    {"id": "h1", "op": "health"}
    {"id": "h2", "op": "ready"}
    {"id": "m1", "op": "metrics"}
    {"id": "q1", "op": "shutdown"}

``deadline_ms`` (optional, ``power`` only) is a per-request latency
budget counted from parse time: a request whose deadline passes while
it is still queued (or before its batch is sealed) receives a
structured ``deadline_exceeded`` rejection instead of a late result,
and an expired request is never admitted into a batch.
``deadline_ms <= 0`` is rejected at parse time as ``bad_request``.

Responses::

    {"id": "r1", "ok": true, "y": [...], "meta": {"batch_width": 3}}
    {"id": "r1", "ok": false,
     "error": {"code": "queue_full", "message": "..."}}

Error codes are the closed set in :data:`ERROR_CODES`; clients can
switch on them without parsing messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np
import orjson

from ..robust.resilience import Deadline
from .spec import MatrixSpec, SpecError, TooLargeError

__all__ = [
    "ERROR_CODES",
    "ProtocolError",
    "QueueFullError",
    "ServiceClosedError",
    "PowerRequest",
    "ControlRequest",
    "parse_request",
    "ok_response",
    "error_response",
    "encode_line",
    "decode_line",
    "decode_vector",
]

#: Closed set of structured error codes a response may carry.
ERROR_CODES = frozenset({
    "bad_request",        # malformed/unparseable request or matrix spec
    "queue_full",         # admission control rejected the request
    "too_large",          # matrix exceeds this server's max_rows cap
    "deadline_exceeded",  # the request's deadline_ms budget ran out
    "shutting_down",      # service is draining; no new work accepted
    "non_finite",         # NaN/Inf in the input or a produced iterate
    "internal",           # unexpected server-side failure
})

#: Ops the protocol understands.
OPS = ("power", "ping", "stats", "health", "ready", "metrics",
       "shutdown")


class ProtocolError(ValueError):
    """A request that cannot be served, with its structured code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message


class QueueFullError(ProtocolError):
    """Admission control turned the request away."""

    def __init__(self, message: str) -> None:
        super().__init__("queue_full", message)


class ServiceClosedError(ProtocolError):
    """The service is shutting down and accepts no new work."""

    def __init__(self, message: str = "service is shutting down") -> None:
        super().__init__("shutting_down", message)


@dataclass
class PowerRequest:
    """A parsed ``power`` request: compute ``A^k x`` for one tenant."""

    id: Any
    spec: MatrixSpec
    k: int
    x: np.ndarray
    tenant: str = "anon"
    #: Latency budget, counted from parse time.  ``Deadline.never()``
    #: when the request carried no ``deadline_ms``.
    deadline: Deadline = field(default_factory=Deadline.never)
    op: str = field(default="power", init=False)


@dataclass
class ControlRequest:
    """A parsed ``ping``/``stats``/``shutdown`` request."""

    id: Any
    op: str
    tenant: str = "anon"


def _request_id(obj: Mapping[str, Any]) -> Any:
    rid = obj.get("id")
    if rid is not None and not isinstance(rid, (str, int)):
        raise ProtocolError("bad_request", "id: expected string or integer")
    return rid


def decode_vector(raw: Any, name: str = "x") -> np.ndarray:
    """Parse a JSON number list into a float64 vector."""
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("bad_request",
                            f"{name}: expected a non-empty number list")
    try:
        x = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProtocolError("bad_request",
                            f"{name}: expected a number list") from None
    if x.ndim != 1:
        raise ProtocolError("bad_request", f"{name}: expected a flat list")
    return x


def parse_request(obj: Any, max_rows: int = 200_000,
                  allow_paths: bool = False
                  ) -> Union[PowerRequest, ControlRequest]:
    """Validate one decoded request object.

    Raises :class:`ProtocolError` (always code ``bad_request``) on any
    malformation; the ``id`` is recovered best-effort first so the
    response can still be matched to the request.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("bad_request", "request must be a JSON object")
    rid = _request_id(obj)
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(
            "bad_request", f"op: expected one of {', '.join(OPS)}, "
                           f"got {op!r}")
    tenant = obj.get("tenant", "anon")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError("bad_request",
                            "tenant: expected a non-empty string")
    if op != "power":
        return ControlRequest(id=rid, op=op, tenant=tenant)
    try:
        spec = MatrixSpec.from_payload(obj.get("matrix"), max_rows=max_rows,
                                       allow_paths=allow_paths)
    except TooLargeError as exc:
        raise ProtocolError("too_large", str(exc)) from None
    except SpecError as exc:
        raise ProtocolError("bad_request", str(exc)) from None
    k = obj.get("k", 4)
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ProtocolError("bad_request",
                            "k: expected a non-negative integer")
    deadline = Deadline.never()
    raw_deadline = obj.get("deadline_ms")
    if raw_deadline is not None:
        if not isinstance(raw_deadline, (int, float)) \
                or isinstance(raw_deadline, bool) or raw_deadline <= 0:
            raise ProtocolError(
                "bad_request",
                "deadline_ms: expected a positive number of milliseconds")
        deadline = Deadline.after_ms(float(raw_deadline))
    x = decode_vector(obj.get("x"))
    return PowerRequest(id=rid, spec=spec, k=k, x=x, tenant=tenant,
                        deadline=deadline)


def ok_response(rid: Any, **payload: Any) -> Dict[str, Any]:
    """Success envelope for request ``rid``."""
    resp: Dict[str, Any] = {"id": rid, "ok": True}
    resp.update(payload)
    return resp


def error_response(rid: Any, code: str,
                   message: str) -> Dict[str, Any]:
    """Failure envelope carrying a structured code from
    :data:`ERROR_CODES`."""
    if code not in ERROR_CODES:
        code, message = "internal", f"[{code}] {message}"
    return {"id": rid, "ok": False,
            "error": {"code": code, "message": message}}


#: ``orjson`` options of every line this module writes.
_ENCODE_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE


def encode_line(obj: Mapping[str, Any]) -> bytes:
    """Serialise one response/request as a newline-terminated JSON line.

    Compact, with shortest round-trip (Ryu) floats, which preserve every
    float64 bit across the wire.  C-contiguous numpy arrays (the owned
    result vectors) are written directly, without ``tolist()``;
    non-finite floats become ``null``.
    """
    return orjson.dumps(obj, option=_ENCODE_OPTIONS)


def decode_line(line: Union[bytes, str]) -> Any:
    """Parse one JSON line; raises :class:`ProtocolError` (code
    ``bad_request``) when it is not JSON, ``NaN``/``Infinity`` literals
    included."""
    try:
        return orjson.loads(line)
    except orjson.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from None
