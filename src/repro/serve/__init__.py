"""Multi-tenant async solve service with request batching.

``repro.serve`` turns the library into a long-running server: clients
submit ``A^k x`` requests over newline-delimited JSON, the first
request per matrix structure pays preprocessing + autotuning once (via
the :mod:`repro.tune` plan cache) and pins a resident operator, and
concurrent requests for the same ``(matrix, k)`` are stacked into one
multi-RHS ``power_block`` sweep — one read of A serves the whole batch,
with results bitwise-identical to unbatched serial calls.

Layers (transport-agnostic core, thin shell):

* :class:`ServeConfig` — every knob in one dataclass;
* :class:`MatrixSpec` — how requests name matrices;
* :mod:`~repro.serve.protocol` — the line codec, wire envelopes and
  structured errors;
* :class:`OperatorRegistry` — LRU-bounded resident operators with
  refcounted eviction;
* :class:`Batcher` — the batching queue, sealed when its operator
  goes idle;
* :class:`SolveService` — parse → acquire → batch → respond;
* :class:`SolveServer` — the asyncio TCP front end
  (``python -m repro serve``).
"""

from .batcher import Batcher, split_block
from .config import BATCH_WIDTH_BUCKETS, ServeConfig
from .protocol import (
    ERROR_CODES,
    ControlRequest,
    PowerRequest,
    ProtocolError,
    QueueFullError,
    ServiceClosedError,
    decode_line,
    encode_line,
    error_response,
    ok_response,
    parse_request,
)
from .registry import OperatorRegistry, ResidentOperator
from .server import SolveServer
from .service import SolveService
from .spec import MatrixSpec, SpecError, TooLargeError

__all__ = [
    "BATCH_WIDTH_BUCKETS",
    "Batcher",
    "ControlRequest",
    "ERROR_CODES",
    "MatrixSpec",
    "OperatorRegistry",
    "PowerRequest",
    "ProtocolError",
    "QueueFullError",
    "ResidentOperator",
    "ServeConfig",
    "ServiceClosedError",
    "SolveServer",
    "SolveService",
    "SpecError",
    "TooLargeError",
    "decode_line",
    "encode_line",
    "error_response",
    "ok_response",
    "parse_request",
    "split_block",
]
