"""Wire-protocol unit tests: request validation, the closed error-code
set, and bit-exact float64 JSON round-trips through the line codec."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.serve import (
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
from repro.serve.spec import MatrixSpec, SpecError


def power_payload(**over):
    base = {"id": "r1", "op": "power",
            "matrix": {"standin": "cant", "rows": 500},
            "k": 3, "x": [1.0, 2.0, 3.0]}
    base.update(over)
    return base


# -- happy paths -----------------------------------------------------------
def test_parse_power_request():
    req = parse_request(power_payload(tenant="alice"))
    assert isinstance(req, PowerRequest)
    assert req.id == "r1"
    assert req.spec == MatrixSpec(standin="cant", rows=500, seed=0)
    assert req.k == 3
    assert req.tenant == "alice"
    assert req.x.dtype == np.float64
    assert req.x.tolist() == [1.0, 2.0, 3.0]


def test_parse_defaults():
    req = parse_request({"op": "power",
                         "matrix": {"standin": "cant"},
                         "x": [1.0]})
    assert req.id is None
    assert req.k == 4
    assert req.tenant == "anon"
    assert req.spec.rows == 2000


@pytest.mark.parametrize("op", ["ping", "stats", "shutdown"])
def test_parse_control_requests(op):
    req = parse_request({"id": 7, "op": op})
    assert isinstance(req, ControlRequest)
    assert req.op == op
    assert req.id == 7


# -- rejections ------------------------------------------------------------
@pytest.mark.parametrize("payload", [
    "not an object",
    ["also", "not"],
    {},                                      # no op
    {"op": "frobnicate"},                    # unknown op
    power_payload(id=[1, 2]),                # bad id type
    power_payload(tenant=""),                # empty tenant
    power_payload(tenant=42),                # non-string tenant
    power_payload(k=-1),                     # negative k
    power_payload(k=2.5),                    # non-integer k
    power_payload(k=True),                   # bool is not an int here
    power_payload(x=[]),                     # empty vector
    power_payload(x="nope"),                 # non-list vector
    power_payload(x=[[1.0], [2.0]]),         # nested
    power_payload(x=[1.0, "two"]),           # non-numeric entry
    power_payload(matrix=None),              # missing matrix
    power_payload(matrix={"standin": "no-such-matrix"}),
    power_payload(matrix={"standin": "cant", "rows": 0}),
    power_payload(matrix={"path": "a.mtx"}),  # paths disabled
])
def test_parse_rejects_malformed(payload):
    with pytest.raises(ProtocolError) as exc_info:
        parse_request(payload)
    assert exc_info.value.code == "bad_request"


def test_rows_cap_enforced():
    with pytest.raises(ProtocolError, match="cap"):
        parse_request(power_payload(
            matrix={"standin": "cant", "rows": 10_000}), max_rows=5_000)


def test_paths_allowed_when_enabled():
    req = parse_request(power_payload(matrix={"path": "m.mtx"}),
                        allow_paths=True)
    assert req.spec.path == "m.mtx"
    assert req.spec.key() == "path:m.mtx"


# -- error machinery -------------------------------------------------------
def test_protocol_error_requires_known_code():
    with pytest.raises(ValueError):
        ProtocolError("not_a_code", "boom")


def test_typed_errors_carry_their_codes():
    assert QueueFullError("full").code == "queue_full"
    assert ServiceClosedError().code == "shutting_down"
    assert QueueFullError("full").code in ERROR_CODES


def test_error_response_maps_unknown_code_to_internal():
    resp = error_response("r1", "weird", "msg")
    assert resp["error"]["code"] == "internal"
    assert "weird" in resp["error"]["message"]


def test_response_envelopes():
    ok = ok_response("a", y=[1.0])
    assert ok == {"id": "a", "ok": True, "y": [1.0]}
    err = error_response("a", "queue_full", "busy")
    assert err["ok"] is False
    assert err["error"] == {"code": "queue_full", "message": "busy"}


# -- bit-exact wire round-trip ---------------------------------------------
def test_float64_survives_json_bit_exactly():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(64) * np.float64(1e30)
    y[0] = np.nextafter(1.0, 2.0)      # 1 + 2^-52
    y[1] = 0.1 + 0.2                   # classic non-representable sum
    line = encode_line(ok_response("r", y=y.tolist()))
    back = np.asarray(json.loads(line)["y"])
    assert back.dtype == np.float64
    assert np.array_equal(back, y)
    assert back.tobytes() == y.tobytes()


EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     0.1 + 0.2, np.nextafter(1.0, 2.0)])


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(1, 48),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(EXTREMES)
def test_codec_round_trips_every_finite_float64_bit_exactly(y):
    """The response line written from the result array decodes to the
    same bits with stdlib ``json`` (what plain clients use) and with
    :func:`decode_line`; a stdlib ``json.dumps`` request line parses to
    the same bits too."""
    line = encode_line(ok_response("r", y=y, meta={"batch_width": 1}))
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    for decode in (json.loads, decode_line):
        back = np.asarray(decode(line)["y"], dtype=np.float64)
        assert back.tobytes() == y.tobytes()
    request = json.dumps(power_payload(x=y.tolist())).encode()
    x = parse_request(decode_line(request)).x
    assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("line", [
    b"not json",
    b'{"id": "r1", "op": "power", "x": [NaN]}',
    b'{"id": "r1", "op": "power", "x": [1.0, -Infinity]}',
    b'{"id": "r1", "op": "power", "x": [1e400]}',
    b"\xff\xfe",
])
def test_decode_line_rejects_non_json_as_bad_request(line):
    with pytest.raises(ProtocolError) as exc_info:
        decode_line(line)
    assert exc_info.value.code == "bad_request"
    assert exc_info.value.message.startswith("invalid JSON")


def test_non_finite_control_values_encode_as_null():
    line = encode_line(ok_response("s", stats={"ratio": float("inf"),
                                               "mean": float("nan")}))
    assert json.loads(line)["stats"] == {"ratio": None, "mean": None}


# -- spec ------------------------------------------------------------------
def test_spec_key_distinguishes_specs():
    keys = {MatrixSpec(standin="cant", rows=100, seed=0).key(),
            MatrixSpec(standin="cant", rows=100, seed=1).key(),
            MatrixSpec(standin="cant", rows=200, seed=0).key(),
            MatrixSpec(path="x.mtx").key()}
    assert len(keys) == 4


def test_spec_load_generates_standin():
    a = MatrixSpec(standin="cant", rows=300, seed=0).load()
    assert a.n_rows == 300


def test_spec_rejects_bad_seed():
    with pytest.raises(SpecError):
        MatrixSpec.from_payload({"standin": "cant", "seed": "zero"})
