"""The traced pass: per-layer metrics of one workload.

End-to-end numbers never come from here.  A traced run measures the
workload once untraced (the reference), once traced, and then times
calls into each layer's public functions inside bench-side ``repro.obs``
spans, on the workload's primary matrix and power.  Serving layers are
read from the spans and counters the server already emits under
``serve --trace/--report``.

Each layer metric is measured only on the workloads it applies to:

* every workload: the tuner, reordering and operator build on the
  primary matrix (they decide ``setup_s``), the tuned operator's
  ``power`` (the sweep under every call and request), and the bench's
  own ``check.bitwise_share``, ``trace.overhead`` and
  ``attrib.unattributed_share``; these are the ``per_layer`` metrics of
  ``BENCHMARK.json``;
* library workloads only: computed traffic, the serial baselines and
  the parallel executors;
* serving workloads only: the wire protocol, the server's spans and
  counters, and the load generator's lateness.

All of them are printed and written to the layer table; the result
line carries the ``BENCHMARK.json`` ones.  Every output a probe computes
with a tuned or parallel operator is checked like the timed outputs.

Outputs, per workload, in ``results/``: ``<workload>.trace.json`` (the
bench-side Chrome trace), ``<workload>.server-trace.json`` (the
server's, serving workloads) and ``<workload>.layers.json`` (the layer
table).
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Sequence, Tuple

import numpy as np

import workloads
from workloads import Check, MpkWorkload, Oracle, RunResult, fresh_dir

RESULTS = workloads.HERE / "results"
#: Timed repetitions behind each probe median.
REPS = 9
#: Rows per block of the levels-blocked plans timed as the serial
#: alternative to the tuned plan and as the parallel probes.
LB_BLOCK = 4096
PARALLEL_WORKERS = 2
#: Units of the layer metrics that apply to some workloads only, and so
#: are not among the ``per_layer`` metrics of ``BENCHMARK.json``.
UNITS = {
    "memsim.bytes_mb": "MB",
    "core.gbps_computed": "GB/s",
    "ref.best_serial_ms": "ms",
    "ref.headroom": "ratio",
    "ref.fbmpk_speedup": "ratio",
    "parallel.threads_ms": "ms",
    "parallel.processes_ms": "ms",
    "parallel.barriers": "count",
    "parallel.enqueues": "count",
    "parallel.steals": "count",
    "parallel.efficiency": "ratio",
    "serve.protocol.decode_ms": "ms",
    "serve.protocol.encode_ms": "ms",
    "serve.request_ms": "ms",
    "serve.batch_ms": "ms",
    "serve.outside_ms": "ms",
    "serve.batch_width_mean": "count",
    "serve.registry.builds": "count",
    "serve.registry.evictions": "count",
    "serve.registry.hit_ratio": "ratio",
    "serve.build_s": "s",
    "loadgen.late_p95_ms": "ms",
}


def _p50_ms(fn: Callable[[], Any], reps: int = REPS) -> float:
    fn()  # warm
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def cache_sizes() -> Dict[str, int]:
    """Per-level unified/data cache sizes of CPU 0, in bytes, from sysfs
    (empty when sysfs does not expose them)."""
    sizes: Dict[str, int] = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1], 1)
        sizes[f"L{level}"] = int(text.rstrip("KMG")) * scale
    return sizes


# ---------------------------------------------------------------------------
# library layers
# ---------------------------------------------------------------------------
def library_probes(a, x: np.ndarray, k: int, tune_k: int, oracle: Oracle,
                   check: Check, baselines: bool
                   ) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Time each library layer on matrix ``a`` (inside ``probe.*``
    spans).  ``baselines`` adds computed traffic, the serial baselines
    and the parallel executors (library workloads)."""
    from repro import obs
    from repro.core import KernelCounter, build_fbmpk_operator
    from repro.reorder import abmc_ordering
    from repro.tune import autotune_power, plan_is_bit_identical_by_design

    policy = workloads.tune_policy()
    ref, tol = oracle.expect(0, x, k)
    m: Dict[str, float] = {}
    d: Dict[str, Any] = {}

    def tune(cache):
        return autotune_power(a, k=tune_k, cache=str(cache),
                              repeats=policy["repeats"],
                              max_candidates=policy["max_candidates"])

    cache = fresh_dir("plans-")
    with obs.span("probe.tune"):
        tuned, result = tune(cache)
    try:
        trials = result.trials
        m["tune.search_s"] = result.search_s
        m["tune.candidates_timed"] = len(trials)
        m["tune.eligible_share"] = sum(
            plan_is_bit_identical_by_design(t.plan)
            for t in trials) / len(trials)
        d["tune.plan"] = result.plan.label
        d["tune.trials"] = [{"plan": t.plan.label, "time_s": t.time_s,
                             "accepted": t.accepted} for t in trials]
        with obs.span("probe.tune_cache_hit"):
            (hit, _), m["tune.cache_hit_s"] = _timed(lambda: tune(cache))
        hit.close()
        with obs.span("probe.reorder"):
            _, m["reorder.abmc_s"] = _timed(
                lambda: abmc_ordering(a, block_size=1))
        with obs.span("probe.build"):
            default, m["core.build_s"] = _timed(
                lambda: build_fbmpk_operator(a))
        default.close()
        with obs.span("probe.power"):
            m["core.power_ms"] = _p50_ms(lambda: tuned.power(x, k))
            counter = KernelCounter()
            check.add(tuned.power(x, k, counter=counter), ref, tol)
        m["core.matrix_passes"] = counter.l_passes + counter.u_passes
        if baselines:
            more, d["baselines"] = baseline_probes(
                a, x, k, result.plan.params, m["core.power_ms"], ref, tol,
                check)
            m.update(more)
    finally:
        tuned.close()
    return m, d


def baseline_probes(a, x: np.ndarray, k: int, params: Dict[str, Any],
                    power_ms: float, ref: np.ndarray, tol: np.ndarray,
                    check: Check) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Computed traffic of the tuned plan, the best serial plan, the
    paper's ratio against ``k`` plain SpMVs, and the parallel
    executors."""
    from repro import obs
    from repro.core import build_fbmpk_operator, mpk_standard
    from repro.memsim import (MatrixTrafficStats, fbmpk_traffic,
                              levels_blocked_traffic)

    m: Dict[str, float] = {}
    d: Dict[str, Any] = {}
    serial = {}
    with obs.span("probe.baselines"):
        for label, kwargs in (("default", {}),
                              (f"levels-blocked@{LB_BLOCK}",
                               {"strategy": "levels-blocked",
                                "block_size": LB_BLOCK})):
            op = build_fbmpk_operator(a, **kwargs)
            try:
                serial[label] = _p50_ms(lambda: op.power(x, k))
                check.add(op.power(x, k), ref, tol)
            finally:
                op.close()
        standard_ms = _p50_ms(lambda: mpk_standard(a, x, k))
    best = min(serial, key=serial.get)
    m["ref.best_serial_ms"] = serial[best]
    m["ref.headroom"] = power_ms / serial[best]
    m["ref.fbmpk_speedup"] = standard_ms / power_ms
    d["serial_ms"] = serial
    d["best_serial"] = best

    l2 = cache_sizes().get("L2", 1 << 20)
    stats = MatrixTrafficStats.from_csr(a)
    if params.get("strategy") == "levels-blocked":
        traffic = levels_blocked_traffic(stats, k, l2,
                                         block_rows=params["block_size"])
    else:
        traffic = fbmpk_traffic(stats, k, l2)
    m["memsim.bytes_mb"] = traffic.total_bytes / 1e6
    m["core.gbps_computed"] = traffic.total_bytes / power_ms / 1e6
    d["memsim.cache_bytes"] = l2

    for executor in ("threads", "processes"):
        op = build_fbmpk_operator(a, strategy="levels-blocked",
                                  block_size=LB_BLOCK, executor=executor,
                                  n_threads=PARALLEL_WORKERS)
        try:
            with obs.span(f"probe.parallel.{executor}"):
                m[f"parallel.{executor}_ms"] = _p50_ms(
                    lambda: op.power(x, k))
            check.add(op.power(x, k), ref, tol)
            stats_ = op.last_stats
        finally:
            op.close()
    m["parallel.barriers"] = stats_.barriers
    m["parallel.enqueues"] = stats_.enqueues
    m["parallel.steals"] = stats_.steals
    m["parallel.efficiency"] = stats_.efficiency
    return m, d


def protocol_probes(a, matrix: workloads.Standin, k: int,
                    seed: int) -> Dict[str, float]:
    """Decode and encode costs of the wire protocol on this workload's
    own request and response sizes."""
    from repro import obs
    from repro.serve.protocol import encode_line, ok_response, parse_request

    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(a.n_rows) for _ in range(REPS)]
    lines = [json.dumps({"id": i, "op": "power", "tenant": "probe",
                         "matrix": matrix.payload(), "k": k,
                         "x": x.tolist()}).encode()
             for i, x in enumerate(xs)]
    meta = {"n": a.n_rows, "k": k, "batch_width": 1}
    decode, encode = [], []
    with obs.span("probe.protocol"):
        for i, (line, x) in enumerate(zip(lines, xs)):
            _, t = _timed(lambda: parse_request(json.loads(line)))
            decode.append(t)
            _, t = _timed(lambda: encode_line(ok_response(
                i, y=x.tolist(), meta=meta)))
            encode.append(t)
    return {"serve.protocol.decode_ms": statistics.median(decode) * 1e3,
            "serve.protocol.encode_ms": statistics.median(encode) * 1e3}


# ---------------------------------------------------------------------------
# serving layers, from the server's own trace and report
# ---------------------------------------------------------------------------
def serve_layers(trace_path: Path, report_path: Path,
                 open_latency_ms: Sequence[float]) -> Dict[str, float]:
    """Serving-layer metrics of the open-loop phase.

    ``open_latency_ms`` are the client's due-to-receipt latencies of the
    same phase; the part no server span covers is the unattributed
    share (framing, JSON decode and encode, event-loop wait and TCP).
    """
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    requests = [e for e in spans if e["name"] == "serve.request"
                and str(e["args"].get("tenant", "")).startswith("open-")]
    lo = min(e["ts"] for e in requests)
    hi = max(e["ts"] + e["dur"] for e in requests)
    batches = [e for e in spans if e["name"] == "serve.batch"
               and lo <= e["ts"] <= hi]
    builds = [e for e in spans if e["name"] == "serve.build"]
    counters = json.loads(report_path.read_text())["metrics"]["counters"]

    def count(name: str) -> float:
        return counters.get(name, {}).get("value", 0.0)

    request_ms = statistics.median(e["dur"] for e in requests) / 1e3
    lat = [v for v in open_latency_ms if np.isfinite(v)]
    hits, builds_n = count("serve.operator.hits"), \
        count("serve.operator.builds")
    return {
        "serve.request_ms": request_ms,
        "serve.batch_ms": statistics.median(e["dur"] for e in batches) / 1e3,
        "serve.outside_ms": statistics.median(lat) - request_ms,
        "serve.batch_width_mean": count("serve.requests.completed")
        / max(count("serve.batches"), 1.0),
        "serve.registry.builds": builds_n,
        "serve.registry.evictions": count("serve.operator.evictions"),
        "serve.registry.hit_ratio": hits / max(hits + builds_n, 1.0),
        "serve.build_s": sum(e["dur"] for e in builds) / 1e6,
        "attrib.unattributed_share": 1.0 - sum(e["dur"] for e in requests)
        / 1e3 / sum(lat),
    }


def mpk_attribution(records) -> float:
    """Self time of the timed-phase span over its duration: the share of
    the library workload's timed wall time no layer span covers."""
    root = next(r for r in records if r.name == "bench.timed")
    children = sum(r.dur for r in records if r.parent_id == root.span_id)
    return (root.dur - children) / root.dur


# ---------------------------------------------------------------------------
# one traced run
# ---------------------------------------------------------------------------
LAYER_MOVES = {
    "tune": "setup_s on mpk-* and serve-shared; flat on serve-churn "
            "(warm plan cache), where tune.cache_hit_s moves setup_s",
    "reorder": "setup_s on mpk-* and serve-shared",
    "core": "core.build_s: setup_s on mpk-* and serve-shared; "
            "core.power_ms: latency_p50_ms and gnnz_per_s on mpk-*",
    "memsim": "model input for core.gbps_computed",
    "ref": "baseline for every mpk speed-up",
    "parallel": "latency_p50_ms on mpk-fem once the tuner can select it",
    "serve": "latency_p50_ms and latency_tail_ms on serve-*, gnnz_per_s "
             "(capacity) on serve-shared",
    "loadgen": "none (validity: a run above 20 ms is not valid)",
    "check": "none (exactness made visible)",
    "trace": "none (instrumentation cost)",
    "attrib": "none (what no span covers)",
}


def traced_run(name: str, seed: int, seconds: float) -> RunResult:
    """Reference run, traced run, probes; writes the result files and
    returns the per-layer metrics with every output check of the run."""
    from repro import obs

    w = workloads.WORKLOADS[name]
    RESULTS.mkdir(exist_ok=True)
    server_trace = RESULTS / f"{name}.server-trace.json"
    server_report = workloads.fresh_dir("report-") / "report.json"
    matrix, k = w.primary
    a = matrix.load()
    x = np.random.default_rng(seed).standard_normal(a.n_rows)
    # The reference and the traced measurement split the run's seconds.
    half = seconds / 2
    base = w.run(seed, half, setups=1)
    m: Dict[str, float] = {}
    res = RunResult(attempted=base.attempted, failed=base.failed)
    res.check.merge(base.check)
    oracle = Oracle(a)
    tel = obs.Telemetry()
    try:
        with tel:
            if isinstance(w, MpkWorkload):
                traced = w.run(seed, half, setups=1, span=obs.span)
                m["attrib.unattributed_share"] = mpk_attribution(
                    tel.recorder.records())
                tune_k = w.k
            else:
                traced = w.run(seed, half, setups=1, trace=server_trace,
                               report=server_report)
                m.update(serve_layers(server_trace, server_report,
                                      traced.details["open_latency_ms"]))
                m.update(protocol_probes(a, matrix, k, seed))
                m["loadgen.late_p95_ms"] = max(
                    base.details["late_p95_ms"],
                    traced.details["late_p95_ms"])
                tune_k = workloads.tune_policy()["tune_k"]
            lib, details = library_probes(
                a, x, k, tune_k, oracle, res.check,
                baselines=isinstance(w, MpkWorkload))
            m.update(lib)
    finally:
        oracle.close()
    tel.write_trace(RESULTS / f"{name}.trace.json")
    res.attempted += traced.attempted
    res.failed += traced.failed
    res.check.merge(traced.check)
    m["check.bitwise_share"] = res.check.bitwise / res.check.checked
    m["trace.overhead"] = traced.metrics["latency_p50_ms"] \
        / base.metrics["latency_p50_ms"] - 1.0
    res.metrics = m
    res.details = {"layers": details}
    if "loadgen.late_p95_ms" in m:
        res.details["late_p95_ms"] = m["loadgen.late_p95_ms"]
    table = {
        "workload": name, "seed": seed, "seconds": seconds,
        "primary": {"matrix": matrix.payload(), "k": k},
        "computed_not_measured": ["memsim.bytes_mb", "core.gbps_computed"],
        "layer_moves": LAYER_MOVES,
        "metrics": m, "details": details,
    }
    (RESULTS / f"{name}.layers.json").write_text(
        json.dumps(table, indent=2, sort_keys=True) + "\n")
    return res
