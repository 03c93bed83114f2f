"""The benchmark's four workloads and the end-to-end metrics they report.

Two call the library directly (tuned ``A^k x``), two drive
``python -m repro serve`` over TCP.  Each pair holds one input where the
mechanism under test does the work and one where it is bypassed:

* ``mpk-fem`` / ``mpk-circuit``: a banded FEM matrix whose level sets are
  fat, so the sweep kernel dominates, against a circuit matrix whose
  levels are scattered and skinny, so per-invocation overhead dominates.
* ``serve-shared`` / ``serve-churn``: every request on one resident
  matrix (batching and the wire protocol do the work), against six
  matrices under Zipf popularity with three powers (registry misses,
  LRU eviction and plan-cache loads do the work; batches stay narrow).

Every end-to-end metric exists on every workload:

``setup_s``
    median over ``setups`` repetitions of the time a user waits before
    the first result: the cold ``autotune_power`` call (mpk), or server
    launch to the first ok response (serve; cold plan cache on
    serve-shared, pre-warmed on serve-churn, where all six matrices must
    answer once).
``latency_p50_ms`` / ``latency_tail_ms``
    one ``power`` call back to back (mpk), or one request of the open
    loop timed from its due time (serve).  The tail is the highest whole
    percentile with at least ten samples beyond it (at most p95 on mpk);
    it is fixed per workload by the sample count (see ``tail_pct`` in
    the details).  The mpk calls run in rounds of one call on each CPU
    the process may use, and the median is taken over rounds of their
    mean: on a shared host the CPUs differ in speed from moment to
    moment, and a loop left on whichever CPU the scheduler picked
    reports that CPU's speed, not the program's.
``gnnz_per_s``
    useful matrix work per second: ``k * nnz`` summed over completed
    operations, over their wall time.  mpk: the timed calls.
    serve-shared: the closed loop with 16 requests in flight, up to the
    moment it stops sending (capacity).  serve-churn, whose traffic is an
    open loop only: from the first due time to the last response (the
    offered work while the server keeps up; it falls when a backlog
    grows or requests fail).

Correctness: every output is compared with the serial default
``build_fbmpk_operator(a).power(x, k)``; an output is wrong when any
component differs by more than ``1e-10 * (|A|^k |x|)``.  Exact (bitwise)
matches are counted separately.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space of this process (plan caches, server logs, temporary
#: files); ``run.py`` removes it when the run ends.
WORK = HERE / ".work" / str(os.getpid())
#: Matrix work is reported in units of 1e9 nonzeros touched.
GIGA = 1e9
#: Componentwise tolerance factor of the correctness oracle.
REL_TOL = 1e-10
#: Requests kept outstanding by the closed loop of the serve workloads.
IN_FLIGHT = 16
#: Client connections (the host has two CPUs).
CONNECTIONS = 2
#: Requests per stratification block of the serving mixes.
BLOCK = 24
#: Set-ups per run behind the ``setup_s`` median.
SETUPS = 3
#: Seeded vectors a library workload cycles through, and untimed calls
#: before timing starts.
VECTORS = 16
WARM_CALLS = 3
#: Share of ``seconds`` a serving workload with a closed loop spends in
#: the open loop; the closed loop gets the rest.  Both follow an untimed
#: warm-up of ``WARM_S``.
OPEN_SHARE = 0.75
WARM_S = 0.5
#: Tenant names the serving workloads rotate through.
TENANTS = 8


def child_env() -> Dict[str, str]:
    """Environment for server processes: the repo's sources, and every
    temporary file inside the work directory."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def fresh_dir(prefix: str) -> Path:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


@dataclass(frozen=True)
class Standin:
    """A Table II stand-in as the serving protocol names it."""

    name: str
    rows: int
    seed: int = 0

    def payload(self) -> Dict[str, Any]:
        return {"standin": self.name, "rows": self.rows, "seed": self.seed}

    def load(self):
        from repro.matrices import generate_standin

        return generate_standin(self.name, n_rows=self.rows, seed=self.seed)


def tune_policy() -> Dict[str, Any]:
    """The serving tuner policy (``ServeConfig`` defaults), so the bench
    tunes the way a server would."""
    from repro.serve import ServeConfig

    cfg = ServeConfig()
    return {"repeats": cfg.tune_repeats,
            "max_candidates": cfg.tune_max_candidates,
            "tune_k": cfg.tune_k}


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------
class Oracle:
    """Serial default FBMPK reference and the componentwise bound
    ``REL_TOL * |A|^k |x|`` for one matrix."""

    def __init__(self, a) -> None:
        import scipy.sparse as sp
        from repro.core import build_fbmpk_operator

        self.op = build_fbmpk_operator(a)
        self.abs_a = sp.csr_matrix(
            (np.abs(a.data), a.indices, a.indptr), shape=a.shape)
        self._refs: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def expect(self, key: int, x: np.ndarray, k: int
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``(y_ref, tolerance)`` for vector ``key`` (cached)."""
        hit = self._refs.get((key, k))
        if hit is None:
            bound = np.abs(x)
            for _ in range(k):
                bound = self.abs_a @ bound
            hit = (self.op.power(x, k), REL_TOL * bound)
            self._refs[(key, k)] = hit
        return hit

    def close(self) -> None:
        self.op.close()


@dataclass
class Check:
    """Running tally of compared outputs."""

    checked: int = 0
    wrong: int = 0
    bitwise: int = 0

    def add(self, y: np.ndarray, ref: np.ndarray, tol: np.ndarray) -> bool:
        self.checked += 1
        if y.shape != ref.shape or not np.all(np.abs(y - ref) <= tol):
            self.wrong += 1
            return False
        if np.array_equal(y, ref):
            self.bitwise += 1
        return True

    def merge(self, other: "Check") -> None:
        self.checked += other.checked
        self.wrong += other.wrong
        self.bitwise += other.bitwise


@dataclass
class RunResult:
    """One workload run: end-to-end metrics plus what backs them."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    check: Check = field(default_factory=Check)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.check.wrong == 0 and self.check.checked > 0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _csr_mb(a) -> float:
    return (a.data.nbytes + a.indices.nbytes + a.indptr.nbytes) / 1e6


def _no_span(name: str, **attrs):
    return contextlib.nullcontext()


def _tail(values_s: Sequence[float], details: Dict[str, Any],
          cap: int = 95) -> float:
    pct = min(cap, loadgen.tail_percentile(len(values_s)))
    details["tail_pct"] = pct
    details["samples"] = len(values_s)
    return _ms(loadgen.percentile(values_s, pct))


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MpkWorkload:
    """Cold-tuned ``A^k x`` called back to back on one matrix."""

    name: str
    matrix: Standin
    k: int = 8

    @property
    def primary(self) -> Tuple[Standin, int]:
        return self.matrix, self.k

    def tune(self, a, cache_dir: Path):
        from repro.tune import autotune_power

        policy = tune_policy()
        return autotune_power(a, k=self.k, cache=str(cache_dir),
                              repeats=policy["repeats"],
                              max_candidates=policy["max_candidates"])

    def run(self, seed: int, seconds: float, setups: int = SETUPS,
            span=None) -> RunResult:
        """``span`` is ``repro.obs.span`` in the traced pass, where it
        wraps the timed phase, each call and each output check."""
        span = span or _no_span
        res = RunResult()
        a = self.matrix.load()
        setup_s = []
        op = tuning = None
        for _ in range(setups):
            if op is not None:
                op.close()
            cache = fresh_dir("plans-")
            t0 = time.perf_counter()
            op, tuning = self.tune(a, cache)
            setup_s.append(time.perf_counter() - t0)
        rng = np.random.default_rng(seed)
        xs = [rng.standard_normal(a.n_rows) for _ in range(VECTORS)]
        oracle = Oracle(a)
        try:
            refs = [oracle.expect(i, x, self.k) for i, x in enumerate(xs)]
            # Warm calls come first: executor pools are created lazily
            # and must not inherit the single-CPU masks of the rounds.
            for i in range(WARM_CALLS):
                op.power(xs[i % len(xs)], self.k)
            cpus = sorted(os.sched_getaffinity(0))
            times: List[float] = []
            rounds: List[float] = []
            try:
                with span("bench.timed", workload=self.name):
                    start = time.perf_counter()
                    while time.perf_counter() - start < seconds:
                        for cpu in cpus:
                            os.sched_setaffinity(0, {cpu})
                            i = len(times) % len(xs)
                            with span("core.power", k=self.k, cpu=cpu):
                                t0 = time.perf_counter()
                                y = op.power(xs[i], self.k)
                                times.append(time.perf_counter() - t0)
                            with span("bench.check"):
                                res.check.add(y, *refs[i])
                        rounds.append(statistics.fmean(times[-len(cpus):]))
            finally:
                os.sched_setaffinity(0, cpus)
        finally:
            oracle.close()
            op.close()
        res.attempted = len(times)
        res.metrics = {
            "setup_s": statistics.median(setup_s),
            "latency_p50_ms": _ms(statistics.median(rounds)),
            "latency_tail_ms": _tail(times, res.details),
            "gnnz_per_s": self.k * a.nnz * len(times) / sum(times) / GIGA,
        }
        res.details.update(
            setup_runs_s=setup_s, plan=tuning.plan.label,
            n=a.n_rows, nnz=a.nnz, csr_mb=_csr_mb(a), k=self.k,
            matrix=self.matrix.payload())
        return res


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------
class Server:
    """One ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, plan_cache: Path, trace: Optional[Path] = None,
                 report: Optional[Path] = None) -> None:
        self.dir = fresh_dir("serve-")
        self.port_file = self.dir / "port"
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--port-file", str(self.port_file),
               "--plan-cache-dir", str(plan_cache)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        if report is not None:
            cmd += ["--report", str(report)]
        self.log = open(self.dir / "server.log", "wb")
        self.t_launch = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port: Optional[int] = None

    async def wait_port(self, timeout_s: float = 120.0) -> int:
        deadline = time.perf_counter() + timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(self._failure("exited before listening"))
            try:
                text = self.port_file.read_text().strip()
            except FileNotFoundError:
                text = ""
            if text:
                self.port = int(text)
                return self.port
            await asyncio.sleep(0.005)
        raise RuntimeError(self._failure("never wrote its port file"))

    def _failure(self, what: str) -> str:
        self.log.flush()
        tail = (self.dir / "server.log").read_text(errors="replace")[-2000:]
        return f"server {what}; log tail:\n{tail}"

    async def stop(self, timeout_s: float = 60.0) -> None:
        """Remote shutdown (the server drains and writes its telemetry),
        then reap; kill if it does not exit in time."""
        try:
            if self.port is not None and self.proc.poll() is None:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", self.port)
                writer.write(b'{"id":"bye","op":"shutdown"}\n')
                await writer.drain()
                await asyncio.wait_for(reader.readline(), timeout_s)
                writer.close()
            await asyncio.get_running_loop().run_in_executor(
                None, self.proc.wait, timeout_s)
        except (OSError, asyncio.TimeoutError, subprocess.TimeoutExpired):
            pass
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


@dataclass(frozen=True)
class Request:
    spec: int
    k: int
    vec: int
    tenant: str


@dataclass(frozen=True)
class ServeWorkload:
    """Open-loop traffic, optionally followed by a closed loop, against a
    live server.

    Inputs are stratified, so that a seed changes which vector, matrix
    and power each request carries and in which order, but not the mix:
    the open loop's gaps between arrivals are the ``rate * open_s``
    quantiles of an exponential distribution in a seeded order (Poisson
    arrivals without the luck of the draw), and every block of
    :data:`BLOCK` requests holds the exact Zipf popularity and ``k``
    shares, shuffled.  Without this, the tail of a 15-second run depends
    more on how many arrivals a seed happens to bunch together than on
    the server.
    """

    name: str
    specs: Tuple[Standin, ...]
    ks: Tuple[int, ...]
    #: Open-loop arrivals per second, well below capacity: near it,
    #: queueing turns small changes of host speed into large changes of
    #: latency.
    rate: float
    #: ``True``: the bench fills the plan cache first (a restart);
    #: ``False``: every launch tunes cold.
    prewarm: bool
    #: ``True``: the open loop gets :data:`OPEN_SHARE` of the seconds and
    #: a closed loop with :data:`IN_FLIGHT` requests outstanding the rest
    #: (capacity); ``False``: the open loop gets all of them.
    closed: bool
    #: Seeded vectors per matrix.
    vectors: int = 16
    #: Zipf exponent of matrix popularity (0: uniform).
    zipf_s: float = 0.0

    @property
    def primary(self) -> Tuple[Standin, int]:
        """The most requested matrix and the middle power: the input the
        per-layer probes run on."""
        return self.specs[0], self.ks[len(self.ks) // 2]

    # -- inputs ----------------------------------------------------------
    def _quota(self, weights: Sequence[float], n: int) -> List[int]:
        w = np.asarray(weights, dtype=float)
        exact = w / w.sum() * n
        counts = np.floor(exact).astype(int)
        short = n - counts.sum()
        counts[np.argsort(counts - exact)[:short]] += 1
        return counts.tolist()

    def mix(self, rng: np.random.Generator, n: int,
            phase: str) -> List[Request]:
        """``n`` requests, each block of :data:`BLOCK` with the exact
        popularity and ``k`` shares."""
        weights = [1.0 / (r + 1) ** self.zipf_s
                   for r in range(len(self.specs))]
        specs, ks = [], []
        for start in range(0, n, BLOCK):
            m = min(BLOCK, n - start)
            block_specs = np.repeat(np.arange(len(self.specs)),
                                    self._quota(weights, m))
            block_ks = np.repeat(np.asarray(self.ks),
                                 self._quota([1.0] * len(self.ks), m))
            rng.shuffle(block_specs)
            rng.shuffle(block_ks)
            specs.extend(block_specs)
            ks.extend(block_ks)
        vecs = rng.integers(0, self.vectors, n)
        return [Request(int(s), int(k), int(v),
                        f"{phase}-t{i % TENANTS}")
                for i, (s, k, v) in enumerate(zip(specs, ks, vecs))]

    def encoder(self, xs: List[List[np.ndarray]]):
        """Pre-encode every vector once; a request line is then a splice
        of its header and the vector's bytes."""
        bodies = [[json.dumps(x.tolist()).encode() for x in per_spec]
                  for per_spec in xs]
        mats = [json.dumps(s.payload(), separators=(",", ":")).encode()
                for s in self.specs]

        def line(i: int, r: Request) -> bytes:
            head = (b'{"id":%d,"op":"power","tenant":"%s","k":%d,'
                    b'"matrix":' % (i, r.tenant.encode(), r.k))
            return head + mats[r.spec] + b',"x":' + bodies[r.spec][r.vec] \
                + b'}\n'

        return line

    # -- one run ---------------------------------------------------------
    def run(self, seed: int, seconds: float, setups: int = SETUPS,
            trace: Optional[Path] = None,
            report: Optional[Path] = None) -> RunResult:
        return asyncio.run(self._run(seed, seconds, setups, trace, report))

    async def _run(self, seed: int, seconds: float, setups: int,
                   trace: Optional[Path],
                   report: Optional[Path]) -> RunResult:
        res = RunResult()
        rng = np.random.default_rng(seed)
        mats = [s.load() for s in self.specs]
        xs = [[rng.standard_normal(a.n_rows) for _ in range(self.vectors)]
              for a in mats]
        line = self.encoder(xs)
        open_s = seconds * (OPEN_SHARE if self.closed else 1.0)
        n_open = int(round(self.rate * open_s))
        gaps = -np.log1p(-(np.arange(n_open) + 0.5) / n_open) / self.rate
        rng.shuffle(gaps)
        offsets = (np.cumsum(gaps) - gaps[0]).tolist()
        open_reqs = self.mix(rng, n_open, "open")
        closed_reqs = self.mix(rng, 1024, "closed") if self.closed else []
        warm_reqs = self.mix(rng, 256, "warm")
        k_setup = self.ks[len(self.ks) // 2]
        setup_reqs = [Request(s, k_setup, 0, "setup")
                      for s in range(len(self.specs))]

        warm_cache = None
        if self.prewarm:
            warm_cache = fresh_dir("plans-")
            self._prewarm(mats, warm_cache)

        setup_s = []
        phases: Dict[str, Tuple[List[Request], loadgen.PhaseResult]] = {}
        for i in range(setups):
            last = i == setups - 1
            server = Server(warm_cache or fresh_dir("plans-"),
                            trace=trace if last else None,
                            report=report if last else None)
            try:
                port = await server.wait_port()
                setup = await loadgen.open_loop(
                    "127.0.0.1", port,
                    [line(j, r) for j, r in enumerate(setup_reqs)],
                    [0.0] * len(setup_reqs), connections=1, lead_s=0.0)
                if setup.failed:
                    raise RuntimeError(
                        f"{setup.failed} setup request(s) failed: "
                        f"{[s.response for s in setup.samples if not s.ok]}")
                setup_s.append(setup.t_end - server.t_launch)
                phases[f"setup{i}"] = (setup_reqs, setup)
                if not last:
                    continue
                phases["warm"] = (warm_reqs, await loadgen.closed_loop(
                    "127.0.0.1", port,
                    lambda j: line(j, warm_reqs[j % len(warm_reqs)]),
                    IN_FLIGHT, WARM_S, CONNECTIONS))
                phases["open"] = (open_reqs, await loadgen.open_loop(
                    "127.0.0.1", port,
                    [line(j, r) for j, r in enumerate(open_reqs)],
                    offsets, CONNECTIONS))
                if self.closed:
                    phases["closed"] = (closed_reqs, await loadgen.closed_loop(
                        "127.0.0.1", port,
                        lambda j: line(j, closed_reqs[j % len(closed_reqs)]),
                        IN_FLIGHT, seconds - open_s, CONNECTIONS))
            finally:
                await server.stop()

        self._verify(res, mats, xs, phases)
        opened = phases["open"][1]

        def width(phase: loadgen.PhaseResult) -> float:
            """Mean batch width the requests of a phase were served in."""
            return statistics.fmean(s.response["meta"]["batch_width"]
                                    for s in phase.samples if s.ok)

        if self.closed:
            closed = phases["closed"][1]
            window = closed.t_stop - closed.t_start
            done = [closed_reqs[s.index % len(closed_reqs)]
                    for s in closed.samples
                    if s.ok and s.received <= closed.t_stop]
            res.details.update(
                closed_requests=closed.attempted,
                capacity_rps=len(done) / window,
                closed_max_in_flight=closed.max_in_flight,
                batch_width_closed=width(closed))
        else:
            window = opened.t_end - opened.t_start
            done = [open_reqs[s.index] for s in opened.samples if s.ok]
        work = sum(r.k * mats[r.spec].nnz for r in done)
        res.metrics = {
            "setup_s": statistics.median(setup_s),
            "latency_p50_ms": _ms(loadgen.percentile(
                opened.latencies_s(), 50)),
            "latency_tail_ms": _tail(opened.latencies_s(), res.details,
                                     cap=99),
            "gnnz_per_s": work / window / GIGA,
        }
        res.details.update(
            setup_runs_s=setup_s,
            open_requests=opened.attempted,
            late_p95_ms=_ms(loadgen.percentile(
                [s.late_s for s in opened.samples], 95)),
            batch_width_open=width(opened),
            open_latency_ms=[_ms(v) for v in opened.latencies_s()],
            matrices=[s.payload() for s in self.specs],
            n=[a.n_rows for a in mats], nnz=[a.nnz for a in mats],
            csr_mb=[_csr_mb(a) for a in mats])
        return res

    def _prewarm(self, mats, cache: Path) -> None:
        """Fill the plan cache the way the server would (its tune
        policy and tuning power), so launches measure a restart."""
        from repro.tune import autotune_power

        policy = tune_policy()
        for a in mats:
            op, _ = autotune_power(a, k=policy["tune_k"], cache=str(cache),
                                   repeats=policy["repeats"],
                                   max_candidates=policy["max_candidates"])
            op.close()

    def _verify(self, res: RunResult, mats, xs,
                phases: Dict[str, Tuple[List[Request],
                                        loadgen.PhaseResult]]) -> None:
        oracles: Dict[int, Oracle] = {}
        try:
            for reqs, phase in phases.values():
                res.attempted += phase.attempted
                res.failed += phase.failed
                for s in phase.samples:
                    if not s.ok:
                        continue
                    r = reqs[s.index % len(reqs)]
                    if r.spec not in oracles:
                        oracles[r.spec] = Oracle(mats[r.spec])
                    ref, tol = oracles[r.spec].expect(
                        r.vec, xs[r.spec][r.vec], r.k)
                    res.check.add(np.asarray(s.response["y"]), ref, tol)
                    s.response["y"] = None  # free the decoded vector
        finally:
            for o in oracles.values():
                o.close()


def _standins(names: Sequence[str], rows: int,
              seeds: Sequence[int]) -> Tuple[Standin, ...]:
    return tuple(Standin(n, rows, s) for s in seeds for n in names)


WORKLOADS: Dict[str, Any] = {w.name: w for w in (
    MpkWorkload("mpk-fem", Standin("cant", 8000)),
    MpkWorkload("mpk-circuit", Standin("G3_circuit", 40000)),
    ServeWorkload("serve-shared", specs=(Standin("cant", 4000),), ks=(4,),
                  rate=10.0, prewarm=False, closed=True),
    ServeWorkload("serve-churn",
                  specs=_standins(("cant", "shipsec1", "G3_circuit"), 4000,
                                  (0, 1)),
                  ks=(2, 4, 8), rate=8.0, prewarm=True, closed=False,
                  vectors=4, zipf_s=1.0),
)}
