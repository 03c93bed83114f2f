#!/usr/bin/env python3
"""The repository benchmark: tuned ``A^k x`` and TCP serving, end to end.

Run one workload of those ``BENCHMARK.json`` names::

    python3 benchmarks/e2e/run.py --workload mpk-fem --seed 0 --seconds 12

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0`` (the default), every per-layer
metric of ``BENCHMARK.json`` with ``--trace 1``.  The traced pass also
prints the layer metrics that apply to only some workloads, and writes
Chrome traces and a layer table to ``benchmarks/e2e/results/``.  The
exit code is non-zero when any output is wrong.  An open-loop run whose
generator ran more than 20 ms late (p95) is flagged as not valid.

Without ``--workload``, or with ``--repeat N``, every requested workload
runs ``N`` times, each in a fresh Python process, with seeds ``--seed``
to ``--seed + N - 1``, and ``--out FILE`` collects the runs for::

    python3 benchmarks/e2e/run.py compare PARENT.json... -- CHANGE.json...

which prints, per workload and metric, both sides' medians and quartiles
and the verdict under the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
#: An open-loop run whose generator sent requests later than this
#: (p95) measured the client, not the server: it is not valid.
LATE_LIMIT_MS = 20.0
#: Set in the environment of the process the supervisor starts, so that
#: it runs the benchmark instead of supervising again.
SUPERVISED_ENV = "E2E_BENCH_SUPERVISED"
#: ``prctl`` option making this process the reaper of orphaned
#: descendants (Linux).
PR_SET_CHILD_SUBREAPER = 36
#: How long the supervisor waits for leftover processes to end by
#: themselves before it kills them.
REAP_S = 20.0


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_block(seed: int) -> Dict[str, Any]:
    """Facts about this host that every result file records."""
    import numpy
    import scipy

    import layers

    caches = layers.cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
        "note": "DRAM bandwidth is not measured: the working sets "
                "(details.csr_mb) fit the shared L3.  Byte counts are "
                "computed by repro.memsim.",
    }


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool,
            out: Optional[Path]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = load_spec()
    if workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {workload!r}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    try:
        if trace:
            import layers

            result = layers.traced_run(workload, seed, seconds)
            units.update(layers.UNITS)
        else:
            result = workloads.WORKLOADS[workload].run(seed, seconds)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    for name, value in result.metrics.items():
        print(f"{workload:13s} {name:28s} {value:14.6g} {units[name]}")
    late = result.details.get("late_p95_ms", 0.0)
    valid = late <= LATE_LIMIT_MS
    if not valid:
        print(f"warning: {workload}: the load generator sent requests "
              f"{late:.1f} ms late (p95), over the {LATE_LIMIT_MS:g} ms "
              "limit; this run is not valid and compare drops it",
              file=sys.stderr)
    names = spec["per_layer" if trace else "end_to_end"]
    line = {"correct": result.correct, "attempted": result.attempted,
            "failed": result.failed + result.check.wrong,
            "metrics": {m["name"]: {"value": float(result.metrics[m["name"]]),
                                    "unit": m["unit"]} for m in names}}
    if out is not None:
        record = dict(line, workload=workload, seed=seed, seconds=seconds,
                      trace=trace, valid=valid,
                      checked=result.check.checked,
                      wrong=result.check.wrong,
                      bitwise=result.check.bitwise,
                      details=result.details, host=host_block(seed))
        if trace:
            # Every layer metric, those of some workloads only included.
            record["layer_metrics"] = {
                n: {"value": float(v), "unit": units[n]}
                for n, v in result.metrics.items()}
        out.write_text(json.dumps({"runs": [record]}, indent=1) + "\n")
    print(json.dumps(line))
    return 0 if result.correct else 1


# ---------------------------------------------------------------------------
# several runs, each in a fresh process
# ---------------------------------------------------------------------------
def run_many(names: Sequence[str], seed: int, seconds: float, trace: bool,
             repeat: int, out: Optional[Path]) -> int:
    runs: List[Dict[str, Any]] = []
    code = 0
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        for rep in range(repeat):
            for name in names:
                part = Path(tmp) / f"{rep}-{name}.json"
                cmd = [sys.executable, str(Path(__file__)), "--workload",
                       name, "--seed", str(seed + rep),
                       "--seconds", str(seconds),
                       "--trace", str(int(trace)), "--out", str(part)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if proc.returncode != 0 or not part.exists():
                    print(f"error: {name} run {rep} exited with "
                          f"{proc.returncode}", file=sys.stderr)
                    code = code or proc.returncode or 1
                    continue
                runs.extend(json.loads(part.read_text())["runs"])
    if out is not None:
        out.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    medians: Dict[str, Dict[str, Any]] = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        for metric in (mine[0]["metrics"] if mine else {}):
            values = [r["metrics"][metric]["value"] for r in mine]
            medians[f"{name}/{metric}"] = {
                "value": statistics.median(values),
                "unit": mine[0]["metrics"][metric]["unit"]}
    print(json.dumps({
        "correct": code == 0 and all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": medians}))
    return code


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _fmt(quartiles) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles)


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool) -> str:
    """Regression/gain rule of the benchmark, for one workload x metric.

    * ``unresolved``: the parent's own spread (interquartile range over
      its median) exceeds the bound, unless every change run beats every
      parent run;
    * ``regression``: the change's median is worse by more than the
      bound;
    * ``gain``: the change wins at least 9/10 of the pairs (i-th parent
      run against i-th change run; ties count for neither side) and the
      gap between medians exceeds the parent's interquartile range;
    * ``same`` otherwise.
    """
    sign = 1.0 if lower_is_better else -1.0

    def better(c: float, p: float) -> bool:
        return sign * (c - p) < 0

    q1, pm, q3 = _quartiles(parent)
    cm = statistics.median(change)
    all_better = all(better(c, p) for c in change for p in parent)
    if (q3 - q1) / abs(pm) > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) / abs(pm) > bound:
        return "regression"
    pairs = list(zip(parent, change))
    wins = sum(better(c, p) for p, c in pairs)
    if wins >= 0.9 * len(pairs) and better(cm, pm) \
            and abs(cm - pm) > q3 - q1:
        return "gain"
    return "same"


def _load_runs(paths: Sequence[str]) -> List[Dict[str, Any]]:
    runs: List[Dict[str, Any]] = []
    for p in paths:
        runs.extend(json.loads(Path(p).read_text())["runs"])
    return runs


def compare(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...",
              file=sys.stderr)
        return 2
    cut = list(argv).index("--")
    sides = []
    for label, paths in (("parent", argv[:cut]), ("change", argv[cut + 1:])):
        runs = [r for r in _load_runs(paths) if not r["trace"]]
        late = [r for r in runs if not r.get("valid", True)]
        for r in late:
            print(f"{label}: dropped {r['workload']} seed {r['seed']}: "
                  f"generator late p95 {r['details']['late_p95_ms']:.1f} ms "
                  f"> {LATE_LIMIT_MS:g} ms")
        sides.append([r for r in runs if r.get("valid", True)])
    parent, change = sides
    spec = load_spec()
    rows, regressions = [], 0
    header = (f"{'workload':13s} {'metric':18s} {'unit':7s} "
              f"{'parent q1/med/q3':>30s} {'change q1/med/q3':>30s} "
              f"{'bound':>6s}  verdict")
    for workload in sorted({r["workload"] for r in parent}):
        mine_p = [r for r in parent if r["workload"] == workload]
        mine_c = [r for r in change if r["workload"] == workload]
        if not mine_c:
            continue
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in mine_p]
            c = [r["metrics"][m["name"]]["value"] for r in mine_c]
            v = verdict(p, c, m["bound"], m["better"] == "lower")
            regressions += v == "regression"
            rows.append(f"{workload:13s} {m['name']:18s} {m['unit']:7s} "
                        f"{_fmt(_quartiles(p)):>30s} "
                        f"{_fmt(_quartiles(c)):>30s} {m['bound']:6.2f}  {v}")
        # Failures have no relative bound: any rise is a regression.
        pf, cf = _fail_share(mine_p), _fail_share(mine_c)
        v = "regression" if cf > pf else "same"
        regressions += v == "regression"
        rows.append(f"{workload:13s} {'failed/attempted':18s} {'ratio':7s} "
                    f"{pf:>30.4g} {cf:>30.4g} {0:6.2f}  {v}")
    print(header)
    print("\n".join(rows))
    return 1 if regressions else 0


def _fail_share(runs: Sequence[Dict[str, Any]]) -> float:
    """Failed (including wrong) over attempted, summed over runs."""
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


# ---------------------------------------------------------------------------
# supervisor: no process outlives the benchmark
# ---------------------------------------------------------------------------
def _become_subreaper() -> bool:
    """Make orphaned descendants children of this process, so that it
    can wait for them (Linux only; False elsewhere)."""
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> List[int]:
    """PIDs whose parent is this process, zombies included."""
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue
        # The parent PID is the second field after the parenthesised
        # command name, which may itself hold spaces and parentheses.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(timeout_s: float) -> None:
    """Wait until no child is left, killing whatever is still running
    after ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while True:
        pids = _children()
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            return
        time.sleep(0.01)


def supervise(argv: Sequence[str]) -> int:
    """Run the benchmark in a child process, then wait for every process
    it started, however deep: the multiprocessing resource trackers of
    the bench and of each server outlive their parents for a moment, and
    an interrupted run may leave a server or pool worker behind."""
    if not _become_subreaper():
        # Without a subreaper, orphans escape to init: run in-process.
        return run(argv)
    env = dict(os.environ, **{SUPERVISED_ENV: "1"})
    proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                             *argv], env=env)

    def stop(signum, _frame):
        proc.send_signal(signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait()
    finally:
        _reap(REAP_S)
        # The child's scratch directory, if it was stopped before its
        # own clean-up ran (see ``workloads.WORK``).
        shutil.rmtree(HERE / ".work" / str(proc.pid), ignore_errors=True)
    return code if code >= 0 else 128 - code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if os.environ.get(SUPERVISED_ENV):
        # A stop request unwinds the run, so servers and pools are shut
        # down by the code that started them.
        signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
        return run(argv)
    return supervise(argv)


def run(argv: Sequence[str]) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of the generated inputs (vectors, arrival "
                         "times, popularity and k order)")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured seconds per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: the traced pass (per-layer metrics)")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, each in a fresh process, "
                         "with seeds SEED to SEED+N-1")
    ap.add_argument("--out", type=Path, default=None,
                    help="write every run's full record (metrics, "
                         "details, host block) to this JSON file")
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if len(names) == 1 and args.repeat == 1:
        return run_one(names[0], args.seed, args.seconds, trace, args.out)
    return run_many(names, args.seed, args.seconds, trace, args.repeat,
                    args.out)


if __name__ == "__main__":
    sys.exit(main())
