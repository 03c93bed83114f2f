"""Command-line interface: ``python -m repro <command>``.

A user-facing front end over the library:

``info``
    Structural statistics of a matrix (MatrixMarket file or a named
    Table II stand-in).
``power``
    Compute ``A^k x`` with a chosen pipeline; reports result checksum,
    wall time and (for FBMPK) the instrumented matrix-pass counts.
``preprocess``
    Run the one-off FBMPK preprocessing and save the operator artefact
    (``.npz``) for later ``power --operator`` runs — the paper's
    offline-preprocessing workflow.
``reorder``
    Apply ABMC or RCM to a MatrixMarket file and write the result.
``predict``
    Machine-model predictions (Fig 7/8-style) for a Table II matrix
    across the Table I platforms, with an ASCII chart.
``solve``
    Run CG/BiCGSTAB/GMRES on a matrix and report the structured
    convergence status.
``tune``
    OSKI-style empirical autotuning: time the candidate execution plans
    on the actual matrix, pick the fastest bit-identical one, and
    persist it in the plan cache (``~/.cache/repro/plans`` or
    ``--plan-cache-dir``/``$REPRO_PLAN_CACHE_DIR``) so later runs —
    including ``power --tuned`` and ``solve --tuned`` — skip the search.
``report``
    Validate and pretty-print a RunReport produced by ``--report``, or
    diff two of them.
``serve``
    Run the multi-tenant solve service: newline-delimited JSON over
    TCP, resident autotuned operators keyed by structure, and a
    gather-window batching queue that stacks concurrent requests for
    the same ``(matrix, k)`` into one multi-RHS sweep (see
    :mod:`repro.serve`).  ``tools/serve_client.py`` is the matching
    client.

Telemetry: the run commands accept ``--trace FILE`` (Chrome trace-event
JSON of the run's spans), ``--metrics FILE`` (metrics snapshot),
``--report FILE`` (schema-versioned RunReport) and ``--profile FILE``
(flamegraph-collapsed sampling profile at ``--profile-hz``); any of
them activates a :class:`repro.obs.Telemetry` session around the
command, as does ``serve --metrics-port`` (live Prometheus exposition
for the server's lifetime).

Failures map onto one-line ``error:`` messages and distinct exit codes
(see ``EXIT_*``): 3 for unreadable/malformed input files, 4 for
validation and non-finite failures, 5 for crashed parallel phases, 6
for solver breakdown/divergence/non-convergence, 7 for telemetry-export
I/O failures (an unwritable ``--trace``/``--metrics``/``--report``
path), 8 for a blown deadline/budget
(:class:`~repro.robust.errors.DeadlineExceededError`).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from . import obs
from .baselines import ExplicitPowerMPK, LevelBlockedMPK, MklLikeMPK
from .bench.ascii_plot import line_chart
from .bench.harness import format_table
from .core import KernelCounter, build_fbmpk_operator, mpk_standard
from .core.fbmpk import FBMPKOperator
from .machine import PLATFORMS, predict_speedup
from .matrices import generate_standin, get_matrix_info, list_matrix_names
from .matrices.stats import analyze_matrix
from .reorder import abmc_ordering, permute_symmetric, rcm_ordering
from .robust import (
    DeadlineExceededError,
    MatrixMarketError,
    PhaseExecutionError,
    ValidationError,
    validate_csr,
)
from .solvers import bicgstab, conjugate_gradient, gmres
from .sparse import CSRMatrix, read_matrix_market, write_matrix_market

__all__ = ["main", "EXIT_OK", "EXIT_IO", "EXIT_VALIDATION",
           "EXIT_EXECUTION", "EXIT_SOLVER", "EXIT_TELEMETRY",
           "EXIT_DEADLINE"]

#: Exit codes of the typed-error mapping (argparse keeps 2 for usage).
EXIT_OK = 0
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_EXECUTION = 5
EXIT_SOLVER = 6
EXIT_TELEMETRY = 7
EXIT_DEADLINE = 8


def _load_matrix(args) -> CSRMatrix:
    if getattr(args, "standin", None):
        a = generate_standin(args.standin, n_rows=args.rows)
    elif getattr(args, "matrix", None):
        a = read_matrix_market(args.matrix).to_csr()
    else:
        raise SystemExit("provide a MatrixMarket file or --standin NAME")
    if getattr(args, "validate", False):
        name = args.matrix or f"{args.standin} stand-in"
        report = validate_csr(a, name=str(name))
        for issue in report.warnings:
            print(f"warning[{issue.code}]: {issue.message}",
                  file=sys.stderr)
        report.raise_if_failed()
    return a


def _add_matrix_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", nargs="?", help="MatrixMarket file")
    p.add_argument("--standin", choices=list_matrix_names(),
                   help="generate a Table II stand-in instead of reading "
                        "a file")
    p.add_argument("--rows", type=int, default=20_000,
                   help="stand-in size (rows)")
    p.add_argument("--validate", action="store_true",
                   help="run the structural validators on the loaded "
                        "matrix (exit 4 on failure)")


def _add_obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", metavar="FILE",
                   help="write the run's spans as Chrome trace-event "
                        "JSON (load in chrome://tracing or Perfetto)")
    p.add_argument("--metrics", metavar="FILE",
                   help="write the run's metrics snapshot as JSON")
    p.add_argument("--report", metavar="FILE",
                   help="write a schema-versioned RunReport (validate "
                        "with tools/check_report.py, inspect with the "
                        "report subcommand)")
    p.add_argument("--profile", metavar="FILE",
                   help="sample all thread stacks for the whole run "
                        "and write flamegraph-collapsed stacks "
                        "(feed to flamegraph.pl or speedscope)")
    p.add_argument("--profile-hz", type=float, default=100.0,
                   help="sampling rate for --profile (default 100)")


def _export_telemetry(tel: "obs.Telemetry", args) -> None:
    """Write the requested telemetry artefacts (``OSError`` escapes to
    the exit-code-7 handler in :func:`main`)."""
    if getattr(args, "trace", None):
        tel.write_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stderr)
    if getattr(args, "metrics", None):
        tel.write_metrics(args.metrics)
        print(f"metrics written to {args.metrics}", file=sys.stderr)
    if getattr(args, "report", None):
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command", "trace", "metrics",
                               "report") and v is not None}
        report = tel.run_report(command=args.command, config=config)
        obs.write_report_file(report, args.report)
        print(f"run report written to {args.report}", file=sys.stderr)


def cmd_info(args) -> int:
    a = _load_matrix(args)
    report = analyze_matrix(a)
    rows = [[key, str(val)] for key, val in report.as_dict().items()]
    print(format_table(["statistic", "value"], rows,
                       title=f"matrix statistics"
                             f"{' (' + args.standin + ' stand-in)' if args.standin else ''}"))
    return 0


def cmd_power(args) -> int:
    counter = None
    if getattr(args, "workers", None) is not None:
        args.threads = args.workers
    pin_workers = {"auto": None, "on": True, "off": False}[
        getattr(args, "pin_workers", "auto")]
    claim_chunk = getattr(args, "claim_chunk", None)
    if args.operator:
        op = FBMPKOperator.load(args.operator)
        n = op.n
        a = None
    else:
        a = _load_matrix(args)
        n = a.n_rows
    x = (np.ones(n) if args.ones
         else np.random.default_rng(args.seed).standard_normal(n))
    t0 = time.perf_counter()
    if args.operator or args.method == "fbmpk":
        if args.operator:
            op.configure_executor(executor=args.executor,
                                  n_threads=args.threads,
                                  assign_policy=args.policy,
                                  on_failure=args.on_failure,
                                  claim_chunk=claim_chunk,
                                  pin_workers=pin_workers)
        elif getattr(args, "tuned", False):
            from . import tune

            op, tres = tune.autotune_power(
                a, k=args.k, cache=args.plan_cache_dir)
            print(f"tuned plan: {tres.plan.label} "
                  f"(source: {tres.source})", file=sys.stderr)
        else:
            op = build_fbmpk_operator(a, strategy=args.strategy,
                                      block_size=args.block_size,
                                      executor=args.executor,
                                      n_threads=args.threads,
                                      assign_policy=args.policy,
                                      on_failure=args.on_failure,
                                      claim_chunk=claim_chunk,
                                      pin_workers=pin_workers)
        counter = KernelCounter()
        y = op.power(x, args.k, counter=counter,
                     check_finite=args.check_finite)
    elif args.method == "standard":
        y = mpk_standard(a, x, args.k)
    elif args.method == "mkl":
        y = MklLikeMPK(a).power(x, args.k)
    elif args.method == "lbmpk":
        y = LevelBlockedMPK(a).power(x, args.k)
    elif args.method == "explicit":
        y = ExplicitPowerMPK(a).power(x, args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown method {args.method}")
    elapsed = time.perf_counter() - t0
    print(f"method={args.method} k={args.k} n={n}")
    print(f"time (incl. preprocessing unless --operator): {elapsed:.3f}s")
    print(f"||y||_2 = {np.linalg.norm(y):.12e}   "
          f"checksum = {float(y.sum()):.12e}")
    if counter is not None:
        print(f"matrix passes: L x{counter.l_passes}, U x{counter.u_passes} "
              f"(standard MPK would stream A x{args.k})")
        stats = getattr(op, "last_stats", None)
        if stats is not None:
            print(f"executor={op.executor} n_workers={stats.n_threads} "
                  f"policy={stats.policy}: {stats.barriers} barriers, "
                  f"{stats.enqueues} enqueues, {stats.steals} steals, "
                  f"phase wall {stats.total_wall_s * 1e3:.2f} ms, "
                  f"busy {stats.busy_s * 1e3:.2f} ms, "
                  f"efficiency {stats.efficiency:.1%}")
            slowest = max(stats.phases, key=lambda p: p.wall_s)
            print(f"slowest phase: colour {slowest.color} "
                  f"({slowest.n_tasks} ranges, {slowest.nnz} nnz, "
                  f"{slowest.wall_s * 1e3:.2f} ms)")
        op.close()
    return 0


def cmd_preprocess(args) -> int:
    a = _load_matrix(args)
    t0 = time.perf_counter()
    op = build_fbmpk_operator(a, strategy=args.strategy,
                              block_size=args.block_size)
    elapsed = time.perf_counter() - t0
    op.save(args.output)
    print(f"preprocessed {a.n_rows} rows / {a.nnz} nnz in {elapsed:.2f}s "
          f"({op.groups.n_forward} forward groups, "
          f"strategy={args.strategy}); saved to {args.output}")
    return 0


def cmd_reorder(args) -> int:
    a = _load_matrix(args)
    if args.method == "abmc":
        perm = abmc_ordering(a, block_size=args.block_size).perm
    else:
        perm = rcm_ordering(a)
    b = permute_symmetric(a, perm)
    write_matrix_market(b, args.output,
                        comment=f"{args.method}-reordered by repro")
    from .reorder.rcm import matrix_bandwidth

    print(f"{args.method}: bandwidth {matrix_bandwidth(a)} -> "
          f"{matrix_bandwidth(b)}; written to {args.output}")
    return 0


def cmd_solve(args) -> int:
    a = _load_matrix(args)
    rng = np.random.default_rng(args.seed)
    x_true = rng.standard_normal(a.n_rows)
    b = a.matvec(x_true)
    t0 = time.perf_counter()
    if args.solver == "cg":
        result = conjugate_gradient(a, b, tol=args.tol,
                                    max_iter=args.max_iter,
                                    check_finite=args.check_finite,
                                    tuned=args.tuned,
                                    plan_cache_dir=args.plan_cache_dir)
    elif args.solver == "bicgstab":
        result = bicgstab(a, b, tol=args.tol, max_iter=args.max_iter,
                          check_finite=args.check_finite,
                          tuned=args.tuned,
                          plan_cache_dir=args.plan_cache_dir)
    else:
        result = gmres(a, b, tol=args.tol, max_iter=args.max_iter,
                       check_finite=args.check_finite,
                       tuned=args.tuned,
                       plan_cache_dir=args.plan_cache_dir)
    elapsed = time.perf_counter() - t0
    print(f"solver={args.solver} n={a.n_rows} status={result.status} "
          f"iterations={result.iterations} "
          f"residual={result.final_residual:.3e} time={elapsed:.3f}s")
    if result.status != "converged":
        print(f"error: {args.solver} did not converge "
              f"(status={result.status} after {result.iterations} "
              f"iterations, residual {result.final_residual:.3e})",
              file=sys.stderr)
        return EXIT_SOLVER
    return 0


def cmd_tune(args) -> int:
    from . import tune

    a = _load_matrix(args)
    t0 = time.perf_counter()
    if args.kind == "power":
        handle, result = tune.autotune_power(
            a, k=args.k, cache=args.plan_cache_dir,
            repeats=args.repeats, force=args.force,
            max_candidates=args.max_candidates)
        handle.close()
    else:
        _, result = tune.autotune_spmv(
            a, cache=args.plan_cache_dir, repeats=args.repeats,
            force=args.force)
    elapsed = time.perf_counter() - t0
    if result.trials:
        rows = [[t.plan.label,
                 f"{t.time_s * 1e3:.3f}" if t.time_s is not None else "-",
                 {True: "yes", False: "NO", None: "-"}[t.identical],
                 "win" if t.plan == result.plan else
                 ("error" if t.error else
                  ("" if t.accepted else
                   ("not eligible" if t.identical else "rejected")))]
                for t in result.trials]
        print(format_table(["plan", "time (ms)", "bit-identical", ""],
                           rows, title=f"{args.kind} candidates "
                                       f"({a.n_rows:,} rows, "
                                       f"{a.nnz:,} nnz)"))
    print(f"winner: {result.plan.label} (source: {result.source}, "
          f"{elapsed:.2f}s)")
    if result.source == "search" and result.speedup is not None:
        print(f"tuned/default speedup: {result.speedup:.2f}x "
              f"({result.default_time_s * 1e3:.3f} -> "
              f"{result.best_time_s * 1e3:.3f} ms)")
    if result.cache_path is not None:
        print(f"plan cached at {result.cache_path}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    from .serve import ServeConfig, SolveServer, SolveService

    try:
        config = ServeConfig(
            gather_window_s=args.gather_window_ms / 1000.0,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            max_pending=args.max_pending,
            max_rows=args.max_rows,
            allow_paths=args.allow_paths,
            max_resident=args.max_resident,
            tune=args.tune,
            tune_k=args.tune_k,
            plan_cache_dir=args.plan_cache_dir,
            allow_shutdown=not args.no_remote_shutdown,
            tune_budget_s=args.tune_budget_s,
            tune_breaker=not args.no_tune_breaker,
            hang_timeout_s=args.hang_timeout_s,
            drain_timeout_s=args.drain_timeout_s,
            metrics_port=args.metrics_port,
            slo_target_ms=args.slo_target_ms,
            slo_goal=args.slo_goal,
            profile_hz=args.profile_hz,
        ).validate()
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    async def _run() -> None:
        service = SolveService(config)
        server = SolveServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving on {server.host}:{server.port}", flush=True)
        if server.metrics_port is not None:
            print(f"metrics on http://{config.metrics_host}:"
                  f"{server.metrics_port}/metrics", flush=True)
        if args.port_file:
            with open(args.port_file, "w") as fh:
                fh.write(str(server.port))
        if args.metrics_port_file and server.metrics_port is not None:
            with open(args.metrics_port_file, "w") as fh:
                fh.write(str(server.metrics_port))
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print("server drained and stopped", file=sys.stderr)
    return 0


def _load_validated_report(path):
    """Load + schema-check one report file; raises ``ValidationError``
    with the collected problems on schema violations."""
    try:
        report = obs.load_report(path)
    except ValueError as exc:
        raise MatrixMarketError(f"{path}: not valid JSON ({exc})") from exc
    errors = obs.validate_report(report)
    if errors:
        raise ValidationError(
            f"{path}: not a valid RunReport: " + "; ".join(errors))
    return report


def cmd_report(args) -> int:
    a = _load_validated_report(args.file)
    if args.other:
        b = _load_validated_report(args.other)
        print(obs.diff_reports(a, b))
    else:
        print(obs.format_report(a))
    return 0


def cmd_predict(args) -> int:
    info = get_matrix_info(args.name)
    stats = info.traffic_stats()
    ks = list(range(3, 10))
    series = {
        p.name: [predict_speedup(p, stats, k=k) for k in ks]
        for p in PLATFORMS
    }
    rows = [[k] + [series[p.name][i] for p in PLATFORMS]
            for i, k in enumerate(ks)]
    print(format_table(["k"] + [p.name for p in PLATFORMS], rows,
                       title=f"predicted FBMPK speedup for {info.name} "
                             f"({info.rows:,} rows, "
                             f"{info.nnz_per_row:.1f} nnz/row)"))
    print()
    print(line_chart(ks, series, title="speedup vs k"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="FBMPK library CLI (IPDPS'23 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="matrix structural statistics")
    _add_matrix_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("power", help="compute A^k x")
    _add_matrix_args(p)
    p.add_argument("-k", type=int, default=5, help="power (default 5)")
    p.add_argument("--method", default="fbmpk",
                   choices=["fbmpk", "standard", "mkl", "lbmpk",
                            "explicit"])
    p.add_argument("--strategy", "--schedule", dest="strategy",
                   default="abmc",
                   choices=["abmc", "levels", "levels-blocked"],
                   help="scheduling family: ABMC colour groups, plain "
                        "level sets, or the levels-blocked (RACE-style) "
                        "cache-resident wavefront (--block-size sets "
                        "its rows per block)")
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--executor", default="serial",
                   choices=["serial", "threads", "processes"],
                   help="run FBMPK sweeps serially, on the real "
                        "colour-phase thread pool, or on the "
                        "shared-memory process pool (GIL-free)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker count for --executor threads "
                        "(default: all cores)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker count for --executor processes "
                        "(alias for --threads; default: all cores)")
    p.add_argument("--policy", default="lpt",
                   choices=["round_robin", "lpt", "dynamic"],
                   help="block-to-thread assignment policy")
    p.add_argument("--claim-chunk", type=int, default=None,
                   help="blocks a worker claims per work-stealing "
                        "cursor round-trip in the batched dispatch "
                        "path (default: auto-sized per phase)")
    p.add_argument("--pin-workers", default="auto",
                   choices=["auto", "on", "off"],
                   help="deterministic best-effort CPU pinning for "
                        "process-pool workers (auto: only on "
                        "multi-CPU hosts)")
    p.add_argument("--on-failure", default="raise",
                   choices=["raise", "fallback_serial"],
                   help="what a crashed parallel phase does: raise a "
                        "PhaseExecutionError (exit 5) or recompute the "
                        "power serially")
    p.add_argument("--check-finite", action="store_true",
                   help="check input and every iterate for NaN/Inf "
                        "(exit 4 on the first hit)")
    p.add_argument("--operator", help="load a saved .npz operator")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ones", action="store_true",
                   help="use x = ones instead of a random vector")
    p.add_argument("--tuned", action="store_true",
                   help="use the autotuned execution plan (tuning or "
                        "loading it from the plan cache as needed; "
                        "overrides --strategy/--executor)")
    p.add_argument("--plan-cache-dir", default=None,
                   help="plan cache directory for --tuned (default: "
                        "$REPRO_PLAN_CACHE_DIR or ~/.cache/repro/plans)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("preprocess",
                       help="build and save an FBMPK operator")
    _add_matrix_args(p)
    p.add_argument("-o", "--output", required=True, help=".npz path")
    p.add_argument("--strategy", default="abmc",
                   choices=["abmc", "levels"])
    p.add_argument("--block-size", type=int, default=1)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("reorder", help="reorder a matrix (ABMC/RCM)")
    _add_matrix_args(p)
    p.add_argument("-o", "--output", required=True,
                   help="output MatrixMarket path")
    p.add_argument("--method", default="abmc", choices=["abmc", "rcm"])
    p.add_argument("--block-size", type=int, default=64)
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("solve",
                       help="run an iterative solver, report its status")
    _add_matrix_args(p)
    p.add_argument("--solver", default="cg",
                   choices=["cg", "bicgstab", "gmres"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--check-finite", action="store_true",
                   help="validate matrix/rhs for NaN/Inf up front "
                        "(exit 4 on the first hit)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the manufactured solution")
    p.add_argument("--tuned", action="store_true",
                   help="route the solver's SpMVs through the autotuned "
                        "kernel (bit-identical iterates by the tuner's "
                        "acceptance gate)")
    p.add_argument("--plan-cache-dir", default=None,
                   help="plan cache directory for --tuned (default: "
                        "$REPRO_PLAN_CACHE_DIR or ~/.cache/repro/plans)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tune",
                       help="autotune an execution plan and persist it "
                            "in the plan cache")
    _add_matrix_args(p)
    p.add_argument("--kind", default="power", choices=["power", "spmv"],
                   help="workload to tune: the FBMPK A^k x pipeline or "
                        "a single SpMV kernel")
    p.add_argument("-k", type=int, default=8,
                   help="power for --kind power (default 8)")
    p.add_argument("--repeats", type=int, default=5,
                   help="timed repeats per candidate (trimmed mean)")
    p.add_argument("--max-candidates", type=int, default=None,
                   help="truncate the (analytically pre-ordered) "
                        "candidate list; the default plan always stays")
    p.add_argument("--force", action="store_true",
                   help="re-run the search even on a cache hit")
    p.add_argument("--plan-cache-dir", default=None,
                   help="plan cache directory (default: "
                        "$REPRO_PLAN_CACHE_DIR or ~/.cache/repro/plans)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("serve",
                       help="run the multi-tenant solve service "
                            "(NDJSON over TCP, batched sweeps)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7654,
                   help="TCP port (0 binds an ephemeral port; pair "
                        "with --port-file)")
    p.add_argument("--port-file", default=None,
                   help="write the bound port to this file once "
                        "listening (lets scripts use --port 0)")
    p.add_argument("--gather-window-ms", type=float, default=2.0,
                   help="how long the first request for a (matrix, k) "
                        "waits for companions before its batch is "
                        "sealed (latency traded for batching)")
    p.add_argument("--max-batch", type=int, default=32,
                   help="seal a batch early at this many RHS vectors")
    p.add_argument("--max-queue", type=int, default=256,
                   help="per-(matrix, k) queue bound; beyond it "
                        "requests get a structured queue_full "
                        "rejection")
    p.add_argument("--max-pending", type=int, default=4096,
                   help="global bound on queued requests")
    p.add_argument("--max-rows", type=int, default=200_000,
                   help="reject matrix specs larger than this")
    p.add_argument("--max-resident", type=int, default=4,
                   help="resident operator cap (LRU eviction beyond)")
    p.add_argument("--allow-paths", action="store_true",
                   help="let requests name MatrixMarket files on this "
                        "machine (off by default)")
    p.add_argument("--tune", default="full", choices=["off", "full"],
                   help="autotune first requests through the plan "
                        "cache ('full') or build the default operator "
                        "directly ('off')")
    p.add_argument("--tune-k", type=int, default=4,
                   help="power used when tuning a new structure")
    p.add_argument("--plan-cache-dir", default=None,
                   help="plan cache directory (default: "
                        "$REPRO_PLAN_CACHE_DIR or ~/.cache/repro/plans)")
    p.add_argument("--no-remote-shutdown", action="store_true",
                   help="ignore shutdown requests from clients")
    p.add_argument("--tune-budget-s", type=float, default=None,
                   help="per-search time budget for autotuning a new "
                        "structure; a blown budget counts as a tune "
                        "circuit-breaker failure")
    p.add_argument("--no-tune-breaker", action="store_true",
                   help="disable the tune circuit breaker (repeated "
                        "search failures then keep re-paying the "
                        "search instead of serving the default plan)")
    p.add_argument("--hang-timeout-s", type=float, default=None,
                   help="arm the executor watchdogs: a pool worker "
                        "silent for this long is killed and the sweep "
                        "falls back serially")
    p.add_argument("--drain-timeout-s", type=float, default=30.0,
                   help="bound on the shutdown drain; batches still "
                        "executing past it are abandoned with "
                        "structured errors")
    p.add_argument("--metrics-port", type=int, default=None,
                   help="serve Prometheus text exposition on this HTTP "
                        "port (0 binds an ephemeral port; pair with "
                        "--metrics-port-file); also activates a "
                        "telemetry session for the server's lifetime")
    p.add_argument("--metrics-port-file", default=None,
                   help="write the bound metrics port to this file "
                        "once listening")
    p.add_argument("--slo-target-ms", type=float, default=250.0,
                   help="latency SLO: a power request is good when it "
                        "succeeds within this budget")
    p.add_argument("--slo-goal", type=float, default=0.99,
                   help="fraction of good requests the error budget "
                        "is computed against (default 0.99)")
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("predict",
                       help="machine-model speedup predictions")
    p.add_argument("name", choices=list_matrix_names())
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("report",
                       help="validate and pretty-print a RunReport, or "
                            "diff two of them")
    p.add_argument("file", help="RunReport JSON (from --report)")
    p.add_argument("other", nargs="?",
                   help="second report: print a diff instead")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    """Parse and dispatch; map typed failures to exit codes.

    ``MatrixMarketError``/``OSError`` (unreadable or malformed input
    file) → 3, ``ValidationError`` (structural defects, NaN/Inf caught
    by ``--validate``/``--check-finite``) → 4, ``PhaseExecutionError``
    (crashed parallel phase) → 5, ``DeadlineExceededError`` (a blown
    deadline/budget) → 8.  Solver non-convergence returns 6
    from :func:`cmd_solve` directly.  A failure writing the requested
    ``--trace``/``--metrics``/``--report`` artefacts → 7 (the command
    itself succeeded; a command failure keeps its own code — telemetry
    of a failed run is still exported when possible, it is often the
    most useful kind).  Each failure is a single ``error:`` line on
    stderr, not a traceback.
    """
    args = build_parser().parse_args(argv)
    # NB: --metrics-port 0 (ephemeral) is falsy, hence the explicit
    # None check — truthiness would silently disable telemetry.
    wants_obs = any(getattr(args, flag, None)
                    for flag in ("trace", "metrics", "report",
                                 "profile")) \
        or getattr(args, "metrics_port", None) is not None
    tel = obs.Telemetry() if wants_obs else None
    sampler = None
    if tel is not None:
        tel.activate()
        if getattr(args, "profile", None):
            sampler = obs.StackSampler(
                hz=getattr(args, "profile_hz", None) or 100.0,
                recorder=tel.recorder).start()
    code = EXIT_OK
    try:
        code = args.func(args)
    except MatrixMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except PhaseExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_EXECUTION
    except DeadlineExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DEADLINE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    finally:
        if sampler is not None:
            sampler.stop()
        if tel is not None:
            tel.deactivate()
    if tel is not None:
        try:
            _export_telemetry(tel, args)
            if sampler is not None:
                n = obs.write_collapsed(sampler.collapsed(),
                                        args.profile)
                print(f"profile written to {args.profile} "
                      f"({n} stacks, {sampler.sample_count} samples)",
                      file=sys.stderr)
        except OSError as exc:
            print(f"error: telemetry export failed: {exc}",
                  file=sys.stderr)
            if code == EXIT_OK:
                code = EXIT_TELEMETRY
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
