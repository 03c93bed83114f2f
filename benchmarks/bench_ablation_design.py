"""Design-choice ablations (DESIGN.md Section 5).

Two knobs the paper exposes or discusses, measured on stand-ins:

* **ABMC block size** — parallelism (blocks per colour, barrier count)
  versus per-block work; the performance/parallelism trade-off of
  Section III-D ("The maximum number of elements in each block can be
  set, with a trade-off between performance and parallelism").
* **Sweep-group strategy** — ABMC colours versus level scheduling
  (Section VII's alternative) in group counts and fused wall-clock.
"""

import time

import numpy as np
import pytest

from repro.bench import bench_rows, format_table, standin, write_report
from repro.core import build_fbmpk_operator, mpk_standard
from repro.reorder import abmc_ordering

MATRIX = "pwtk"


def test_ablation_block_size(benchmark):
    a = standin(MATRIX, min(bench_rows(), 15_000))
    sizes = sorted({1, 8, 32, 128, a.n_rows // 512 * 4 or 4})

    def sweep():
        rows = []
        for bs in sizes:
            o = abmc_ordering(a, block_size=bs)
            counts = np.bincount(o.color_of_block)
            rows.append([bs, o.n_blocks, o.n_colors,
                         int(counts.max()), int(counts.min())])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(
        ["block rows", "#blocks", "#colours", "max blocks/colour",
         "min blocks/colour"],
        rows,
        title="Ablation: ABMC block size vs parallel structure "
              f"({MATRIX} stand-in)",
    )
    write_report("ablation_block_size", table)
    # Bigger blocks -> fewer blocks; parallelism (blocks per colour)
    # shrinks monotonically in block size.
    blocks = [r[1] for r in rows]
    assert blocks == sorted(blocks, reverse=True)
    max_par = [r[3] for r in rows]
    assert max_par[0] >= max_par[-1]


def test_ablation_strategy(benchmark):
    a = standin(MATRIX, min(bench_rows(), 15_000))
    x = np.random.default_rng(5).standard_normal(a.n_rows)
    k = 5
    reference = mpk_standard(a, x, k)

    rows = []
    ops = {}
    for strategy in ("abmc", "levels"):
        t0 = time.perf_counter()
        op = build_fbmpk_operator(a, strategy=strategy)
        t_pre = time.perf_counter() - t0
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            y = op.power(x, k)
            best = min(best, time.perf_counter() - t0)
        assert np.allclose(y, reference, rtol=1e-8, atol=1e-10)
        ops[strategy] = op
        rows.append([strategy, op.groups.n_forward,
                     f"{t_pre:.2f}s", f"{best * 1e3:.1f}ms"])
    table = format_table(
        ["strategy", "fwd groups", "preprocess", "A^5x best"],
        rows,
        title=f"Ablation: sweep strategy ({MATRIX} stand-in, this host)",
    )
    write_report("ablation_strategy", table)

    # The timed region: the default configuration.
    op = ops["abmc"]
    benchmark(lambda: op.power(x, k))
    # ABMC keeps the phase count tiny; level scheduling on banded
    # matrices degenerates towards chains (the finding that motivates
    # the paper's choice of multi-colouring over levels).
    assert ops["abmc"].groups.n_forward < 100
    assert ops["levels"].groups.n_forward > ops["abmc"].groups.n_forward
