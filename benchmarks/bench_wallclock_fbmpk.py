"""In-process wall-clock benchmarks of the actual kernels on this host.

This is the honest companion to the model-based figure reproductions:
pure-Python/numpy kernels cannot express the register-level fusion the
paper's C kernels use, so FBMPK's *wall-clock* advantage largely does not
transfer to this substrate (see EXPERIMENTS.md), even though its memory
behaviour — verified by the access counters and the cache simulator —
does.  These benches record where each implementation actually lands.

Groups:

* ``spmv``: single SpMV tiers (scalar reference is omitted — it is
  thousands of times slower and only used in unit tests).
* ``mpk-k5``: full ``A^5 x`` pipelines.
"""

import numpy as np
import pytest

from repro.baselines import MklLikeMPK
from repro.bench import bench_rows, fbmpk_operator, standin, write_report
from repro.core import fbmpk_unfused, mpk_standard, split_ldu
from repro.sparse.spmv import spmv_scipy, spmv_vectorised

K = 5
MATRIX = "af_shell10"


@pytest.fixture(scope="module")
def setup():
    a = standin(MATRIX, bench_rows())
    part = split_ldu(a)
    op = fbmpk_operator(MATRIX, bench_rows())
    mkl = MklLikeMPK(a)
    x = np.random.default_rng(7).standard_normal(a.n_rows)
    return a, part, op, mkl, x


@pytest.mark.benchmark(group="spmv")
def test_spmv_vectorised(benchmark, setup):
    a, _, _, _, x = setup
    y = benchmark(lambda: spmv_vectorised(a, x))
    assert y.shape == (a.n_rows,)


@pytest.mark.benchmark(group="spmv")
def test_spmv_scipy(benchmark, setup):
    a, _, _, _, x = setup
    y = benchmark(lambda: spmv_scipy(a, x))
    assert y.shape == (a.n_rows,)


@pytest.mark.benchmark(group="mpk-k5")
def test_mpk_standard_vectorised(benchmark, setup):
    a, _, _, _, x = setup
    benchmark(lambda: mpk_standard(a, x, K))


@pytest.mark.benchmark(group="mpk-k5")
def test_mpk_mkl_like(benchmark, setup):
    _, _, _, mkl, x = setup
    benchmark(lambda: mkl.power(x, K))


@pytest.mark.benchmark(group="mpk-k5")
def test_fbmpk_unfused(benchmark, setup):
    _, part, _, _, x = setup
    benchmark(lambda: fbmpk_unfused(part, x, K))


@pytest.mark.benchmark(group="mpk-k5")
def test_fbmpk_fused(benchmark, setup):
    _, _, op, _, x = setup
    benchmark(lambda: op.power(x, K))


def test_wallclock_equivalence(benchmark, setup):
    """All pipelines agree numerically on this host (timed region:
    the fused operator, once)."""
    a, part, op, mkl, x = setup
    y_ref = mkl.power(x, K)
    y_fused = benchmark.pedantic(lambda: op.power(x, K), rounds=1,
                                 iterations=1)
    assert np.allclose(y_fused, y_ref, rtol=1e-8, atol=1e-10)
    assert np.allclose(mpk_standard(a, x, K), y_ref, rtol=1e-8, atol=1e-10)
    assert np.allclose(fbmpk_unfused(part, x, K), y_ref, rtol=1e-8,
                       atol=1e-10)
    write_report(
        "wallclock_note",
        "Wall-clock groups 'spmv' and 'mpk-k5' measured by pytest-benchmark "
        "on this host; see the benchmark summary table in bench_output.txt. "
        "Expectation on a numpy substrate: the scipy (MKL-like) baseline "
        "wins single-kernel wall-clock; FBMPK's traffic advantage is "
        "demonstrated by the access counters (tests) and the cache "
        "simulator (fig9), not by Python wall-clock.",
    )
