"""The FBMPK sweep kernel (Algorithm 2's order on SciPy's compiled CSR
loop) against independent oracles: a dense NumPy power and a chain of
SciPy sparse products, plus the bitwise reference."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.fbmpk import (
    KernelCounter,
    build_fbmpk_operator,
    fbmpk_reference,
)
from repro.core.mpk import mpk_reference_dense
from repro.core.plan import fbmpk_plan
from repro.reorder.permute import permute_vector, unpermute_vector


def oracle_power(a, x, k, oracle):
    """``A^k x`` from NumPy dense products or SciPy sparse products."""
    if oracle == "numpy":
        return mpk_reference_dense(a, x, k)
    m = sp.csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    y = x.copy()
    for _ in range(k):
        y = m @ y
    return y


@pytest.mark.parametrize("oracle", ["numpy", "scipy"])
@pytest.mark.parametrize("strategy", ["abmc", "levels"])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_backends_match_dense(any_matrix, rng, oracle, strategy, k):
    op = build_fbmpk_operator(any_matrix, strategy=strategy)
    x = rng.standard_normal(any_matrix.n_rows)
    np.testing.assert_allclose(op.power(x, k),
                               oracle_power(any_matrix, x, k, oracle),
                               rtol=1e-9, atol=1e-11)


def test_scipy_backend_counts_passes(small_sym, rng):
    op = build_fbmpk_operator(small_sym, block_size=1)
    counter = KernelCounter()
    op.power(rng.standard_normal(small_sym.n_rows), 6, counter=counter)
    plan = fbmpk_plan(6)
    assert (counter.l_passes, counter.u_passes) \
        == (plan.l_passes, plan.u_passes)


def test_backends_bitwise_comparable(small_sym, rng):
    """The compiled sweeps reproduce Algorithm 2 bit for bit on the
    operator's own (ABMC) row ordering."""
    x = rng.standard_normal(small_sym.n_rows)
    op = build_fbmpk_operator(small_sym, block_size=1)
    ref = unpermute_vector(
        fbmpk_reference(op.part, permute_vector(x, op.perm), 4), op.perm)
    np.testing.assert_array_equal(op.power(x, 4), ref)


def test_unknown_backend_rejected(grid):
    """There is one sweep kernel, so no backend can be selected."""
    with pytest.raises(TypeError, match="backend"):
        build_fbmpk_operator(grid, backend="cuda")
