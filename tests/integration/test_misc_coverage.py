"""Final coverage batch: small public behaviours not exercised
elsewhere."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import SSpMVProblem
from repro.core.sspmv import sspmv_fbmpk, sspmv_standard
from repro.core.fbmpk import build_fbmpk_operator
from repro.matrices import poisson2d
from repro.sparse import (
    CSRMatrix,
    ELLMatrix,
    SellCSigmaMatrix,
    spgemm_product_count,
)


class TestComplexCoefficients:
    """Section I: 'alpha_i are real or complex constants'."""

    def test_complex_combination_both_pipelines(self, small_sym, rng):
        x = rng.standard_normal(small_sym.n_rows)
        alphas = [1.0 + 1.0j, -2.0j, 0.5]
        y_std = sspmv_standard(small_sym, x, alphas)
        op = build_fbmpk_operator(small_sym, strategy="abmc", block_size=1)
        y_fb = sspmv_fbmpk(op, x, alphas)
        assert np.iscomplexobj(y_std) and np.iscomplexobj(y_fb)
        np.testing.assert_allclose(y_fb, y_std, rtol=1e-9, atol=1e-11)
        dense = small_sym.to_dense()
        expected = (alphas[0] * x + alphas[1] * dense @ x
                    + alphas[2] * dense @ (dense @ x))
        np.testing.assert_allclose(y_fb, expected, rtol=1e-9, atol=1e-11)

    def test_real_coefficients_stay_real(self, grid, rng):
        x = rng.standard_normal(grid.n_rows)
        y = sspmv_standard(grid, x, [1.0, 2.0])
        assert y.dtype == np.float64


class TestFormatAccounting:
    def test_ell_memory_index_width(self, grid):
        ell = ELLMatrix.from_csr(grid)
        assert ell.memory_bytes(index_bytes=4) < ell.memory_bytes()

    def test_sell_memory_includes_row_ids(self, grid):
        sell = SellCSigmaMatrix(grid, c=4, sigma=16)
        bare_panels = sum(s.indices.size * 8 + s.data.size * 8
                          for s in sell.slices)
        assert sell.memory_bytes() > bare_panels

    def test_spgemm_count_rectangular(self, rng):
        a = CSRMatrix.from_dense(np.ones((3, 5)))
        b = CSRMatrix.from_dense(np.ones((5, 2)))
        assert spgemm_product_count(a, b) == 3 * 5 * 2


class TestSSpMVProblemWrapper:
    def test_custom_operator_injection(self, small_sym, rng):
        op = build_fbmpk_operator(small_sym, strategy="levels")
        prob = SSpMVProblem(small_sym, operator=op)
        assert prob.operator is op
        x = rng.standard_normal(small_sym.n_rows)
        np.testing.assert_allclose(prob.evaluate(x, [0.0, 1.0]),
                                   small_sym.matvec(x),
                                   rtol=1e-10, atol=1e-12)


class TestCliExtras:
    def test_power_ones_flag(self, capsys):
        assert cli_main(["power", "--standin", "G3_circuit",
                         "--rows", "600", "-k", "2", "--ones"]) == 0
        assert "checksum" in capsys.readouterr().out

    def test_power_scipy_backend(self, capsys):
        """``power`` runs its sweeps on SciPy's compiled CSR loop; there
        is no ``--backend`` option to choose another kernel."""
        assert cli_main(["power", "--standin", "pwtk", "--rows", "600",
                         "-k", "3"]) == 0
        assert "L x2, U x2" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli_main(["power", "--standin", "pwtk", "--rows", "600",
                      "-k", "3", "--backend", "scipy"])

    def test_reorder_standin_rcm(self, tmp_path, capsys):
        out = str(tmp_path / "r.mtx")
        assert cli_main(["reorder", "--standin", "pwtk", "--rows", "600",
                         "-o", out, "--method", "rcm"]) == 0
        assert "bandwidth" in capsys.readouterr().out

    def test_info_rejects_missing_input(self):
        with pytest.raises(SystemExit, match="MatrixMarket"):
            cli_main(["info"])


class TestHasSortedIndices:
    def test_multi_row_detection(self):
        a = CSRMatrix([0, 2, 4], [0, 1, 1, 0], [1.0] * 4, (2, 2))
        assert not a.has_sorted_indices()
        assert a.sort_indices().has_sorted_indices()

    def test_grid_sorted_by_construction(self, grid):
        assert grid.has_sorted_indices()
