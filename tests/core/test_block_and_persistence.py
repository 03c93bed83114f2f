"""Unit tests for the block power kernel and operator persistence."""

import numpy as np
import pytest

from repro.core.fbmpk import FBMPKOperator, build_fbmpk_operator

from .test_backends import oracle_power


class TestPowerBlock:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 6])
    @pytest.mark.parametrize("oracle", ["numpy", "scipy"])
    def test_matches_per_column_powers(self, any_matrix, rng, k, oracle):
        op = build_fbmpk_operator(any_matrix, strategy="abmc",
                                  block_size=1)
        X = rng.standard_normal((any_matrix.n_rows, 3))
        Y = op.power_block(X, k)
        for j in range(X.shape[1]):
            np.testing.assert_array_equal(Y[:, j], op.power(X[:, j], k))
            np.testing.assert_allclose(
                Y[:, j], oracle_power(any_matrix, X[:, j], k, oracle),
                rtol=1e-9, atol=1e-11)

    def test_single_column_block_equals_power(self, small_sym, rng):
        op = build_fbmpk_operator(small_sym, strategy="levels")
        x = rng.standard_normal(small_sym.n_rows)
        np.testing.assert_allclose(op.power_block(x[:, None], 4)[:, 0],
                                   op.power(x, 4), rtol=1e-12, atol=1e-13)

    def test_validation(self, grid, rng):
        op = build_fbmpk_operator(grid, strategy="levels")
        with pytest.raises(ValueError):
            op.power_block(rng.standard_normal((grid.n_rows, 2)), -1)
        with pytest.raises(ValueError):
            op.power_block(rng.standard_normal(grid.n_rows), 2)  # 1-D
        with pytest.raises(ValueError):
            op.power_block(rng.standard_normal((grid.n_rows + 1, 2)), 2)

    def test_input_block_not_mutated(self, grid, rng):
        op = build_fbmpk_operator(grid, strategy="abmc", block_size=1)
        X = rng.standard_normal((grid.n_rows, 2))
        X_copy = X.copy()
        op.power_block(X, 3)
        np.testing.assert_array_equal(X, X_copy)


class TestPersistence:
    @pytest.mark.parametrize("strategy", ["abmc", "levels",
                                          "levels-blocked"])
    def test_save_load_roundtrip(self, small_sym, rng, tmp_path, strategy):
        op = build_fbmpk_operator(small_sym, strategy=strategy,
                                  block_size=4)
        path = tmp_path / "op.npz"
        op.save(path)
        x = rng.standard_normal(small_sym.n_rows)
        X = rng.standard_normal((small_sym.n_rows, 3))
        loaded = FBMPKOperator.load(path)
        assert loaded.groups.origin == op.groups.origin
        assert loaded.schedule == op.schedule
        np.testing.assert_array_equal(loaded.power(x, 5), op.power(x, 5))
        np.testing.assert_array_equal(loaded.power_block(X, 4),
                                      op.power_block(X, 4))

    def test_loaded_abmc_operator_keeps_colour_phases(self, small_sym, rng,
                                                      tmp_path):
        """Multi-row ABMC blocks: the artefact carries the colour phases,
        so the loaded operator sweeps one segment per colour, as the
        built one does, rather than one per wave."""
        op = build_fbmpk_operator(small_sym, strategy="abmc", block_size=4)
        path = tmp_path / "op.npz"
        op.save(path)
        loaded = FBMPKOperator.load(path)
        try:
            assert loaded.block_phases() == op.block_phases()
        finally:
            loaded.close()
            op.close()
        n_colors = sum(1 for p in op.block_phases()[0] if p.tasks)
        op.close()
        assert len(loaded._serial_segments()[0]) == n_colors \
            < loaded.groups.n_forward
        x = rng.standard_normal(small_sym.n_rows)
        np.testing.assert_array_equal(loaded.power(x, 5), op.power(x, 5))

    def test_loaded_operator_metadata(self, grid, tmp_path):
        op = build_fbmpk_operator(grid, strategy="abmc", block_size=1)
        path = tmp_path / "grid.npz"
        op.save(path)
        loaded = FBMPKOperator.load(path)
        assert loaded.n == op.n
        assert loaded.groups.n_forward == op.groups.n_forward
        assert (loaded.perm is None) == (op.perm is None)
        if op.perm is not None:
            np.testing.assert_array_equal(loaded.perm, op.perm)

    def test_levels_operator_has_no_perm(self, grid, tmp_path):
        op = build_fbmpk_operator(grid, strategy="levels")
        path = tmp_path / "lv.npz"
        op.save(path)
        assert FBMPKOperator.load(path).perm is None
