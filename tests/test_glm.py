"""OLS fitting, t/p/z maps, and correlation maps against oracles."""

import numpy as np
import pytest
from scipy.stats import kstest

from boldkit.errors import (
    DegenerateRegressorError,
    DegreesOfFreedomError,
    InestimableContrastError,
)
from boldkit.glm import correlation_map, fit_glm, p_to_z, t_contrast, t_to_p
from boldkit.phantom import AcquisitionParams, PhantomSpec, generate_phantom
from boldkit.task_design import DesignMatrix, alternating_block_design
from boldkit.volume_io import make_volume

from oracles import p_upper_tail_quadrature, t_stat_normal_equations


def design_of(values, tr=2.0):
    labels = ["task"] * (values.shape[1] - 1) + ["intercept"]
    return DesignMatrix(values=values, column_labels=labels, tr_seconds=tr)


def random_problem(rng, n=None, p=None, v=None):
    n = n or int(rng.integers(20, 61))
    p = p or int(rng.integers(2, 7))
    v = v or int(rng.integers(1, 51))
    X = np.column_stack([rng.standard_normal((n, p - 1)), np.ones(n)])
    Y = rng.standard_normal((n, v))
    return design_of(X), Y


class TestFitGlm:
    def test_exact_fit_has_zero_residual_variance(self):
        rng = np.random.default_rng(0)
        design, _ = random_problem(rng, n=30, p=4, v=1)
        coeffs = rng.standard_normal((4, 8))
        Y = design.values @ coeffs
        fit = fit_glm(Y, design)
        np.testing.assert_allclose(fit.residual_variance, 0.0, atol=1e-18)
        np.testing.assert_allclose(fit.beta, coeffs, atol=1e-10)

    def test_dof_counting(self):
        rng = np.random.default_rng(1)
        design, Y = random_problem(rng, n=100, p=5, v=3)
        assert fit_glm(Y, design).dof == 95

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        design, Y = random_problem(rng, n=40, p=3, v=10)
        fit = fit_glm(Y, design)
        oracle = np.linalg.solve(design.values.T @ design.values, design.values.T @ Y)
        np.testing.assert_allclose(fit.beta, oracle, rtol=1e-8)

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        design, Y = random_problem(rng, n=50, p=4, v=6)
        fit = fit_glm(Y, design)
        residuals = Y - design.values @ fit.beta
        bound = 1e-7 * np.linalg.norm(Y)
        assert np.all(np.abs(design.values.T @ residuals) < bound)

    def test_rank_deficient_minimum_norm(self):
        rng = np.random.default_rng(4)
        base = rng.standard_normal((30, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1], np.ones(30)])
        design = design_of(X)
        Y = rng.standard_normal((30, 2))
        fit = fit_glm(Y, design)
        assert fit.rank == 3
        assert fit.dof == 27
        fitted = X @ fit.beta
        lstsq_fit = X @ np.linalg.lstsq(X, Y, rcond=None)[0]
        np.testing.assert_allclose(fitted, lstsq_fit, atol=1e-10)

    def test_no_dof_left(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([rng.standard_normal((3, 2)), np.ones(3)])
        with pytest.raises(DegreesOfFreedomError):
            fit_glm(rng.standard_normal((3, 2)), design_of(X))


class TestTContrast:
    def test_zero_t_gives_half_p_zero_z(self):
        rng = np.random.default_rng(6)
        design, _ = random_problem(rng, n=30, p=3, v=1)
        X = design.values
        noise = rng.standard_normal((30, 4))
        # residual-only data: projection onto the column space removed
        Y = noise - X @ np.linalg.lstsq(X, noise, rcond=None)[0]
        stats = t_contrast(fit_glm(Y, design), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(stats.t, 0.0, atol=1e-10)
        np.testing.assert_allclose(stats.p, 0.5, atol=1e-10)
        np.testing.assert_allclose(stats.z, 0.0, atol=1e-9)

    def test_high_dof_t_converges_to_z(self):
        # exact z-t gap at dof 5000 is 0.0111 at t = 6, so the 0.01
        # agreement is checked where it mathematically holds
        for t in (-4.0, -1.0, 0.5, 2.0, 5.0):
            assert p_to_z(t_to_p(t, 5000)) == pytest.approx(t, abs=0.01)
        for t in (-6.0, 3.0, 6.0):
            assert p_to_z(t_to_p(t, 10000)) == pytest.approx(t, abs=0.01)

    def test_p_matches_quadrature_oracle(self):
        for dof in (4, 11, 37, 95):
            for t in (-3.5, -1.0, 0.0, 0.7, 2.2, 5.0):
                assert t_to_p(t, dof) == pytest.approx(
                    p_upper_tail_quadrature(t, dof), rel=1e-8, abs=1e-12
                )

    def test_full_stack_matches_oracle(self):
        rng = np.random.default_rng(7)
        design, Y = random_problem(rng, n=40, p=4, v=12)
        c = np.array([1.0, -0.5, 0.0, 0.0])
        stats = t_contrast(fit_glm(Y, design), c)
        t_oracle, dof = t_stat_normal_equations(design.values, Y, c)
        np.testing.assert_allclose(stats.t, t_oracle, rtol=1e-8)
        assert stats.dof == dof

    def test_degenerate_voxels_flagged(self):
        rng = np.random.default_rng(8)
        design, _ = random_problem(rng, n=20, p=3, v=1)
        Y = np.column_stack([design.values @ [1.0, 2.0, 3.0], rng.standard_normal(20)])
        stats = t_contrast(fit_glm(Y, design), [1.0, 0.0, 0.0])
        assert stats.degenerate[0] and not stats.degenerate[1]
        assert np.isposinf(stats.t[0])
        assert stats.p[0] == 0.0
        assert stats.z[0] == 40.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        design, Y = random_problem(rng, n=35, p=4, v=9)
        c = np.array([0.0, 1.0, 0.0, 0.0])
        base = t_contrast(fit_glm(Y, design), c)
        scaled = t_contrast(fit_glm(7.5 * Y, design), c)
        np.testing.assert_allclose(scaled.t, base.t, rtol=1e-9)
        np.testing.assert_allclose(scaled.p, base.p, rtol=1e-9)
        np.testing.assert_allclose(scaled.z, base.z, rtol=1e-7, atol=1e-9)

    def test_p_strictly_decreasing_in_t(self):
        t = np.linspace(-6, 6, 101)
        p = t_to_p(t, 17)
        assert np.all(np.diff(p) < 0)

    def test_two_sided_flag(self):
        rng = np.random.default_rng(10)
        design, Y = random_problem(rng, n=30, p=3, v=5)
        c = [1.0, 0.0, 0.0]
        one = t_contrast(fit_glm(Y, design), c)
        two = t_contrast(fit_glm(Y, design), c, two_sided=True)
        np.testing.assert_allclose(two.p, 2 * np.minimum(one.p, 1 - one.p), rtol=1e-10)
        np.testing.assert_allclose(np.sign(two.z), np.sign(one.t), atol=0)

    def test_inestimable_contrast_rejected(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal((30, 2))
        X = np.column_stack([base[:, 0], base[:, 0], np.ones(30)])
        design = design_of(X)
        fit = fit_glm(rng.standard_normal((30, 2)), design)
        with pytest.raises(InestimableContrastError):
            t_contrast(fit, [1.0, -1.0, 0.0])
        # the estimable sum direction still works
        stats = t_contrast(fit, [1.0, 1.0, 0.0])
        assert np.all(np.isfinite(stats.t))

    def test_null_phantom_p_values_uniform(self):
        spec = PhantomSpec(cnr=0.0, ar1_rho=0.0, drift_amplitude=0.0, seed=123)
        acq = AcquisitionParams(n_vols=100)
        design_blocks = alternating_block_design()
        vol, _ = generate_phantom(spec, acq, design_blocks)
        from boldkit.duration import single_run_design

        matrix = single_run_design(design_blocks, 3.0, 100)
        Y = vol.data.reshape(-1, 100).T
        stats = t_contrast(fit_glm(Y, matrix), np.eye(matrix.n_cols)[0])
        assert stats.p.size >= 10_000
        assert kstest(stats.p, "uniform").statistic < 0.02


class TestCorrelationMap:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(12)
        regressor = rng.standard_normal(30)
        data = np.empty((2, 1, 1, 30))
        data[0, 0, 0] = regressor * 3.0 + 5.0
        data[1, 0, 0] = -regressor + 2.0
        r, flagged = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert r[0, 0, 0] == pytest.approx(1.0)
        assert r[1, 0, 0] == pytest.approx(-1.0)
        assert not flagged.any()

    def test_constant_voxels_flagged_zero(self):
        regressor = np.sin(np.arange(20))
        data = np.zeros((2, 1, 1, 20))
        data[0, 0, 0] = 7.0
        data[1, 0, 0] = regressor
        r, flagged = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert flagged[0, 0, 0] and not flagged[1, 0, 0]
        assert r[0, 0, 0] == 0.0

    def test_constant_series_whose_mean_rounds_is_flagged(self):
        # np.mean of seven 0.1 samples is 0.09999999999999999, so the
        # centred series is not exactly zero; one ulp of variation is not
        # constant
        regressor = np.arange(7.0)
        data = np.full((2, 1, 1, 7), 0.1)
        data[1, 0, 0, 3] = np.nextafter(0.1, 1.0)
        assert data[0, 0, 0].mean() != 0.1
        r, flagged = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert flagged[0, 0, 0] and not flagged[1, 0, 0]
        assert r[0, 0, 0] == 0.0
        assert np.isfinite(r[1, 0, 0])

    def test_constant_regressor_rejected(self):
        vol = make_volume(np.random.default_rng(13).random((2, 2, 2, 10)))
        with pytest.raises(DegenerateRegressorError):
            correlation_map(vol, np.ones(10))

    def test_attenuation_matches_analytic_formula(self):
        rng = np.random.default_rng(14)
        nt, n_voxels = 120, 1000
        regressor = rng.standard_normal(nt)
        sigma_signal, sigma_noise = 1.0, 1.5
        expected_r = sigma_signal / np.sqrt(sigma_signal**2 + sigma_noise**2)
        series = (
            sigma_signal * (regressor - regressor.mean()) / regressor.std()
            + sigma_noise * rng.standard_normal((n_voxels, nt))
        )
        data = series.T.reshape(nt, n_voxels).T.reshape(n_voxels, 1, 1, nt)
        r, _ = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert float(r.mean()) == pytest.approx(expected_r, abs=0.02)
