"""OLS fitting, t/p/z maps, and correlation maps against oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri, stdtr
from scipy.stats import kstest

from boldkit import glm
from boldkit.errors import (
    DegenerateRegressorError,
    DegreesOfFreedomError,
    InestimableContrastError,
)
from boldkit.duration import RunSet, average_runs, concatenate_runs, single_run_design
from boldkit.glm import (
    average_fit,
    concatenated_fit,
    correlation_from_fit,
    correlation_map,
    fit_glm,
    fit_runs,
    p_to_z,
    run_fit,
    t_contrast,
    t_to_p,
)
from boldkit.inference import fdr_bh
from boldkit.phantom import AcquisitionParams, PhantomSpec, generate_phantom
from boldkit.task_design import (
    BlockDesign,
    DesignMatrix,
    alternating_block_design,
    build_design_matrix,
)
from boldkit.volume_io import block_width, make_volume, voxel_series

from oracles import (
    normal_equations_beta,
    p_upper_tail_quadrature,
    t_stat_normal_equations,
    traced_peak,
)


def design_of(values):
    labels = ["task"] * (values.shape[1] - 1) + ["intercept"]
    return DesignMatrix(values=values, column_labels=labels)


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

    @pytest.mark.parametrize("dof", [1, 2, 3, 28, 95, 195, 1000, 32000])
    def test_p_matches_scipy_stdtr(self, dof):
        t = np.array([0.0, 1e-3, -1e-3, 1.0, -1.0, 5.0, -5.0, 40.0, -40.0, 1e3, -1e3])
        for two_sided, oracle in ((False, stdtr(dof, -t)),
                                  (True, np.minimum(2.0 * stdtr(dof, -np.abs(t)), 1.0))):
            p = t_to_p(t, dof, two_sided)
            measured = oracle > 1e-300
            np.testing.assert_allclose(p[measured], oracle[measured], rtol=1e-10, atol=0)

    def test_t_to_p_edge_values_never_iterate(self, monkeypatch):
        fraction = glm._beta_fraction

        def finite_only(x, a, b):
            assert np.all(np.isfinite(x))
            return fraction(x, a, b)

        monkeypatch.setattr(glm, "_beta_fraction", finite_only)
        t = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e200])
        with np.errstate(all="raise"):
            np.testing.assert_array_equal(t_to_p(t, 17), [np.nan, 0.0, 1.0, 0.5, 0.5, 0.0])
            np.testing.assert_array_equal(t_to_p(t, 17, two_sided=True),
                                          [np.nan, 0.0, 0.0, 1.0, 1.0, 0.0])

    def test_z_matches_scipy_ndtri(self):
        p = np.concatenate([np.geomspace(1e-300, 1.0, 20001), 1.0 - np.geomspace(1e-16, 0.5, 2001),
                            [0.075, 0.425, 0.5, 0.575, 0.925]])
        oracle = np.clip(-ndtri(p), -glm.Z_CLAMP, glm.Z_CLAMP)  # -inf at p = 1
        np.testing.assert_allclose(p_to_z(p), oracle, rtol=4e-15, atol=0)

    def test_z_edge_values(self):
        z = p_to_z(np.array([0.0, 1.0, 0.5, np.nan]))
        np.testing.assert_array_equal(z, [40.0, -40.0, 0.0, np.nan])
        assert not np.signbit(z[2])

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
        assert stats.t[0] == 0.0
        assert stats.p[0] == 0.5
        assert stats.z[0] == 0.0 and not np.signbit(stats.z[0])

    def test_degenerate_voxels_read_neutral_values_two_sided(self):
        rng = np.random.default_rng(8)
        design, _ = random_problem(rng, n=20, p=3, v=1)
        Y = np.column_stack([np.full(20, 3.0), np.zeros(20), rng.standard_normal(20)])
        stats = t_contrast(fit_glm(Y, design), [1.0, 0.0, 0.0], two_sided=True)
        assert stats.degenerate.tolist() == [True, True, False]
        assert (stats.t[:2] == 0.0).all() and (stats.p[:2] == 1.0).all()
        assert (stats.z[:2] == 0.0).all() and not np.signbit(stats.z[:2]).any()

    def test_fdr_on_null_phantom_rejects_no_degenerate_voxel(self):
        # the README's library recipe on a null phantom with a zero slab:
        # background without noise must not read as activation
        design = alternating_block_design()
        vol, _ = generate_phantom(PhantomSpec(cnr=0.0, seed=7), AcquisitionParams(n_vols=100),
                                  design)
        vol.data[:, :, :3] = 0.0
        matrix = build_design_matrix(design, 3.0, [100])
        stats = t_contrast(fit_glm(voxel_series(vol), matrix), np.eye(matrix.n_cols)[0])
        assert stats.degenerate.sum() == 3 * vol.spatial_dims[0] * vol.spatial_dims[1]
        result = fdr_bh(stats.p, q=0.05)
        assert not (result.rejected & stats.degenerate).any()

    # run lengths of one single-run and three concatenated layouts
    LAYOUTS = ([60], [60, 60], [45, 75], [60, 45, 90])

    @given(layout=st.sampled_from(LAYOUTS),
           values=st.lists(st.floats(min_value=-1e150, max_value=1e150), min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_built_designs_flag_every_constant_series(self, layout, values):
        # every built design has an intercept per run, so a series that is
        # constant within each run is fitted exactly: analyze_volume's mask
        # rests on this rule alone
        design = build_design_matrix(alternating_block_design(15.0, 90.0), 2.0, layout)
        whole = np.full(sum(layout), values[0])
        per_run = np.repeat(values[:len(layout)], layout)
        stats = t_contrast(fit_glm(np.column_stack([whole, per_run]), design),
                           np.eye(design.n_cols)[0])
        assert stats.degenerate.all()

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
        r = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert r[0, 0, 0] == pytest.approx(1.0)
        assert r[1, 0, 0] == pytest.approx(-1.0)

    def test_constant_voxels_flagged_zero(self):
        regressor = np.sin(np.arange(20))
        data = np.zeros((2, 1, 1, 20))
        data[0, 0, 0] = 7.0
        data[1, 0, 0] = regressor
        r = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert r[0, 0, 0] == 0.0
        assert r[1, 0, 0] == pytest.approx(1.0)

    def test_constant_series_whose_mean_rounds_is_flagged(self):
        # np.mean of seven 0.1 samples is 0.09999999999999999, so the
        # centred series is not exactly zero; neither it nor one ulp of
        # variation is noise, as t_contrast's degenerate flag agrees
        regressor = np.arange(7.0)
        data = np.full((2, 1, 1, 7), 0.1)
        data[1, 0, 0, 3] = np.nextafter(0.1, 1.0)
        assert data[0, 0, 0].mean() != 0.1
        r = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert (r == 0.0).all()
        design = design_of(np.column_stack([regressor, np.ones(7)]))
        stats = t_contrast(fit_glm(data.reshape(2, 7).T, design), [1.0, 0.0])
        assert stats.degenerate.all()

    def test_constant_regressor_rejected(self):
        vol = make_volume(np.random.default_rng(13).random((2, 2, 2, 10)))
        with pytest.raises(DegenerateRegressorError):
            correlation_map(vol, np.ones(10))

    def test_regressor_constant_up_to_rounding_rejected(self):
        # its mean rounds, so the centred regressor is ~1e-17, not zero
        vol = make_volume(np.random.default_rng(13).random((2, 2, 2, 7)))
        with pytest.raises(DegenerateRegressorError):
            correlation_map(vol, np.full(7, 0.1))

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
        r = correlation_map(make_volume(data, tr_seconds=2.0), regressor)
        assert float(r.mean()) == pytest.approx(expected_r, abs=0.02)


class TestCorrelationFromFit:
    """r from the fit against correlation_map, its one-pass oracle."""

    N = 100

    def condition(self, kind):
        """(design matrix, (N, V) series) of one duration condition: a 1000
        baseline plus noise, with a constant voxel (0), a voxel the design
        fits exactly (1), one that is the task regressor but for 1e-6 noise
        (2) and a negatively correlated one (3)."""
        rng = np.random.default_rng({"single": 41, "concatenated": 42, "averaged": 43}[kind])
        lengths = [self.N, self.N] if kind == "concatenated" else [self.N]
        matrix = build_design_matrix(alternating_block_design(), 3.0, lengths, 0.005)
        n, v = matrix.n_rows, 500
        regressor = matrix.values[:, 0]
        runs = 2 if kind == "averaged" else 1
        Y = 1000.0 + 20.0 * rng.standard_normal((runs, n, v)).mean(axis=0)
        Y += 10.0 * regressor[:, np.newaxis] * rng.random(v)
        Y[:, 0] = 1000.0
        Y[:, 1] = matrix.values @ rng.standard_normal(matrix.n_cols) + 1000.0
        Y[:, 2] = 1000.0 + 5.0 * regressor + 1e-6 * rng.standard_normal(n)
        Y[:, 3] -= 30.0 * regressor
        return matrix, Y

    @pytest.mark.parametrize("kind", ["single", "concatenated", "averaged"])
    def test_matches_correlation_map(self, kind):
        matrix, Y = self.condition(kind)
        fit = fit_glm(Y, matrix)
        r = correlation_from_fit(fit, 0)
        oracle = correlation_map(make_volume(Y.T[:, None, None, :]), matrix.values[:, 0])
        oracle = oracle[:, 0, 0]

        degenerate = t_contrast(fit, np.eye(matrix.n_cols)[0]).degenerate
        np.testing.assert_array_equal(np.flatnonzero(degenerate), [0, 1])
        assert (r[degenerate] == 0.0).all()  # the one rule for a series without noise
        np.testing.assert_allclose(r[~degenerate], oracle[~degenerate], rtol=0, atol=1e-12)
        assert r[2] > 1.0 - 1e-9
        assert r[3] < -0.5

    def test_constant_column_rejected(self):
        matrix, Y = self.condition("single")
        fit = fit_glm(Y, matrix)
        intercept = matrix.columns_labeled("intercept")[0]
        with pytest.raises(DegenerateRegressorError):
            correlation_from_fit(fit, intercept)

    def test_design_without_intercept_rejected(self):
        rng = np.random.default_rng(44)
        t = np.arange(40.0)
        matrix = DesignMatrix(values=np.column_stack([np.sin(t / 3.0), np.cos(t / 5.0)]),
                              column_labels=["task", "drift"])
        fit = fit_glm(1000.0 + rng.standard_normal((40, 6)), matrix)
        with pytest.raises(ValueError, match="no intercept"):
            correlation_from_fit(fit, 0)


class TestBlockedPasses:
    """fit_glm and correlation_map stream over column blocks of the voxel matrix."""

    N = 40
    CONSTANT = 0.1  # np.mean of forty 0.1 samples is 0.10000000000000005

    def blocked_problem(self, rank_deficient):
        rng = np.random.default_rng(31)
        n = self.N
        task = np.sin(np.arange(n) / 3.0)
        other = rng.standard_normal(n)
        columns = [task, other, task + other] if rank_deficient else [task, other]
        X = np.column_stack(columns + [np.ones(n)])
        width = block_width(n)
        v = 3 * width + 123  # four blocks, the last one partial
        Y = 1000.0 + 20.0 * rng.standard_normal((n, v))
        constant = [width + 5, v - 3]  # second and last block
        exact = [width + 6, v - 2]
        Y[:, constant[0]] = 7.0
        Y[:, constant[1]] = self.CONSTANT
        Y[:, exact] = X @ rng.standard_normal((X.shape[1], 2))
        assert Y.mean(axis=0)[constant[1]] != self.CONSTANT
        return design_of(X), Y, constant, exact

    @pytest.mark.parametrize("rank_deficient", [False, True])
    def test_fit_matches_one_shot_and_oracle_across_blocks(self, rank_deficient):
        design, Y, constant, exact = self.blocked_problem(rank_deficient)
        X = design.values
        fit = fit_glm(Y, design)
        assert fit.rank == 3

        one_shot = np.linalg.lstsq(X, Y, rcond=None)[0]
        residual_variance = ((Y - X @ one_shot) ** 2).sum(axis=0) / fit.dof
        full_rank = X[:, [0, 1, -1]]  # the same column space
        oracle_residuals = Y - full_rank @ normal_equations_beta(full_rank, Y)
        oracle_variance = (oracle_residuals**2).sum(axis=0) / fit.dof

        scale = np.abs(one_shot).max(axis=0)
        assert np.all(np.abs(fit.beta - one_shot) <= 1e-12 * scale)
        if not rank_deficient:
            oracle_beta = normal_equations_beta(X, Y)
            assert np.all(np.abs(fit.beta - oracle_beta) <= 1e-12 * scale)

        expected_degenerate = np.zeros(Y.shape[1], dtype=bool)
        expected_degenerate[constant + exact] = True
        stats = t_contrast(fit, np.eye(design.n_cols)[-1])  # estimable in both designs
        np.testing.assert_array_equal(stats.degenerate, expected_degenerate)
        fitted = ~expected_degenerate
        np.testing.assert_allclose(fit.residual_variance[fitted], residual_variance[fitted],
                                   rtol=1e-12)
        np.testing.assert_allclose(fit.residual_variance[fitted], oracle_variance[fitted],
                                   rtol=1e-12)

    def test_correlation_matches_one_shot_across_blocks(self):
        design, Y, constant, _ = self.blocked_problem(rank_deficient=False)
        regressor = design.values[:, 0]
        r = correlation_map(make_volume(Y.T[:, None, None, :]), regressor)

        expected_constant = (Y == Y[0]).all(axis=0)
        assert expected_constant[constant].all() and expected_constant.sum() == 2
        valid = ~expected_constant
        centered = Y[:, valid] - Y[:, valid].mean(axis=0)
        reg = regressor - regressor.mean()
        one_shot = (reg @ centered) / (np.linalg.norm(centered, axis=0) * np.linalg.norm(reg))
        np.testing.assert_allclose(r[:, 0, 0][valid], one_shot, rtol=1e-12, atol=1e-15)
        assert np.all(r[:, 0, 0][constant] == 0.0)

    def test_fit_memory_stays_below_a_quarter_of_the_data(self):
        n = 100
        v = 10 * block_width(n) + 7
        rng = np.random.default_rng(32)
        design, _ = random_problem(rng, n=n, p=3, v=1)
        Y = rng.standard_normal((n, v))
        assert traced_peak(fit_glm, Y, design) < Y.nbytes / 4

    def test_correlation_memory_stays_below_a_quarter_of_the_data(self):
        n = 100
        v = 10 * block_width(n) + 7
        rng = np.random.default_rng(33)
        vol = make_volume(rng.standard_normal((v, 1, 1, n)))
        assert traced_peak(correlation_map, vol, rng.standard_normal(n)) < vol.data.nbytes / 4


def stacked_design(run_designs):
    """Per-run designs stacked along time as build_design_matrix stacks
    its own: column 0 (the task) tied across the runs, every other column
    kept to its own run's rows."""
    others = sum(X.n_cols - 1 for X in run_designs)
    values = np.zeros((sum(X.n_rows for X in run_designs), 1 + others))
    row, col = 0, 1
    for X in run_designs:
        values[row:row + X.n_rows, 0] = X.values[:, 0]
        values[row:row + X.n_rows, col:col + X.n_cols - 1] = X.values[:, 1:]
        row, col = row + X.n_rows, col + X.n_cols - 1
    return DesignMatrix(values=values, column_labels=["task"] + ["drift"] * others)


class TestConditionsFromRunFits:
    """fit_runs fits each run once; run_fit, average_fit and
    concatenated_fit give each condition's fit from those fits alone, as
    fit_glm gives it on the condition built explicitly."""

    N = 40
    TR = 3.0
    TASK = BlockDesign(onsets_s=(0.0, 30.0, 60.0, 90.0), durations_s=(15.0,) * 4,
                       run_length_s=120.0)
    CONSTANT = 7  # a voxel that is 7.0 in every run

    def runs(self, n_runs, seed, n=N):
        """(N, V) series of n_runs runs over several voxel blocks: baseline
        1000, noise, a task response in a third of the voxels and one
        constant voxel."""
        rng = np.random.default_rng(seed)
        v = 2 * block_width(2 * self.N) + 57
        task = single_run_design(self.TASK, self.TR, n).values[:, 0]
        series = []
        for _ in range(n_runs):
            Y = 1000.0 + 20.0 * rng.standard_normal((n, v))
            Y[:, : v // 3] += 30.0 * task[:, np.newaxis]
            Y[:, self.CONSTANT] = 7.0
            series.append(Y)
        return series

    @staticmethod
    def assert_same_condition(fit, oracle):
        assert (fit.dof, fit.rank) == (oracle.dof, oracle.rank)
        c = np.zeros(fit.design.n_cols)
        c[0] = 1.0
        stats, expected = t_contrast(fit, c), t_contrast(oracle, c)
        np.testing.assert_array_equal(stats.degenerate, expected.degenerate)
        np.testing.assert_allclose(stats.t, expected.t, rtol=1e-10, atol=1e-10)
        noisy = ~expected.degenerate
        np.testing.assert_allclose(fit.residual_variance[noisy],
                                   oracle.residual_variance[noisy], rtol=1e-10)
        np.testing.assert_allclose(correlation_from_fit(fit, 0), correlation_from_fit(oracle, 0),
                                   rtol=0, atol=1e-10)
        return stats

    @pytest.mark.parametrize("n_runs", [2, 3])
    def test_conditions_match_fits_of_explicit_conditions(self, n_runs):
        series = self.runs(n_runs, seed=40 + n_runs)
        matrix = single_run_design(self.TASK, self.TR, self.N)
        fits = fit_runs(series, [matrix] * n_runs)

        for i, Y in enumerate(series):  # each run's own fit is fit_glm's, bit for bit
            single, oracle = run_fit(fits, i), fit_glm(Y, matrix)
            for name in ("beta", "residual_variance", "_y_scale"):
                np.testing.assert_array_equal(getattr(single, name), getattr(oracle, name))

        vols = [make_volume(Y.T[:, np.newaxis, np.newaxis, :]) for Y in series]
        runset = RunSet(runs=vols, design=self.TASK)
        stacked, stacked_matrix = concatenate_runs(runset)
        concatenated = self.assert_same_condition(
            concatenated_fit(fits, stacked_matrix), fit_glm(voxel_series(stacked), stacked_matrix))
        averaged = self.assert_same_condition(
            average_fit(fits), fit_glm(voxel_series(average_runs(runset)), matrix))
        for stats in (concatenated, averaged):
            assert np.flatnonzero(stats.degenerate).tolist() == [self.CONSTANT]

    def test_duplicated_run_averages_to_the_run_itself(self):
        [Y] = self.runs(1, seed=50)
        matrix = single_run_design(self.TASK, self.TR, self.N)
        fits = fit_runs([Y, Y], [matrix, matrix])
        single, averaged = run_fit(fits, 0), average_fit(fits)
        np.testing.assert_array_equal(averaged.beta, single.beta)
        np.testing.assert_array_equal(averaged.residual_variance, single.residual_variance)
        c = np.eye(matrix.n_cols)[0]
        np.testing.assert_array_equal(t_contrast(averaged, c).t, t_contrast(single, c).t)
        self.assert_same_condition(concatenated_fit(fits, stacked_design([matrix, matrix])),
                                   fit_glm(np.vstack([Y, Y]), stacked_design([matrix, matrix])))

    def test_run_and_its_negation_average_to_no_residual(self):
        [Y] = self.runs(1, seed=51)
        matrix = single_run_design(self.TASK, self.TR, self.N)
        fits = fit_runs([Y, -Y], [matrix, matrix])
        assert np.all(fits.summed_rss == 0.0)
        averaged = average_fit(fits)
        assert np.all(averaged.residual_variance == 0.0)
        oracle = fit_glm((Y + -Y) / 2, matrix)
        c = np.eye(matrix.n_cols)[0]
        stats, expected = t_contrast(averaged, c), t_contrast(oracle, c)
        assert stats.degenerate.all() and expected.degenerate.all()
        np.testing.assert_array_equal(stats.t, expected.t)

    def test_run_without_a_task_block(self):
        # the second run's task column is zero: its own design is rank
        # deficient, and only the first run carries the tied task
        series = self.runs(2, seed=52)
        matrix = single_run_design(self.TASK, self.TR, self.N)
        idle = DesignMatrix(values=np.column_stack([np.zeros(self.N), matrix.values[:, 1:]]),
                            column_labels=matrix.column_labels)
        fits = fit_runs(series, [matrix, idle])
        assert [f[3] for f in fits.factors] == [matrix.n_cols, matrix.n_cols - 1]
        stacked = stacked_design([matrix, idle])
        self.assert_same_condition(concatenated_fit(fits, stacked),
                                   fit_glm(np.vstack(series), stacked))
        with pytest.raises(ValueError, match="share one design"):
            average_fit(fits)

    def test_rank_deficient_run_design(self):
        # every run's design repeats its intercept column
        series = self.runs(3, seed=53)
        base = single_run_design(self.TASK, self.TR, self.N)
        matrix = DesignMatrix(values=np.column_stack([base.values, base.values[:, -1]]),
                              column_labels=base.column_labels + ["intercept"])
        fits = fit_runs(series, [matrix] * 3)
        assert fits.factors[0][3] == base.n_cols
        stacked = stacked_design([matrix] * 3)
        self.assert_same_condition(concatenated_fit(fits, stacked),
                                   fit_glm(np.vstack(series), stacked))
        self.assert_same_condition(average_fit(fits), fit_glm(sum(series) / 3, matrix))

    def test_runs_of_different_lengths_concatenate(self):
        series = self.runs(1, seed=54) + self.runs(1, seed=55, n=45)
        designs = [single_run_design(self.TASK, self.TR, n) for n in (self.N, 45)]
        fits = fit_runs(series, designs)
        assert fits.summed_rss is None
        stacked = build_design_matrix(self.TASK, self.TR, [self.N, 45])
        self.assert_same_condition(concatenated_fit(fits, stacked),
                                   fit_glm(np.vstack(series), stacked))

    def test_design_outside_the_runs_designs_is_rejected(self):
        series = self.runs(2, seed=56)
        matrix = single_run_design(self.TASK, self.TR, self.N)
        fits = fit_runs(series, [matrix, matrix])
        stacked = stacked_design([matrix, matrix])
        stacked.values[:, 0] = np.random.default_rng(57).standard_normal(2 * self.N)
        with pytest.raises(ValueError, match="outside the column space"):
            concatenated_fit(fits, stacked)
