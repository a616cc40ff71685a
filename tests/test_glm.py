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
from boldkit.glm import correlation_map, fit_glm, p_to_z, t_contrast, t_to_p
from boldkit.inference import fdr_bh
from boldkit.phantom import AcquisitionParams, PhantomSpec, generate_phantom
from boldkit.task_design import DesignMatrix, alternating_block_design, build_design_matrix
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
