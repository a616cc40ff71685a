"""Boxcars, the canonical HRF, convolution, DCT drift, design assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boldkit.errors import OutOfRangeError, ShapeError
from boldkit.glm import fit_glm
from boldkit.task_design import (
    BlockDesign,
    DesignMatrix,
    HrfParams,
    alternating_block_design,
    boxcar,
    build_design_matrix,
    canonical_hrf,
    convolve_regressor,
    dct_highpass_basis,
    task_regressor,
)

from oracles import direct_convolution


def default_protocol():
    return alternating_block_design(block_s=30.0, run_length_s=300.0)


class TestBlockDesign:
    def test_default_protocol_blocks(self):
        design = default_protocol()
        assert design.onsets_s == (0.0, 60.0, 120.0, 180.0, 240.0)
        assert design.durations_s == (30.0,) * 5

    def test_invariants(self):
        with pytest.raises(ValueError):
            BlockDesign(onsets_s=(10.0, 5.0), durations_s=(1.0, 1.0), run_length_s=60.0)
        with pytest.raises(ValueError):
            BlockDesign(onsets_s=(0.0,), durations_s=(70.0,), run_length_s=60.0)
        with pytest.raises(ValueError):
            BlockDesign(onsets_s=(0.0, 5.0), durations_s=(10.0, 5.0), run_length_s=60.0)


class TestBoxcar:
    def test_paper_protocol_pattern(self):
        # 30 s on / 30 s off over 5 minutes at TR 3 s: 10 ones then 10
        # zeros, five times over
        box = boxcar(default_protocol(), tr_s=3.0, n_vols=100, oversample=1)
        assert box.shape == (100,)
        expected = np.tile(np.concatenate([np.ones(10), np.zeros(10)]), 5)
        np.testing.assert_array_equal(box, expected)

    def test_empty_design_is_all_zero(self):
        design = BlockDesign(onsets_s=(), durations_s=(), run_length_s=300.0)
        assert not boxcar(design, 3.0, 100, 4).any()

    def test_matches_interval_membership_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n_blocks = rng.integers(1, 5)
            onsets, cursor = [], 0.0
            for _ in range(n_blocks):
                cursor += float(rng.uniform(0.5, 20.0))
                onsets.append(cursor)
                cursor += float(rng.uniform(1.0, 25.0))
            durations = [
                float(min(rng.uniform(1.0, 25.0), next_on - on))
                for on, next_on in zip(onsets, onsets[1:] + [cursor])
            ]
            design = BlockDesign(tuple(onsets), tuple(durations), run_length_s=cursor + 1)
            n_vols = int(np.ceil((cursor + 1) / 3.0)) + 1
            box = boxcar(design, 3.0, n_vols, oversample=16)
            for i in range(box.size):
                t = i * 3.0 / 16
                inside = any(on <= t < on + d for on, d in zip(onsets, durations))
                assert box[i] == (1.0 if inside else 0.0)

    def test_block_past_window_rejected(self):
        design = BlockDesign(onsets_s=(290.0,), durations_s=(20.0,), run_length_s=310.0)
        with pytest.raises(OutOfRangeError):
            boxcar(design, 3.0, 103, 1)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=16))
    @settings(max_examples=30, deadline=None)
    def test_values_are_exactly_zero_or_one(self, n_blocks, oversample):
        onsets = tuple(20.0 * i + 3.0 for i in range(n_blocks))
        durations = (9.0,) * n_blocks
        design = BlockDesign(onsets, durations, run_length_s=20.0 * n_blocks + 10)
        box = boxcar(design, 2.0, int(10.0 * n_blocks) + 6, oversample)
        assert set(np.unique(box)) <= {0.0, 1.0}


def dense_hrf_argmax(params: HrfParams) -> float:
    """Peak location from the analytic formula on a 1 ms grid."""
    t = np.arange(0.0, params.kernel_length_s, 0.001)
    shape_p = params.peak_delay_s / params.peak_dispersion_s
    shape_u = params.undershoot_delay_s / params.undershoot_dispersion_s
    with np.errstate(divide="ignore", invalid="ignore"):
        log_peak = (shape_p - 1) * np.log(t) - t / params.peak_dispersion_s \
            - math.lgamma(shape_p) - shape_p * math.log(params.peak_dispersion_s)
        log_under = (shape_u - 1) * np.log(t) - t / params.undershoot_dispersion_s \
            - math.lgamma(shape_u) - shape_u * math.log(params.undershoot_dispersion_s)
    curve = np.exp(log_peak) - np.exp(log_under) / params.undershoot_ratio
    curve[t == 0] = 0.0
    return float(t[np.argmax(curve)])


class TestCanonicalHrf:
    def test_starts_at_zero(self):
        for dt in (0.05, 0.1, 0.5, 1.0):
            assert canonical_hrf(dt_s=dt)[0] == 0.0

    def test_peak_time_matches_dense_oracle(self):
        oracle_peak = dense_hrf_argmax(HrfParams())
        assert 4.5 <= oracle_peak <= 5.5
        kernel = canonical_hrf(dt_s=0.01)
        assert abs(0.01 * np.argmax(kernel) - oracle_peak) < 0.02

    def test_single_sign_change(self):
        kernel = canonical_hrf(dt_s=0.05)
        signs = np.sign(kernel[np.abs(kernel) > 1e-12])
        changes = int(np.sum(signs[1:] != signs[:-1]))
        assert changes == 1
        assert signs[0] > 0 and signs[-1] < 0

    def test_unit_peak_for_any_dt(self):
        for dt in (0.01, 0.1875, 1.0, 3.0):
            assert canonical_hrf(dt_s=dt).max() == pytest.approx(1.0)

    @pytest.mark.parametrize("params", [
        HrfParams(),
        HrfParams(peak_dispersion_s=0.9, undershoot_dispersion_s=1.3),
    ])
    @pytest.mark.parametrize("dt", [0.05, 0.1, 0.1875, 1.0])
    def test_bit_identical_to_scipy_stats_gamma(self, params, dt):
        from scipy.stats import gamma

        t = np.arange(0.0, params.kernel_length_s + dt * 0.5, dt)
        peak = gamma.pdf(t, params.peak_delay_s / params.peak_dispersion_s,
                         scale=params.peak_dispersion_s)
        under = gamma.pdf(t, params.undershoot_delay_s / params.undershoot_dispersion_s,
                          scale=params.undershoot_dispersion_s)
        reference = peak - under / params.undershoot_ratio
        reference = reference / reference.max()
        assert np.array_equal(canonical_hrf(params, dt_s=dt), reference)

    def test_parameter_invariants(self):
        with pytest.raises(ValueError):
            HrfParams(peak_delay_s=10.0, undershoot_delay_s=8.0)
        with pytest.raises(ValueError):
            HrfParams(kernel_length_s=10.0)


class TestConvolveRegressor:
    def test_zero_boxcar(self):
        kernel = canonical_hrf(dt_s=0.1875)
        reg = convolve_regressor(np.zeros(160), kernel, 16)
        assert reg.shape == (10,)
        assert not reg.any()

    def test_impulse_reproduces_kernel(self):
        kernel = canonical_hrf(dt_s=3.0)
        box = np.zeros(20)
        box[0] = 1.0
        reg = convolve_regressor(box, kernel, 1)
        expected = np.concatenate([kernel, np.zeros(20 - kernel.size)])
        np.testing.assert_allclose(reg, expected, rtol=0, atol=0)

    def test_matches_direct_convolution_oracle(self):
        design = default_protocol()
        box = boxcar(design, 3.0, 100, oversample=4)
        kernel = canonical_hrf(dt_s=0.75)
        reg = convolve_regressor(box, kernel, 4)
        oracle = direct_convolution(box, kernel)[::4]
        np.testing.assert_allclose(reg, oracle, rtol=1e-9)

    def test_linearity(self):
        kernel = canonical_hrf(dt_s=1.5)
        rng = np.random.default_rng(11)
        box1 = (rng.random(80) < 0.3).astype(float)
        box2 = (rng.random(80) < 0.3).astype(float)
        combined = convolve_regressor(2.0 * box1 + 3.0 * box2, kernel, 2)
        parts = 2.0 * convolve_regressor(box1, kernel, 2) + 3.0 * convolve_regressor(box2, kernel, 2)
        np.testing.assert_allclose(combined, parts, atol=1e-9)

    def test_microtime_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            convolve_regressor(np.zeros(33), np.ones(5), 16)


class TestDctBasis:
    def test_paper_defaults_give_three_columns(self):
        basis = dct_highpass_basis(100, 3.0, 0.005)
        assert basis.shape == (100, 3)

    def test_tiny_cutoff_gives_empty_basis(self):
        basis = dct_highpass_basis(20, 2.0, 0.005)
        assert basis.shape == (20, 0)

    def test_columns_unit_norm_and_orthogonal_to_constant(self):
        basis = dct_highpass_basis(100, 3.0, 0.005)
        ones = np.ones(100)
        for j in range(basis.shape[1]):
            assert np.linalg.norm(basis[:, j]) == pytest.approx(1.0, abs=1e-12)
            assert abs(basis[:, j] @ ones) < 1e-10

    def test_columns_mutually_orthogonal(self):
        basis = dct_highpass_basis(240, 2.0, 0.01)
        gram = basis.T @ basis
        np.testing.assert_allclose(gram, np.eye(basis.shape[1]), atol=1e-10)

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            dct_highpass_basis(100, 3.0, 0.2)

    @pytest.mark.parametrize("cutoff_hz", [0.0, -0.005, math.nan])
    def test_nonpositive_cutoff_rejected(self, cutoff_hz):
        with pytest.raises(ValueError, match="cutoff_hz must be positive"):
            dct_highpass_basis(100, 3.0, cutoff_hz)

    @pytest.mark.parametrize("tr_s", [math.nan, -3.0, 0.0, math.inf])
    def test_bad_tr_rejected_before_the_cutoff(self, tr_s):
        # the TR is checked first: NaN failed inside int(), and -3.0 was
        # reported as a cutoff above Nyquist
        with pytest.raises(ValueError, match="tr_s must be finite and positive"):
            dct_highpass_basis(100, tr_s, 0.005)


class TestBuildDesignMatrix:
    def test_column_layout(self):
        design = build_design_matrix(default_protocol(), 3.0, [100], 0.005)
        assert design.values.shape == (100, 5)
        assert design.column_labels == ["task", "drift", "drift", "drift", "intercept"]
        assert np.linalg.matrix_rank(design.values) == design.n_cols

    def test_task_column_matches_convolution(self):
        design = default_protocol()
        reg = task_regressor(design, 3.0, 100)
        matrix = build_design_matrix(design, 3.0, [100])
        np.testing.assert_array_equal(matrix.values[:, 0], reg)

    def test_rank_deficiency_flagged(self):
        reg = np.arange(50, dtype=float)
        design = DesignMatrix(values=np.column_stack([reg, reg, np.ones(50)]),
                              column_labels=["task", "task", "intercept"])
        # a dependent design is accepted; the fit reports its effective rank
        fit = fit_glm(np.random.default_rng(0).standard_normal((50, 2)), design)
        assert fit.rank == 2 < design.n_cols
