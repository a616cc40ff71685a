"""Synthetic phantom: determinism, noise model, signal scaling."""

import numpy as np
import pytest

from boldkit.duration import single_run_design
from boldkit import volume_io
from boldkit.errors import NumericError, OutOfRangeError
from boldkit.glm import fit_glm, t_contrast
from boldkit.phantom import (
    BASELINE,
    AcquisitionParams,
    PhantomSpec,
    default_target_rois,
    field_snr_scale,
    generate_phantom,
    sphere_mask,
)
from boldkit.task_design import alternating_block_design, task_regressor

from oracles import traced_peak

SMALL_DIMS = (10, 10, 8)


def small_spec(**kwargs):
    defaults = dict(dims=SMALL_DIMS, seed=1)
    defaults.update(kwargs)
    return PhantomSpec(**defaults)


def short_design():
    return alternating_block_design(block_s=15.0, run_length_s=90.0)


def short_acq():
    return AcquisitionParams(n_vols=30)


def documented_phantom(spec, acq, design, run_index):
    """The run the generator documents, built with whole-run temporaries:
    noise[t] = rho * noise[t-1] + step * innovation[t], then
    BASELINE + noise + drift sign * amplitude * t / 100, then the
    unit-peak task response times cnr * sigma * field scale in the ROIs."""
    nt, n_voxels = acq.n_vols, int(np.prod(spec.dims))
    stream = np.random.Generator(np.random.Philox(key=(spec.seed << 64) | run_index))
    draws = stream.standard_normal((nt + 1, n_voxels))
    drift_sign = np.where(draws[0] >= 0.0, 1.0, -1.0)
    innovations = draws[1:]
    rho = spec.ar1_rho
    noise = np.empty_like(innovations)
    noise[0] = innovations[0] * spec.noise_sigma
    step = spec.noise_sigma * np.sqrt(1.0 - rho**2)
    for t in range(1, nt):
        noise[t] = rho * noise[t - 1] + step * innovations[t]
    ramp = np.arange(nt, dtype=np.float64)[:, np.newaxis] / 100.0
    series = BASELINE + noise + (drift_sign * spec.drift_amplitude) * ramp
    data = series.T.reshape(spec.dims + (nt,), order="F").copy(order="F")
    response = task_regressor(design, acq.tr_s, nt)
    response = response / np.abs(response).max()
    data[spec.target_mask()] += spec.cnr * spec.noise_sigma * field_snr_scale(spec.field_tesla) \
        * response
    return data


class TestFieldScale:
    def test_reference_field(self):
        assert field_snr_scale(3.0) == 1.0

    def test_low_field(self):
        assert field_snr_scale(0.55) == pytest.approx(0.55 / 3.0)
        assert field_snr_scale(1.5) == 0.5

    def test_positive_required(self):
        with pytest.raises(ValueError):
            field_snr_scale(0.0)


class TestSpecValidation:
    def test_default_rois_disjoint_and_shaped(self):
        rois = default_target_rois((24, 24, 21))
        assert set(rois) == {"motor", "visual"}
        overlap = rois["motor"] & rois["visual"]
        assert not overlap.any()
        assert rois["motor"].sum() > 0 and rois["visual"].sum() > 0

    def test_overlapping_rois_rejected(self):
        ball = sphere_mask(SMALL_DIMS, (5, 5, 4), 3)
        with pytest.raises(ValueError):
            PhantomSpec(dims=SMALL_DIMS, target_rois={"a": ball, "b": ball})

    def test_caller_rois_neither_rewritten_nor_shared(self):
        listed = sphere_mask(SMALL_DIMS, (3, 3, 3), 2).tolist()
        ball = sphere_mask(SMALL_DIMS, (7, 7, 5), 2)
        rois = {"a": listed, "b": ball}
        spec = PhantomSpec(dims=SMALL_DIMS, target_rois=rois)
        assert rois.keys() == {"a", "b"} and rois["a"] is listed and rois["b"] is ball
        expected = spec.target_mask().copy()
        ball[...] = ~ball
        rois["a"] = np.ones(SMALL_DIMS, dtype=bool)
        np.testing.assert_array_equal(spec.target_mask(), expected)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            small_spec(ar1_rho=1.0)
        with pytest.raises(ValueError):
            small_spec(cnr=-1.0)
        with pytest.raises(ValueError):
            small_spec(seed=-1)
        with pytest.raises(ValueError):
            AcquisitionParams(n_vols=3)


class TestGeneration:
    def test_same_seed_bit_identical(self):
        spec, acq, design = small_spec(), short_acq(), short_design()
        a, _ = generate_phantom(spec, acq, design)
        b, _ = generate_phantom(spec, acq, design)
        assert np.array_equal(a.data, b.data)

    def test_drawn_into_a_slab_equals_a_new_array(self):
        spec, acq, design = small_spec(), short_acq(), short_design()
        expected, _ = generate_phantom(spec, acq, design, run_index=2)
        stack = np.zeros(SMALL_DIMS + (3 * 30,), order="F")
        slab = stack[..., 30:60]
        vol, _ = generate_phantom(spec, acq, design, run_index=2, out=slab)
        assert vol.data is slab
        assert np.array_equal(slab, expected.data)
        assert not stack[..., :30].any() and not stack[..., 60:].any()

    def test_different_seeds_differ(self):
        acq, design = short_acq(), short_design()
        a, _ = generate_phantom(small_spec(seed=1), acq, design)
        b, _ = generate_phantom(small_spec(seed=2), acq, design)
        assert not np.array_equal(a.data, b.data)

    def test_runs_are_independent_streams(self):
        spec, acq, design = small_spec(cnr=0.0, drift_amplitude=0.0), short_acq(), short_design()
        a, _ = generate_phantom(spec, acq, design, run_index=0)
        b, _ = generate_phantom(spec, acq, design, run_index=1)
        assert not np.array_equal(a.data, b.data)
        corr = np.corrcoef((a.data - BASELINE).ravel(), (b.data - BASELINE).ravel())[0, 1]
        assert abs(corr) < 0.02

    def test_null_phantom_is_the_documented_stream(self):
        spec = small_spec(cnr=0.0, drift_amplitude=0.0, ar1_rho=0.0, seed=7)
        vol, _ = generate_phantom(spec, short_acq(), short_design(), run_index=3)
        stream = np.random.Generator(np.random.Philox(key=(7 << 64) | 3))
        draws = stream.standard_normal((30 + 1, int(np.prod(SMALL_DIMS))))
        expected = (BASELINE + spec.noise_sigma * draws[1:]).T
        assert np.array_equal(vol.data, expected.reshape(SMALL_DIMS + (30,), order="F"))

    @pytest.mark.parametrize("run_index", [0, 1])
    def test_default_phantom_is_the_documented_recurrence(self, run_index):
        # AR(1) noise, drift and task signal at the default rho, drift and cnr
        spec = small_spec(seed=7)
        assert spec.ar1_rho == 0.3 and spec.drift_amplitude > 0 and spec.cnr > 0
        vol, _ = generate_phantom(spec, short_acq(), short_design(), run_index=run_index)
        expected = documented_phantom(spec, short_acq(), short_design(), run_index)
        assert np.array_equal(vol.data, expected)

    def test_blocks_carry_the_recurrence(self):
        # the run is finished in blocks of volumes, the last one partial;
        # each block's first row continues the previous block's noise
        spec = PhantomSpec(seed=7)
        acq = AcquisitionParams(n_vols=35)
        design = alternating_block_design(block_s=15.0, run_length_s=105.0)
        step = volume_io.block_width(int(np.prod(spec.dims)))
        assert 2 * step < acq.n_vols and acq.n_vols % step
        vol, _ = generate_phantom(spec, acq, design, run_index=1)
        assert np.array_equal(vol.data, documented_phantom(spec, acq, design, 1))

    def test_overflow_is_a_numeric_error(self):
        with pytest.raises(NumericError, match="phantom generation overflows"):
            generate_phantom(small_spec(noise_sigma=1.7e308), short_acq(), short_design())

    def test_memory_is_the_draws_plus_one_mib(self):
        # the series is built inside the array of draws, one row at a time
        spec = PhantomSpec(seed=7)
        acq = AcquisitionParams()
        draws_bytes = 8 * (acq.n_vols + 1) * int(np.prod(spec.dims))
        design = alternating_block_design(block_s=30.0, run_length_s=300.0)
        assert traced_peak(generate_phantom, spec, acq, design) < draws_bytes + 2**20

    def test_null_phantom_has_no_task_signal(self):
        spec = small_spec(cnr=0.0, drift_amplitude=0.0, ar1_rho=0.0)
        vol, truth = generate_phantom(spec, short_acq(), short_design())
        roi = truth["motor"] | truth["visual"]
        inside = vol.data[roi].mean()
        outside = vol.data[~roi].mean()
        sem = spec.noise_sigma / np.sqrt(min(roi.sum(), (~roi).sum()) * 30)
        assert abs(inside - outside) < 5 * sem

    def test_baseline_level(self):
        spec = small_spec(cnr=0.0, drift_amplitude=0.0)
        vol, _ = generate_phantom(spec, short_acq(), short_design())
        assert vol.data.mean() == pytest.approx(BASELINE, abs=1.0)

    def test_header_geometry(self):
        vol, _ = generate_phantom(small_spec(), short_acq(), short_design())
        assert vol.header.dims == SMALL_DIMS + (30,)
        assert vol.header.voxel_size_mm == (3.3, 3.3, 4.8)
        assert vol.header.tr_seconds == 3.0

    def test_design_overrun_rejected(self):
        with pytest.raises(OutOfRangeError):
            generate_phantom(small_spec(), AcquisitionParams(n_vols=10), short_design())

    def test_truth_masks_copy_spec_rois(self):
        spec = small_spec()
        _, truth = generate_phantom(spec, short_acq(), short_design())
        assert set(truth) == set(spec.target_rois)
        for name in truth:
            np.testing.assert_array_equal(truth[name], spec.target_rois[name])


class TestNoiseModel:
    def test_stationary_variance(self):
        for rho in (0.0, 0.3, 0.7):
            spec = small_spec(cnr=0.0, drift_amplitude=0.0, ar1_rho=rho, noise_sigma=20.0)
            vol, _ = generate_phantom(spec, AcquisitionParams(n_vols=200),
                                      alternating_block_design(30.0, 600.0))
            noise = vol.data - BASELINE
            assert noise.std() == pytest.approx(20.0, rel=0.03)

    def test_lag_one_autocorrelation(self):
        spec = small_spec(cnr=0.0, drift_amplitude=0.0, ar1_rho=0.5, noise_sigma=10.0)
        vol, _ = generate_phantom(spec, AcquisitionParams(n_vols=200),
                                  alternating_block_design(30.0, 600.0))
        noise = (vol.data - BASELINE).reshape(-1, 200)
        num = (noise[:, 1:] * noise[:, :-1]).mean()
        assert num / noise.var() == pytest.approx(0.5, abs=0.03)

    def test_drift_slope_and_signs(self):
        spec = small_spec(cnr=0.0, ar1_rho=0.0, noise_sigma=1e-6, drift_amplitude=50.0)
        vol, _ = generate_phantom(spec, short_acq(), short_design())
        series = vol.data.reshape(-1, 30)
        slopes = (series[:, -1] - series[:, 0]) / 29.0
        np.testing.assert_allclose(np.abs(slopes), 50.0 / 100.0, rtol=1e-3)
        positive_fraction = (slopes > 0).mean()
        assert 0.35 < positive_fraction < 0.65

    def test_amplitude_scales_with_field(self):
        acq, design = short_acq(), short_design()
        # signal-to-noise is governed by cnr, so drown the noise with it
        quiet = dict(ar1_rho=0.0, noise_sigma=1.0, drift_amplitude=0.0, cnr=1e6)
        low, truth = generate_phantom(small_spec(field_tesla=0.55, **quiet), acq, design)
        high, _ = generate_phantom(small_spec(field_tesla=3.0, **quiet), acq, design)
        roi = truth["motor"]
        low_amp = (low.data[roi] - BASELINE).max()
        high_amp = (high.data[roi] - BASELINE).max()
        assert low_amp / high_amp == pytest.approx(0.55 / 3.0, rel=1e-4)


class TestSignalMonotonicity:
    def test_mean_roi_t_nondecreasing_in_cnr(self):
        design = short_design()
        acq = short_acq()
        matrix = single_run_design(design, 3.0, 30)
        contrast = np.zeros(matrix.n_cols)
        contrast[0] = 1.0
        cnrs = (0.5, 1.0, 2.0, 4.0)

        ordered_pairs = 0
        total_pairs = 0
        for seed in range(100):
            means = []
            for cnr in cnrs:
                spec = small_spec(cnr=cnr, seed=seed)
                vol, truth = generate_phantom(spec, acq, design)
                roi = truth["motor"] | truth["visual"]
                stats = t_contrast(fit_glm(vol.data.reshape(-1, 30).T, matrix), contrast)
                means.append(stats.t.reshape(SMALL_DIMS)[roi].mean())
            for lo, hi in zip(means, means[1:]):
                total_pairs += 1
                ordered_pairs += hi >= lo
        assert ordered_pairs / total_pairs >= 0.95
