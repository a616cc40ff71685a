"""Slice timing, rigid motion, Gaussian smoothing, high-pass filtering."""

import logging

import numpy as np
import pytest
from scipy import ndimage

from boldkit import pipeline, preprocess
from boldkit.config import validate_config
from boldkit.errors import InsufficientDataError, NumericError, ShapeError
from boldkit.preprocess import (
    RigidMotion,
    SliceOrder,
    apply_motion,
    estimate_motion,
    fwhm_to_sigma_vox,
    gaussian_kernel_1d,
    gaussian_smooth,
    highpass_filter,
    interleaved_order,
    invert_rigid,
    resample_rigid,
    rotation_matrix,
    sequential_order,
    slice_offsets_s,
    slice_timing_correct,
)
from boldkit.volume_io import block_width, make_volume

from oracles import gaussian_kernel_3d, slice_timing_fft, smooth_zero_padded, traced_peak

VOXEL = (3.3, 3.3, 4.8)


def smooth_blob_field(dims, n_blobs=6, seed=0, margin=5.0, width_mm=(8.0, 16.0)):
    """Analytic sum-of-Gaussians phantom and its evaluator (mm coords)."""
    rng = np.random.default_rng(seed)
    voxel = np.asarray(VOXEL)
    blobs = [
        (
            float(rng.uniform(0.5, 2.0)),
            rng.uniform(margin, np.array(dims) - margin) * voxel,
            float(rng.uniform(*width_mm)),
        )
        for _ in range(n_blobs)
    ]

    def field(points_mm):
        value = np.zeros(points_mm.shape[:-1])
        for amp, center, width in blobs:
            value += amp * np.exp(-((points_mm - center) ** 2).sum(-1) / (2 * width**2))
        return value

    grid_mm = np.stack(
        np.meshgrid(*[np.arange(d, dtype=float) for d in dims], indexing="ij"), axis=-1
    ) * voxel
    return field, grid_mm


def inject_rigid_analytic(field, grid_mm, dims, params):
    """Evaluate the continuous field at rigidly-moved points (no interpolation)."""
    motion = RigidMotion.from_params(params)
    rot = rotation_matrix(motion.rotation_rad)
    center_mm = (np.array(dims) - 1) / 2 * np.asarray(VOXEL)
    inv = np.linalg.inv(rot)
    points = (grid_mm - center_mm) @ inv.T + center_mm - inv @ motion.translation_mm
    return field(points)


class TestSliceOrder:
    def test_interleaved_odd_first(self):
        order = interleaved_order(5)
        assert order.acquisition_sequence == (0, 2, 4, 1, 3)

    def test_offsets_are_multiples_of_tr_over_nz(self):
        # 21 interleaved slices at TR 3 s: offsets are multiples of 1/7 s
        order = interleaved_order(21)
        offsets = slice_offsets_s(order, 3.0)
        np.testing.assert_allclose(offsets[order.acquisition_sequence[1]], 3.0 / 21)
        steps = offsets / (3.0 / 21)
        np.testing.assert_allclose(steps, np.round(steps), atol=1e-12)
        assert sorted(offsets) == pytest.approx(list(np.arange(21) * 3.0 / 21))

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            SliceOrder(acquisition_sequence=(0, 0, 1))


class TestSliceTiming:
    def test_constant_volume_unchanged(self):
        data = np.full((4, 4, 5, 10), 7.5)
        vol = make_volume(data, voxel_size_mm=VOXEL, tr_seconds=3.0)
        out = slice_timing_correct(vol, interleaved_order(5))
        np.testing.assert_allclose(out.data, data, atol=1e-12)

    def test_sinusoid_shifted_to_reference(self):
        nz, nt, tr = 6, 80, 3.0
        freq = 0.02
        order = sequential_order(nz, reference_fraction=0.5)
        offsets = slice_offsets_s(order, tr)
        times = np.arange(nt) * tr
        data = np.empty((2, 2, nz, nt))
        for z in range(nz):
            data[:, :, z, :] = np.sin(2 * np.pi * freq * (times + offsets[z]))
        vol = make_volume(data, voxel_size_mm=VOXEL, tr_seconds=tr)
        out = slice_timing_correct(vol, order)

        expected_times = times + 0.5 * tr
        bound = (2 * np.pi * freq * tr) ** 2 / 8  # linear-interp error for a sinusoid
        for z in range(nz):
            expected = np.sin(2 * np.pi * freq * expected_times)
            err = np.abs(out.data[0, 0, z, 1:-1] - expected[1:-1])
            assert err.max() < bound * 1.05

    def test_white_noise_stays_white(self):
        # sub-volume shifts of 0.5, 0.25, 0 and -0.25 TR
        rng = np.random.default_rng(4)
        noise = rng.standard_normal((8, 8, 4, 200))
        out = slice_timing_correct(make_volume(noise, voxel_size_mm=VOXEL, tr_seconds=3.0),
                                   sequential_order(4)).data
        for z in range(4):
            series = out[:, :, z, :]
            lag1 = np.mean(series[..., 1:] * series[..., :-1]) / series.var()
            assert series.var() == pytest.approx(1.0, abs=0.05)
            assert abs(lag1) < 0.05

    @pytest.mark.parametrize("nt", [2, 3, 37, 1025])
    def test_shift_matrix_views_match_index_formula(self, nt):
        kernel = np.random.default_rng(nt).standard_normal(2 * nt)
        k = np.arange(nt)
        by_index = kernel[(k - k[:, np.newaxis]) % (2 * nt)] + kernel[k + k[:, np.newaxis] + 1]
        np.testing.assert_array_equal(preprocess._mirrored_shift_matrix(kernel), by_index)

    @pytest.mark.parametrize("nt", [37, 1100])
    def test_matches_mirrored_fft_oracle(self, nt):
        rng = np.random.default_rng(5)
        vol = make_volume(rng.standard_normal((3, 4, 5, nt)), voxel_size_mm=VOXEL,
                          tr_seconds=2.0)
        order = interleaved_order(5)
        expected = slice_timing_fft(vol.data, slice_offsets_s(order, 2.0),
                                    order.reference_fraction * 2.0, 2.0)
        np.testing.assert_allclose(slice_timing_correct(vol, order).data, expected,
                                   rtol=0, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3, 4, 12))
        b = rng.standard_normal((3, 3, 4, 12))
        order = interleaved_order(4)

        def correct(arr):
            return slice_timing_correct(
                make_volume(arr, voxel_size_mm=VOXEL, tr_seconds=2.0), order
            ).data

        np.testing.assert_allclose(
            correct(2.0 * a - 3.0 * b), 2.0 * correct(a) - 3.0 * correct(b), atol=1e-12
        )

    def test_in_place_equals_new_array(self):
        rng = np.random.default_rng(7)
        vol = make_volume(rng.standard_normal((5, 4, 6, 20)), voxel_size_mm=VOXEL,
                          tr_seconds=3.0)
        order = interleaved_order(6)
        before = vol.data.copy()
        expected = slice_timing_correct(vol, order).data
        assert np.array_equal(vol.data, before)  # a new array leaves the input untouched
        result = slice_timing_correct(vol, order, in_place=True)
        assert result.data is vol.data
        assert np.array_equal(vol.data, expected)

    def test_memory_in_place_is_one_shift_matrix(self):
        # one nt x nt matrix lives at a time, plus one slice's series
        nt = 1500
        rng = np.random.default_rng(8)
        vol = make_volume(rng.standard_normal((2, 2, 3, nt)), tr_seconds=3.0)
        peak = traced_peak(slice_timing_correct, vol, sequential_order(3), True)
        assert peak < 8 * nt**2 + 2**20

    @pytest.mark.parametrize("stage", ["slice_timing", "smoothing"])
    @pytest.mark.parametrize("data", [
        np.zeros((3, 4, 5, 6)),                             # C order
        np.zeros((3, 4, 5, 6), order="F", dtype=np.float32),
        np.zeros((3, 4, 5, 6), order="F"),                  # made read-only below
    ])
    def test_in_place_needs_writable_x_fastest_float64_data(self, stage, data):
        # Volume4D guarantees the layout and dtype; data set afterwards does not
        vol = make_volume(np.zeros((3, 4, 5, 6)), voxel_size_mm=VOXEL, tr_seconds=3.0)
        if data.dtype == np.float64 and data.flags.f_contiguous:
            data.flags.writeable = False
        vol.data = data
        with pytest.raises(ValueError, match="writable x-fastest float64"):
            if stage == "slice_timing":
                slice_timing_correct(vol, sequential_order(5), in_place=True)
            else:
                gaussian_smooth(vol, 8.0, in_place=True)

    def test_too_few_volumes(self):
        vol = make_volume(np.zeros((2, 2, 3, 1)), tr_seconds=3.0)
        with pytest.raises(InsufficientDataError):
            slice_timing_correct(vol, sequential_order(3))

    def test_slice_count_mismatch(self):
        vol = make_volume(np.zeros((2, 2, 3, 5)), tr_seconds=3.0)
        with pytest.raises(ShapeError):
            slice_timing_correct(vol, sequential_order(4))


class TestRigidTransforms:
    def test_integer_shift_exact(self):
        rng = np.random.default_rng(2)
        data = rng.random((8, 8, 8))
        shifted = resample_rigid(data, RigidMotion(translation_mm=[3.3, 0, 0]), VOXEL)
        np.testing.assert_allclose(shifted[:-1], data[1:], atol=1e-12)

    def test_invert_round_trip(self):
        motion = RigidMotion.from_params([4.0, -2.0, 1.5, 0.03, -0.02, 0.035])
        inverse = invert_rigid(motion)
        rot = rotation_matrix(motion.rotation_rad)
        rot_inv = rotation_matrix(inverse.rotation_rad)
        np.testing.assert_allclose(rot @ rot_inv, np.eye(3), atol=1e-12)
        p = np.array([10.0, -5.0, 3.0])
        forward = rot @ p + motion.translation_mm
        np.testing.assert_allclose(rot_inv @ forward + inverse.translation_mm, p, atol=1e-12)

    def test_apply_identity_is_exact(self):
        rng = np.random.default_rng(3)
        vol = make_volume(rng.random((6, 6, 6, 4)), voxel_size_mm=VOXEL, tr_seconds=3.0)
        out = apply_motion(vol, [RigidMotion() for _ in range(4)])
        np.testing.assert_array_equal(out.data, vol.data)

    def test_apply_in_place_equals_new_array_in_one_volume_of_scratch(self):
        rng = np.random.default_rng(5)
        dims = (24, 24, 21)
        vol = make_volume(rng.random(dims + (6,)), voxel_size_mm=VOXEL, tr_seconds=3.0)
        motion = [RigidMotion(translation_mm=rng.normal(0.0, 2.0, 3),
                              rotation_rad=rng.normal(0.0, 0.03, 3)) for _ in range(6)]
        motion[2] = RigidMotion()  # identity: the volume is left as it is
        before = vol.data.copy()
        expected = apply_motion(vol, motion).data
        assert np.array_equal(vol.data, before)  # a new array leaves the input untouched
        result = apply_motion(vol, motion, in_place=True)
        assert result.data is vol.data
        assert np.array_equal(vol.data, expected)
        volume_bytes = 8 * int(np.prod(dims))
        assert traced_peak(apply_motion, vol, motion, True) < 1.5 * volume_bytes

    def test_integer_shift_then_unshift(self):
        rng = np.random.default_rng(4)
        data = rng.random((10, 10, 10))
        there = resample_rigid(data, RigidMotion(translation_mm=[3.3, -3.3, 4.8]), VOXEL)
        back = resample_rigid(there, RigidMotion(translation_mm=[-3.3, 3.3, -4.8]), VOXEL)
        interior = (slice(1, -1),) * 3
        np.testing.assert_allclose(back[interior], data[interior], atol=1e-12)

    def test_motion_length_mismatch(self):
        vol = make_volume(np.zeros((4, 4, 4, 3)), tr_seconds=3.0)
        with pytest.raises(ShapeError):
            apply_motion(vol, [RigidMotion()])

    def test_composed_inverse_then_step_gives_params_back(self):
        def rigid_map(params, points, center):  # p -> R(p - c) + c + t
            return (points - center) @ rotation_matrix(params[3:]).T + center + params[:3]

        rng = np.random.default_rng(12)
        center = np.array([20.0, -7.0, 11.0])
        points = rng.uniform(-40.0, 40.0, (50, 3))
        for _ in range(5):
            params, step = (np.concatenate([rng.uniform(-5.0, 5.0, 3), rng.uniform(-0.3, 0.3, 3)])
                            for _ in range(2))
            composed = preprocess._compose_inverse(params, step)
            np.testing.assert_allclose(rigid_map(composed, rigid_map(step, points, center), center),
                                       rigid_map(params, points, center), rtol=0, atol=1e-12)


class TestEstimateMotion:
    def test_still_series_gives_exact_identity(self):
        field, grid = smooth_blob_field((12, 12, 10))
        frame = field(grid)
        vol = make_volume(np.stack([frame] * 3, axis=-1), voxel_size_mm=VOXEL, tr_seconds=3.0)
        for motion in estimate_motion(vol):
            assert np.abs(motion.translation_mm).max() < 1e-3
            assert np.abs(motion.rotation_rad).max() < 1e-4

    def test_recovers_injected_translation(self):
        # (dims, field seed, shift in voxels, angles in degrees, rotation
        # tolerance in degrees); the second input sits at the edge of the
        # capture range. On the small field the objective's own minimum lies
        # 0.6 deg off in rotation, so only its translation is checked.
        cases = [
            ((16, 16, 12), 5, [1.5, -0.8, 0.4], [0.0, 0.0, 0.0], np.inf),
            ((24, 24, 21), 4, [2.5, -2.5, 2.0], [1.0, -1.5, 2.0], 0.5),
        ]
        for dims, seed, shift_vox, angles_deg, tol_deg in cases:
            field, grid = smooth_blob_field(dims, seed=seed)
            ref = field(grid)
            true = np.concatenate([np.multiply(shift_vox, VOXEL), np.deg2rad(angles_deg)])
            moved = inject_rigid_analytic(field, grid, dims, true)
            vol = make_volume(np.stack([ref, moved], axis=-1), voxel_size_mm=VOXEL,
                              tr_seconds=3.0)
            est = estimate_motion(vol)[1]
            err_vox = np.abs((est.translation_mm - true[:3]) / np.asarray(VOXEL))
            assert err_vox.max() < 0.1
            assert np.abs(np.rad2deg(est.rotation_rad - true[3:])).max() < tol_deg

    def test_recovers_injected_rotation(self):
        dims = (16, 16, 12)
        field, grid = smooth_blob_field(dims, seed=6)
        ref = field(grid)
        true = np.array([0.0, 0.0, 0.0, 0.0, 0.0, np.deg2rad(2.0)])
        moved = inject_rigid_analytic(field, grid, dims, true)
        vol = make_volume(np.stack([ref, moved], axis=-1), voxel_size_mm=VOXEL, tr_seconds=3.0)
        est = estimate_motion(vol)[1]
        assert abs(np.rad2deg(est.rotation_rad[2]) - 2.0) < 0.5
        assert np.abs(np.rad2deg(est.rotation_rad[:2])).max() < 0.5

    def test_flat_or_empty_volume_keeps_identity(self):
        field, grid = smooth_blob_field((12, 12, 10))
        ref = field(grid)
        flat = np.full(ref.shape, 1234.567)
        for reference, moving in ((ref, np.zeros_like(ref)), (ref, flat), (flat, flat)):
            vol = make_volume(np.stack([reference, moving], axis=-1), voxel_size_mm=VOXEL,
                              tr_seconds=3.0)
            params = estimate_motion(vol)[1].params
            assert np.all(np.isfinite(params))
            assert np.abs(params).max() < 1e-6

    def test_reference_jacobian_matches_forward_differences(self):
        # column k: derivative of the reference's spline at the domain nodes
        # under a small rigid motion of the reference along parameter k
        field, grid = smooth_blob_field((12, 12, 10), seed=3)
        ref = field(grid)
        domain = preprocess._ScoringDomain(ref, VOXEL)
        coefficients = ndimage.spline_filter(ref, order=3)
        voxel = np.asarray(VOXEL)
        for k, h in enumerate([1e-4] * 3 + [1e-6] * 3):
            matrix, offset = preprocess._rigid_matrix_offset(
                ref.shape, RigidMotion.from_params(h * np.eye(6)[k]), voxel)
            moved = ndimage.map_coordinates(coefficients, matrix @ domain.grid + offset[:, None],
                                            order=3, prefilter=False)
            difference = (moved - domain.reference_values) / h
            scale = np.abs(difference).max()
            assert scale > 0
            assert np.abs(domain.jacobian[:, k] - difference).max() <= 1e-3 * scale

    def test_warns_once_with_the_rank_of_an_unconstraining_reference(self, caplog):
        dims = (12, 12, 10)
        field, grid = smooth_blob_field(dims)
        structured = field(grid)
        # constant along z: no z translation, so rank 5
        uniform_in_z = np.repeat(structured[:, :, 5:6], dims[2], axis=2)
        cases = ((structured, None), (uniform_in_z, 5), (np.full(dims, 1234.567), 0))
        for reference, rank in cases:
            vol = make_volume(np.stack([reference, structured], axis=-1), voxel_size_mm=VOXEL,
                              tr_seconds=3.0)
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="boldkit.preprocess"):
                params = estimate_motion(vol)[1].params
            assert np.all(np.isfinite(params))
            warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
            assert [r.args[1] for r in warnings] == ([] if rank is None else [rank])
            assert all("rank" in r.getMessage() for r in warnings)

    def test_logs_one_debug_record_per_registered_volume(self, caplog):
        field, grid = smooth_blob_field((12, 12, 10))
        frame = field(grid)
        vol = make_volume(np.stack([frame] * 3, axis=-1), voxel_size_mm=VOXEL, tr_seconds=3.0)
        with caplog.at_level(logging.DEBUG, logger="boldkit.preprocess"):
            estimate_motion(vol, reference_index=1)
        records = [r for r in caplog.records if r.name == "boldkit.preprocess"]
        assert [r.levelno for r in records] == [logging.DEBUG, logging.DEBUG]
        assert [r.args[0] for r in records] == [0, 2]
        for record in records:
            message = record.getMessage()
            assert "iterations" in message and "cost evaluations" in message
            assert "final cost" in message

    def test_thread_count_changes_neither_parameters_nor_log_order(self, caplog):
        dims = (12, 12, 10)
        field, grid = smooth_blob_field(dims, seed=9)
        rng = np.random.default_rng(10)
        frames = [field(grid)]
        for _ in range(4):
            params = np.concatenate([rng.uniform(-1.0, 1.0, 3) * np.asarray(VOXEL),
                                     np.deg2rad(rng.uniform(-1.0, 1.0, 3))])
            frames.append(inject_rigid_analytic(field, grid, dims, params))
        vol = make_volume(np.stack(frames, axis=-1), voxel_size_mm=VOXEL, tr_seconds=3.0)
        estimates = []
        for threads in (1, 2, 4):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="boldkit.preprocess"):
                motion = estimate_motion(vol, reference_index=2, threads=threads)
            estimates.append(np.stack([m.params for m in motion]))
            records = [r for r in caplog.records if r.name == "boldkit.preprocess"]
            assert [r.args[0] for r in records] == [0, 1, 3, 4]
        assert not np.any(estimates[0][2])
        np.testing.assert_array_equal(estimates[1], estimates[0])
        np.testing.assert_array_equal(estimates[2], estimates[0])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_cost_raises_from_its_worker(self):
        field, grid = smooth_blob_field((12, 12, 10))
        frame = field(grid)
        # squared residuals of 1e200 overflow to inf
        vol = make_volume(np.stack([frame, frame, frame * 1e200, frame], axis=-1),
                          voxel_size_mm=VOXEL, tr_seconds=3.0)
        with pytest.raises(NumericError):
            estimate_motion(vol, threads=2)

    def test_zero_threads_rejected(self):
        vol = make_volume(np.random.default_rng(11).random((6, 6, 6, 3)), tr_seconds=3.0)
        with pytest.raises(ValueError):
            estimate_motion(vol, threads=0)

    def test_apply_after_estimate_reduces_msd(self):
        dims = (16, 16, 12)
        field, grid = smooth_blob_field(dims, seed=7)
        ref = field(grid)
        rng = np.random.default_rng(8)
        frames = [ref]
        for _ in range(2):
            params = np.concatenate([
                rng.uniform(-1.5, 1.5, 3) * np.asarray(VOXEL),
                np.deg2rad(rng.uniform(-1.5, 1.5, 3)),
            ])
            frames.append(inject_rigid_analytic(field, grid, dims, params))
        vol = make_volume(np.stack(frames, axis=-1), voxel_size_mm=VOXEL, tr_seconds=3.0)
        corrected = apply_motion(vol, estimate_motion(vol))
        interior = (slice(3, -3),) * 3
        for i in (1, 2):
            before = np.mean((vol.data[..., i] - ref) ** 2)
            after = np.mean((corrected.data[..., i] - ref) ** 2)
            assert after < before
            # away from the zero-filled borders the correction is strong
            before_in = np.mean((vol.data[..., i][interior] - ref[interior]) ** 2)
            after_in = np.mean((corrected.data[..., i][interior] - ref[interior]) ** 2)
            assert after_in < 0.1 * before_in


class TestGaussianSmooth:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 21, 64, 300])
    @pytest.mark.parametrize("sigma", [0.4, 1.7, 9.0, 300.0])
    def test_operator_views_match_index_formula(self, n, sigma):
        operator = preprocess._axis_smoothing_operator(n, sigma)
        kernel = gaussian_kernel_1d(sigma, max_radius=n - 1)
        radius = kernel.size // 2
        if radius == 0:
            assert operator is None
            return
        by_distance = np.zeros(n)
        by_distance[:radius + 1] = kernel[radius:]
        by_index = by_distance[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        np.testing.assert_array_equal(operator, by_index / by_index.sum(axis=1, keepdims=True))

    def test_sigma_arithmetic(self):
        sigma = fwhm_to_sigma_vox(8.0, VOXEL)
        assert sigma[0] == pytest.approx(3.3972 / 3.3, abs=2e-4)
        assert sigma[2] == pytest.approx(8.0 / 2.354820045 / 4.8, rel=1e-9)

    def test_kernel_unit_sum(self):
        for sigma in (0.4, 1.03, 2.7):
            assert gaussian_kernel_1d(sigma).sum() == pytest.approx(1.0, abs=1e-12)

    def test_constant_volume_unchanged(self):
        vol = make_volume(np.full((10, 10, 8, 2), 3.25), voxel_size_mm=VOXEL, tr_seconds=3.0)
        out = gaussian_smooth(vol, 8.0)
        np.testing.assert_allclose(out.data, 3.25, atol=1e-9)

    @pytest.mark.parametrize("fwhm_mm", [0.0, -8.0, float("nan")])
    def test_nonpositive_fwhm_rejected(self, fwhm_mm):
        vol = make_volume(np.ones((4, 4, 4, 2)), voxel_size_mm=VOXEL, tr_seconds=3.0)
        with pytest.raises(ValueError, match="fwhm_mm must be positive"):
            gaussian_smooth(vol, fwhm_mm)

    def test_interior_mean_preserved(self):
        rng = np.random.default_rng(9)
        data = np.zeros((24, 24, 20, 1))
        data[10:14, 10:14, 8:12, 0] = rng.random((4, 4, 4))
        vol = make_volume(data, voxel_size_mm=VOXEL, tr_seconds=3.0)
        out = gaussian_smooth(vol, 8.0)
        assert out.data.mean() == pytest.approx(data.mean(), rel=1e-6)

    def test_white_noise_variance_reduction_matches_kernel(self):
        sigmas = fwhm_to_sigma_vox(8.0, VOXEL)
        radii = [int(np.floor(4 * s)) for s in sigmas]
        kernel3d = gaussian_kernel_3d(sigmas, radii)
        expected_factor = float((kernel3d**2).sum())

        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(8):
            noise = rng.standard_normal((22, 22, 18, 1))
            vol = make_volume(noise, voxel_size_mm=VOXEL, tr_seconds=3.0)
            out = gaussian_smooth(vol, 8.0)
            interior = out.data[radii[0]:-radii[0], radii[1]:-radii[1], radii[2]:-radii[2], 0]
            ratios.append(interior.var() / noise.var())
        assert np.mean(ratios) == pytest.approx(expected_factor, rel=0.05)

    def test_linearity(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 8, 6, 2))
        b = rng.standard_normal((8, 8, 6, 2))

        def smooth(arr):
            return gaussian_smooth(
                make_volume(arr, voxel_size_mm=VOXEL, tr_seconds=3.0), 8.0
            ).data

        np.testing.assert_allclose(
            smooth(1.5 * a + 0.5 * b), 1.5 * smooth(a) + 0.5 * smooth(b), atol=1e-12
        )

    @pytest.mark.parametrize("dims,voxel,order", [
        ((10, 9, 7, 3), VOXEL, "F"),             # anisotropic voxels
        ((3, 12, 2, 2), (1.0, 3.3, 1.2), "F"),   # axes shorter than the kernel
        ((1, 8, 1, 2), VOXEL, "F"),              # length-1 axes
        ((9, 8, 6, 1), VOXEL, "F"),              # a single volume
        ((7, 6, 5, 4), VOXEL, "C"),              # C-ordered input
        ((10, 9, 7, 450), VOXEL, "F"),           # several chunks, the last one partial
    ])
    def test_matches_direct_3d_oracle(self, dims, voxel, order):
        rng = np.random.default_rng(14)
        data = np.asarray(1.0 + rng.random(dims), order=order)
        vol = make_volume(data, voxel_size_mm=voxel, tr_seconds=3.0)
        out = gaussian_smooth(vol, 8.0)
        expected = smooth_zero_padded(data, fwhm_to_sigma_vox(8.0, voxel))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=0)

    def test_memory_is_the_output_plus_two_mib(self):
        # volumes are smoothed a ~1 MiB chunk at a time, so beyond the
        # output only chunk-sized scratch is allocated
        rng = np.random.default_rng(16)
        vol = make_volume(rng.standard_normal((24, 24, 21, 30)), voxel_size_mm=VOXEL,
                          tr_seconds=3.0)
        assert traced_peak(gaussian_smooth, vol, 8.0) < vol.data.nbytes + 2 * 2**20

    @pytest.mark.parametrize("dims,n_passes", [
        ((10, 9, 7, 450), 3),
        ((10, 1, 7, 4000), 2),   # a length-1 axis drops its pass
        ((1, 8, 1, 40000), 1),
    ])
    def test_in_place_equals_new_array(self, dims, n_passes):
        # several chunks with a partial last one, an odd and an even pass count
        step = block_width(int(np.prod(dims[:3])))
        assert dims[3] > step and dims[3] % step
        sigmas = fwhm_to_sigma_vox(8.0, VOXEL)
        assert sum(preprocess._axis_tiles(n, sigma) is not None
                   for n, sigma in zip(dims, sigmas)) == n_passes
        rng = np.random.default_rng(18)
        vol = make_volume(1.0 + rng.random(dims), voxel_size_mm=VOXEL, tr_seconds=3.0)
        before = vol.data.copy()
        expected = gaussian_smooth(vol, 8.0).data
        assert np.array_equal(vol.data, before)  # a new array leaves the input untouched
        result = gaussian_smooth(vol, 8.0, in_place=True)
        assert result.data is vol.data
        assert np.array_equal(vol.data, expected)

    def test_no_axis_to_smooth(self):
        vol = make_volume(np.arange(12.0).reshape(1, 1, 1, 12), tr_seconds=3.0)
        assert gaussian_smooth(vol, 8.0) is vol
        assert gaussian_smooth(vol, 8.0, in_place=True) is vol

    @pytest.mark.parametrize("n,voxel_x", [
        (600, 1.0),     # radius 13: the middle tiles read only the band
        (700, 0.05),    # radius 271, past one tile: two tiles touch each end
        (1000, 1e-30),  # radius n - 1: every tile reads the whole axis
    ])
    def test_tiled_axis_matches_one_operator(self, monkeypatch, n, voxel_x):
        rng = np.random.default_rng(19)
        vol = make_volume(1.0 + rng.random((n, 3, 2, 2)), voxel_size_mm=(voxel_x, 3.3, 4.8),
                          tr_seconds=3.0)
        tiled = gaussian_smooth(vol, 8.0).data
        monkeypatch.setattr(preprocess, "SMOOTH_TILE", n)
        whole = gaussian_smooth(vol, 8.0).data
        np.testing.assert_allclose(tiled, whole, rtol=1e-13, atol=0)

    def test_tiled_axis_matches_direct_3d_oracle(self):
        rng = np.random.default_rng(20)
        voxel = (1.0, 3.3, 4.8)
        data = 1.0 + rng.random((300, 4, 3, 2))
        out = gaussian_smooth(make_volume(data, voxel_size_mm=voxel, tr_seconds=3.0), 8.0)
        expected = smooth_zero_padded(data, fwhm_to_sigma_vox(8.0, voxel))
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=0)

    def test_long_axis_tiles_are_windows_within_the_radius(self):
        n, sigma, radius = 4000, 3.4, 13
        tile = preprocess.SMOOTH_TILE
        assert tile > radius
        weights, mass, windows = preprocess._axis_tiles(n, sigma)
        assert len(windows) == -(-n // tile)
        last = (len(windows) - 1) * tile
        assert windows[0][1] == slice(0, tile + radius)
        assert windows[-1][1] == slice(last - radius, n)
        for rows, cols in windows:
            operator = weights[rows, cols] / mass[rows]  # as _smooth_chunks builds it
            assert operator.shape == (rows.stop - rows.start, cols.stop - cols.start)
            assert operator.shape[1] <= preprocess.SMOOTH_TILE + 2 * radius

    @pytest.mark.parametrize("n", [24, 30, 64, 300, 4000])
    @pytest.mark.parametrize("sigma", [0.5, 0.708, 1.03, 1.7, 3.4, 9.0, 80.0])
    def test_tiles_are_blocks_of_the_whole_operator(self, n, sigma):
        whole = preprocess._axis_smoothing_operator(n, sigma)
        weights, mass, windows = preprocess._axis_tiles(n, sigma)
        for rows, cols in windows:
            operator = weights[rows, cols] / mass[rows]  # as _smooth_chunks builds it
            assert np.array_equal(operator, whole[rows, cols])
            # no tap of the row lies outside the tile's columns
            assert not whole[rows, :cols.start].any() and not whole[rows, cols.stop:].any()

    def test_memory_of_one_4000_voxel_axis(self):
        # the whole-axis operator alone would be 8 * 4000**2 bytes (122 MiB)
        rng = np.random.default_rng(21)
        vol = make_volume(rng.standard_normal((4000, 1, 1, 8)), voxel_size_mm=(1.0, 3.3, 4.8),
                          tr_seconds=3.0)
        assert traced_peak(gaussian_smooth, vol, 8.0) < 4 * 2**20

    def test_memory_at_a_radius_past_one_tile(self):
        # r = n - 1: every tile reads the whole axis, and keeping the
        # operators of the tiles near the ends would take 8 * 4000**2 bytes;
        # built as each tile is applied, one takes 8 * 32 * 4000 (1 MiB)
        rng = np.random.default_rng(22)
        vol = make_volume(rng.standard_normal((4000, 2, 2, 8)), voxel_size_mm=(0.001, 3.3, 4.8),
                          tr_seconds=3.0)
        assert traced_peak(gaussian_smooth, vol, 8.0) < 8 * 2**20

    def test_kernel_wider_than_axis_is_clipped(self):
        # a 1e-30 mm voxel puts the 4-sigma radius far beyond any axis;
        # every in-field tap then has weight 1, so x becomes a plain mean
        rng = np.random.default_rng(15)
        data = 1.0 + rng.random((5, 6, 4, 2))
        tiny = make_volume(data, voxel_size_mm=(1e-30, 3.3, 4.8), tr_seconds=3.0)
        out = gaussian_smooth(tiny, 8.0).data
        x_mean = np.broadcast_to(data.mean(axis=0, keepdims=True), data.shape)
        sigmas = fwhm_to_sigma_vox(8.0, VOXEL)
        expected = smooth_zero_padded(x_mean, (0.0, sigmas[1], sigmas[2]))
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)

    def test_kernel_radius_capped(self):
        assert gaussian_kernel_1d(1e30, max_radius=3).size == 7
        assert gaussian_kernel_1d(2.0, max_radius=0).size == 1


class TestRunBuffers:
    def test_flow_preprocessing_works_inside_the_run(self):
        # slice timing and smoothing of an owned run allocate one slice's
        # series and chunk-sized scratch, and equal the public stages
        dims = (24, 24, 21, 100)
        rng = np.random.default_rng(22)
        vol = make_volume(1000.0 + rng.standard_normal(dims), voxel_size_mm=VOXEL,
                          tr_seconds=3.0)
        cfg = validate_config({})
        pre = cfg.preprocess
        assert pre["slice_timing"] and pre["slice_order"] == "interleaved"
        assert not pre["motion_correction"] and pre["fwhm_mm"] == 8.0
        order = interleaved_order(dims[2], pre["reference_fraction"])
        expected = gaussian_smooth(slice_timing_correct(vol, order), 8.0).data
        runs = [vol]
        del vol
        one_slice = 8 * dims[0] * dims[1] * dims[3]
        assert traced_peak(pipeline.preprocess_runs, runs, cfg) < one_slice + 2 * 2**20
        assert np.array_equal(runs[0].data, expected)


# the largest float64: a weighted mean of it may round past it, to +inf
FLOAT64_MAX = float(np.finfo(np.float64).max)


class TestStageChecks:
    """A stage checks the run data it writes as it writes it: a result that
    overflows float64 is one NumericError naming the stage, in a new array
    or in place, and no numpy overflow warning escapes."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("in_place", [False, True])
    def test_slice_timing_overflow(self, in_place):
        # the sinc shift of a series alternating at +-1.5e308 overshoots
        sign = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        vol = make_volume(np.broadcast_to(1.5e308 * sign, (8, 8, 6, 40)), voxel_size_mm=VOXEL)
        with pytest.raises(NumericError, match="slice timing correction overflows"):
            slice_timing_correct(vol, interleaved_order(6), in_place=in_place)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("in_place", [False, True])
    def test_smoothing_overflow(self, in_place):
        vol = make_volume(np.full((6, 5, 4, 3), FLOAT64_MAX), voxel_size_mm=VOXEL)
        with pytest.raises(NumericError, match="smoothing overflows"):
            gaussian_smooth(vol, 8.0, in_place=in_place)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("in_place", [False, True])
    def test_motion_correction_overflow(self, in_place):
        vol = make_volume(np.full((6, 5, 4, 3), FLOAT64_MAX), voxel_size_mm=VOXEL)
        motion = [RigidMotion(), RigidMotion.from_params([0.3, 0.1, 0.2, 0.01, 0.0, 0.02]),
                  RigidMotion()]
        with pytest.raises(NumericError, match="motion correction overflows"):
            apply_motion(vol, motion, in_place=in_place)

    def test_the_last_slice_and_chunk_are_checked(self):
        dims = (24, 24, 21, 60)
        assert dims[3] > block_width(int(np.prod(dims[:3])))  # several chunks
        data = np.ones(dims)
        data[:, :, -1, :] = 1.5e308 * np.where(np.arange(dims[3]) % 2 == 0, 1.0, -1.0)
        with pytest.raises(NumericError, match="slice timing correction"):
            slice_timing_correct(make_volume(data, voxel_size_mm=VOXEL), interleaved_order(21))
        data = np.ones(dims)
        data[..., -2:] = FLOAT64_MAX
        with pytest.raises(NumericError, match="smoothing"):
            gaussian_smooth(make_volume(data, voxel_size_mm=VOXEL), 8.0)


class TestHighpass:
    def test_linear_drift_mostly_removed(self):
        nt, tr = 100, 3.0
        drift = np.linspace(0.0, 50.0, nt)
        data = np.tile(drift, (3, 3, 2, 1))
        vol = make_volume(data, voxel_size_mm=VOXEL, tr_seconds=tr)
        out = highpass_filter(vol, 0.005)
        assert out.data[0, 0, 0].std() < 0.1 * drift.std()
        # variance removal (acceptance phrasing): >= 90 percent
        assert out.data[0, 0, 0].var() < 0.1 * drift.var()

    def test_constant_series_unchanged(self):
        vol = make_volume(np.full((2, 2, 2, 50), 11.0), tr_seconds=3.0)
        out = highpass_filter(vol, 0.005)
        np.testing.assert_allclose(out.data, 11.0, atol=1e-9)

    def test_fast_sinusoid_preserved(self):
        nt, tr = 100, 3.0
        t = np.arange(nt) * tr
        wave = np.sin(2 * np.pi * 0.05 * t)
        vol = make_volume(np.tile(wave, (2, 2, 2, 1)), tr_seconds=tr)
        out = highpass_filter(vol, 0.005)
        filtered = out.data[0, 0, 0]
        amplitude_ratio = np.linalg.norm(filtered - filtered.mean()) \
            / np.linalg.norm(wave - wave.mean())
        assert amplitude_ratio == pytest.approx(1.0, abs=0.02)

    def test_mean_restored(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((3, 3, 2, 60)) + 500.0
        vol = make_volume(data, tr_seconds=3.0)
        out = highpass_filter(vol, 0.005)
        np.testing.assert_allclose(out.data.mean(axis=3), data.mean(axis=3), atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((4, 4, 3, 80)) + np.linspace(0, 20, 80)
        vol = make_volume(data, tr_seconds=3.0)
        once = highpass_filter(vol, 0.005)
        twice = highpass_filter(once, 0.005)
        np.testing.assert_allclose(twice.data, once.data, atol=1e-8)

    def test_too_few_volumes(self):
        vol = make_volume(np.zeros((2, 2, 2, 3)), tr_seconds=3.0)
        with pytest.raises(InsufficientDataError):
            highpass_filter(vol, 0.005)

    @pytest.mark.parametrize("cutoff_hz", [0.0, -0.005, float("nan")])
    def test_nonpositive_cutoff_rejected(self, cutoff_hz):
        vol = make_volume(np.zeros((2, 2, 2, 20)), tr_seconds=3.0)
        with pytest.raises(ValueError, match="cutoff_hz must be positive"):
            highpass_filter(vol, cutoff_hz)
