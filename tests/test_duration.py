"""Run concatenation, averaging, and the spatial robustness metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boldkit.duration import (
    RunSet,
    average_runs,
    concatenate_runs,
    local_standard_deviation,
    non_target_rois,
    peak_correlation,
    single_run_design,
    total_variation,
)
from boldkit import volume_io
from boldkit.errors import EmptyMaskError, NumericError, ShapeError
from boldkit.phantom import AcquisitionParams, PhantomSpec, generate_phantom, sphere_mask
from boldkit.preprocess import gaussian_smooth
from boldkit.task_design import alternating_block_design, task_regressor
from boldkit.volume_io import Volume4D, make_volume

from oracles import lsd_voxel_loop


def make_runs(seed=0, n_vols=30, cnr=5.0, dims=(10, 10, 8)):
    design = alternating_block_design(block_s=15.0, run_length_s=n_vols * 3.0)
    spec = PhantomSpec(dims=dims, cnr=cnr, seed=seed)
    acq = AcquisitionParams(n_vols=n_vols)
    run0, truth = generate_phantom(spec, acq, design, run_index=0)
    run1, _ = generate_phantom(spec, acq, design, run_index=1)
    return run0, run1, design, truth


class TestRunSet:
    def test_needs_two_runs(self):
        run0, _, design, _ = make_runs()
        with pytest.raises(ShapeError):
            RunSet(runs=[run0], design=design)

    def test_geometry_mismatch(self):
        run0, _, design, _ = make_runs()
        other = make_volume(np.zeros((4, 4, 4, 30)), tr_seconds=3.0)
        with pytest.raises(ShapeError):
            RunSet(runs=[run0, other], design=design)

    def test_tr_mismatch(self):
        run0, run1, design, _ = make_runs()
        run1.header.tr_seconds = 2.0
        with pytest.raises(ShapeError):
            RunSet(runs=[run0, run1], design=design)


class TestConcatenateRuns:
    def test_paper_protocol_column_structure(self):
        # two 100-volume runs of the 30 s protocol: K = floor(2*300*0.005)
        # = 3 drift columns per run, so 1 task + 2x3 drift + 2 intercepts
        # = 9 columns and no global intercept
        design = alternating_block_design()
        spec = PhantomSpec(dims=(6, 6, 4), cnr=0.0, seed=3)
        acq = AcquisitionParams(n_vols=100)
        runs = [generate_phantom(spec, acq, design, run_index=r)[0] for r in range(2)]
        vol, matrix = concatenate_runs(RunSet(runs=runs, design=design))
        assert vol.n_vols == 200
        assert matrix.values.shape == (200, 9)
        assert matrix.column_labels == ["task"] + ["drift"] * 6 + ["intercept"] * 2
        assert np.linalg.matrix_rank(matrix.values) == matrix.n_cols

    def test_drift_and_intercept_blocks_are_per_run(self):
        run0, run1, design, _ = make_runs(n_vols=100)
        _, matrix = concatenate_runs(RunSet(runs=[run0, run1], design=design))
        labels = np.array(matrix.column_labels)
        drift_cols = matrix.values[:, labels == "drift"]
        assert not drift_cols[:100, 3:].any() and not drift_cols[100:, :3].any()
        intercepts = matrix.values[:, labels == "intercept"]
        np.testing.assert_array_equal(intercepts[:100, 0], 1.0)
        np.testing.assert_array_equal(intercepts[100:, 0], 0.0)
        np.testing.assert_array_equal(intercepts[100:, 1], 1.0)

    def test_self_concatenation_duplicates_task_pattern(self):
        run0, _, design, _ = make_runs()
        vol, matrix = concatenate_runs(RunSet(runs=[run0, run0], design=design))
        assert vol.n_vols == 60
        np.testing.assert_array_equal(vol.data[..., :30], vol.data[..., 30:])
        task = matrix.values[:, 0]
        np.testing.assert_array_equal(task[:30], task[30:])
        single = task_regressor(design, 3.0, 30)
        np.testing.assert_allclose(task[:30], single, atol=1e-12)

    @pytest.mark.parametrize("layout", ["slabs", "separate", "slabs swapped"])
    def test_runs_are_copied_into_a_new_stack(self, layout):
        # runs that are the time slabs of one array, in order or not, are
        # copied like runs in arrays of their own, and the RunSet keeps its
        # runs and their data
        run0, run1, design, _ = make_runs()
        if layout != "separate":
            stack = np.empty(run0.spatial_dims + (60,), order="F")
            stack[..., :30], stack[..., 30:] = run0.data, run1.data
            run0, run1 = (Volume4D(header=run.header, data=stack[..., 30 * r:30 * (r + 1)])
                          for r, run in enumerate((run0, run1)))
            assert run0.data.base is stack and run1.data.base is stack
        runs = [run1, run0] if layout == "slabs swapped" else [run0, run1]
        arrays = [run.data for run in runs]
        originals = [run.data.copy() for run in runs]
        runset = RunSet(runs=list(runs), design=design)
        vol, _ = concatenate_runs(runset)
        np.testing.assert_array_equal(vol.data, np.concatenate(originals, axis=3))
        for run, kept, array, original in zip(runset.runs, runs, arrays, originals):
            assert run is kept and run.data is array
            assert not np.shares_memory(array, vol.data)
            np.testing.assert_array_equal(array, original)

    def test_checked_runs_are_not_read_again(self, monkeypatch):
        # the runs were checked to be finite when built; their join is not
        run0, run1, design, _ = make_runs()
        checks = []
        monkeypatch.setattr(volume_io, "all_finite", lambda values: checks.append(values))
        concatenate_runs(RunSet(runs=[run0, run1], design=design))
        assert checks == []

    def test_full_rank_when_runs_are(self):
        run0, run1, design, _ = make_runs(n_vols=100)
        _, matrix = concatenate_runs(RunSet(runs=[run0, run1], design=design))
        assert np.linalg.matrix_rank(matrix.values) == matrix.n_cols


class TestAverageRuns:
    def test_average_with_itself_is_identity(self):
        run0, _, design, _ = make_runs()
        out = average_runs(RunSet(runs=[run0, run0], design=design))
        np.testing.assert_array_equal(out.data, run0.data)

    def test_average_with_negation_is_zero(self):
        run0, _, design, _ = make_runs()
        negated = make_volume(-run0.data, voxel_size_mm=run0.header.voxel_size_mm,
                              tr_seconds=3.0)
        out = average_runs(RunSet(runs=[run0, negated], design=design))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mean_is_a_numeric_error(self):
        # the sum of two runs at 1.5e308 overflows in the last of several blocks
        run0, run1, design, _ = make_runs(dims=(24, 24, 21), n_vols=30)
        assert volume_io.block_width(24 * 24 * 21) < 30
        for run in (run0, run1):
            run.data[..., -1] = 1.5e308
        with pytest.raises(NumericError, match="run averaging overflows"):
            average_runs(RunSet(runs=[run0, run1], design=design))

    def test_commutes_with_smoothing(self):
        run0, run1, design, _ = make_runs()
        runset = RunSet(runs=[run0, run1], design=design)
        smoothed_then_avg = average_runs(
            RunSet(runs=[gaussian_smooth(run0, 8.0), gaussian_smooth(run1, 8.0)],
                   design=design)
        )
        avg_then_smoothed = gaussian_smooth(average_runs(runset), 8.0)
        np.testing.assert_allclose(smoothed_then_avg.data, avg_then_smoothed.data, atol=1e-9)


class TestLocalStandardDeviation:
    def test_constant_map_is_zero(self):
        roi = np.zeros((5, 5, 5), dtype=bool)
        roi[2, 2, 2] = True
        assert local_standard_deviation(np.full((5, 5, 5), 3.0), roi) == 0.0

    def test_single_voxel_matches_direct_27_sample_std(self):
        rng = np.random.default_rng(0)
        volume = rng.standard_normal((7, 7, 7))
        roi = np.zeros((7, 7, 7), dtype=bool)
        roi[3, 3, 3] = True
        block = volume[2:5, 2:5, 2:5].ravel()
        direct = float(np.sqrt(np.mean((block - block.mean()) ** 2)))
        assert local_standard_deviation(volume, roi, radius_vox=1) == pytest.approx(direct)

    def test_border_neighborhood_clipped(self):
        rng = np.random.default_rng(1)
        volume = rng.standard_normal((4, 4, 4))
        roi = np.zeros((4, 4, 4), dtype=bool)
        roi[0, 0, 0] = True
        block = volume[0:2, 0:2, 0:2].ravel()
        direct = float(np.sqrt(np.mean((block - block.mean()) ** 2)))
        assert local_standard_deviation(volume, roi) == pytest.approx(direct)

    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_shift_invariant_and_scale_linear(self, shift, scale):
        rng = np.random.default_rng(2)
        volume = rng.standard_normal((6, 6, 6))
        roi = rng.random((6, 6, 6)) < 0.3
        if not roi.any():
            roi[0, 0, 0] = True
        base = local_standard_deviation(volume, roi)
        assert local_standard_deviation(volume + shift, roi) == pytest.approx(base, abs=1e-9)
        assert local_standard_deviation(scale * volume, roi) == pytest.approx(
            scale * base, rel=1e-9)

    def test_empty_roi(self):
        with pytest.raises(EmptyMaskError):
            local_standard_deviation(np.zeros((3, 3, 3)), np.zeros((3, 3, 3), bool))

    @pytest.mark.parametrize("radius_vox", [1, 2])
    def test_matches_voxel_loop(self, radius_vox):
        rng = np.random.default_rng(radius_vox)
        for _ in range(10):
            shape = tuple(int(n) for n in rng.integers(3, 9, size=3))
            volume = rng.standard_normal(shape) * 10.0 + 100.0
            roi = rng.random(shape) < 0.3
            # ROI voxels on every face and at two opposite corners
            roi[0, 0, 0] = roi[-1, -1, -1] = True
            roi[0, 1, 1] = roi[1, -1, 1] = roi[1, 1, -1] = True
            assert local_standard_deviation(volume, roi, radius_vox) == pytest.approx(
                lsd_voxel_loop(volume, roi, radius_vox), rel=1e-12)

    def test_nan_in_neighbourhood_propagates(self):
        volume = np.random.default_rng(3).standard_normal((6, 6, 6))
        volume[1, 0, 0] = np.nan
        roi = np.zeros((6, 6, 6), dtype=bool)
        roi[0, 0, 0] = roi[4, 4, 4] = True
        assert np.isnan(local_standard_deviation(volume, roi))


def tv_pair_enumeration(volume, roi):
    """Brute-force mean |difference| over 6-connected in-ROI pairs."""
    total, count = 0.0, 0
    nx, ny, nz = volume.shape
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not roi[x, y, z]:
                    continue
                for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    nb = (x + dx, y + dy, z + dz)
                    if nb[0] < nx and nb[1] < ny and nb[2] < nz and roi[nb]:
                        total += abs(volume[x, y, z] - volume[nb])
                        count += 1
    return total / count if count else 0.0


class TestTotalVariation:
    def test_constant_map_is_zero(self):
        roi = np.ones((4, 4, 4), dtype=bool)
        assert total_variation(np.full((4, 4, 4), 2.5), roi) == 0.0

    def test_two_voxel_roi(self):
        volume = np.zeros((3, 3, 3))
        volume[0, 0, 0] = 1.0
        volume[1, 0, 0] = 4.0
        roi = np.zeros((3, 3, 3), dtype=bool)
        roi[0, 0, 0] = roi[1, 0, 0] = True
        assert total_variation(volume, roi) == 3.0

    def test_isolated_voxels_give_zero(self):
        volume = np.arange(27.0).reshape(3, 3, 3)
        roi = np.zeros((3, 3, 3), dtype=bool)
        roi[0, 0, 0] = roi[2, 2, 2] = True
        assert total_variation(volume, roi) == 0.0

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            volume = rng.standard_normal((6, 6, 5))
            roi = rng.random((6, 6, 5)) < rng.uniform(0.2, 0.8)
            if not roi.any():
                roi[0, 0, 0] = True
            assert total_variation(volume, roi) == pytest.approx(
                tv_pair_enumeration(volume, roi), rel=1e-12, abs=1e-15)

    def test_shift_invariant_scale_linear(self):
        rng = np.random.default_rng(4)
        volume = rng.standard_normal((5, 5, 5))
        roi = rng.random((5, 5, 5)) < 0.5
        base = total_variation(volume, roi)
        assert total_variation(volume + 11.0, roi) == pytest.approx(base, abs=1e-12)
        assert total_variation(3.0 * volume, roi) == pytest.approx(3.0 * base, rel=1e-12)


class TestPeakCorrelation:
    def test_single_voxel_roi(self):
        volume = np.linspace(-1, 1, 27).reshape(3, 3, 3)
        roi = np.zeros((3, 3, 3), dtype=bool)
        roi[1, 2, 0] = True
        assert peak_correlation(volume, roi) == volume[1, 2, 0]

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            volume = rng.uniform(-1, 1, (5, 5, 4))
            roi = rng.random((5, 5, 4)) < 0.4
            if not roi.any():
                roi[0, 0, 0] = True
            oracle = max(volume[x, y, z] for x, y, z in np.argwhere(roi))
            assert peak_correlation(volume, roi) == oracle


class TestNonTargetRois:
    def test_count_size_and_exclusion(self):
        dims = (24, 24, 21)
        exclude = sphere_mask(dims, (12, 12, 10), 5)
        rois = non_target_rois(dims, exclude, n_rois=3, n_voxels=200, seed=7)
        assert len(rois) == 3
        union = np.zeros(dims, dtype=bool)
        for mask in rois.values():
            assert mask.sum() == 200
            assert not (mask & exclude).any()
            assert not (mask & union).any()  # mutually disjoint
            union |= mask

    def test_connected_under_6_neighborhood(self):
        from oracles import flood_fill_components

        dims = (24, 24, 21)
        exclude = sphere_mask(dims, (12, 12, 10), 5)
        rois = non_target_rois(dims, exclude, n_rois=3, n_voxels=200, seed=8)
        for mask in rois.values():
            assert len(flood_fill_components(mask, 6)) == 1

    def test_deterministic_per_seed(self):
        dims = (20, 20, 16)
        exclude = np.zeros(dims, dtype=bool)
        a = non_target_rois(dims, exclude, seed=5)
        b = non_target_rois(dims, exclude, seed=5)
        c = non_target_rois(dims, exclude, seed=6)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert any(not np.array_equal(a[name], c[name]) for name in a)

    def test_not_enough_room(self):
        dims = (6, 6, 6)
        with pytest.raises(ValueError):
            non_target_rois(dims, np.zeros(dims, bool), n_rois=3, n_voxels=200)


class TestDurationStudyDirections:
    def test_single_run_design_columns(self):
        design = alternating_block_design()
        matrix = single_run_design(design, 3.0, 100)
        assert matrix.column_labels == ["task", "drift", "drift", "drift", "intercept"]

    def test_averaging_raises_peak_correlation_fixed_seed(self):
        from boldkit.glm import correlation_map

        run0, run1, design, truth = make_runs(seed=42, n_vols=100, cnr=5.0,
                                              dims=(12, 12, 10))
        roi = truth["motor"] | truth["visual"]
        matrix = single_run_design(design, 3.0, 100)
        regressor = matrix.values[:, 0]
        r_single = correlation_map(run0, regressor)
        averaged = average_runs(RunSet(runs=[run0, run1], design=design))
        r_avg = correlation_map(averaged, regressor)
        assert peak_correlation(r_avg, roi) > peak_correlation(r_single, roi)
