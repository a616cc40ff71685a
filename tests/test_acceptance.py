"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report. Monte Carlo protocols use fixed seeds, so every number below is
reproducible bit for bit.

Calibration constants were frozen from the Monte Carlo calibration
oracle (scripts in the tests themselves, larger seed sets offline):
CNR 10.75 puts the single-run mean in-ROI t at 9.0 for the default
phantom protocol, and CNR 5.1 puts the single-run ROI peak correlation
at about 0.64.
"""

import gzip
import json
import os
import struct
import time

import numpy as np
import pytest

from boldkit.cli import main
from boldkit.duration import (
    RunSet,
    average_runs,
    concatenate_runs,
    local_standard_deviation,
    non_target_rois,
    single_run_design,
    total_variation,
)
from boldkit.glm import correlation_map, fit_glm, t_contrast
from boldkit.inference import fdr_bh
from boldkit.phantom import AcquisitionParams, PhantomSpec, generate_phantom
from boldkit.preprocess import (
    RigidMotion,
    estimate_motion,
    gaussian_smooth,
    highpass_filter,
    rotation_matrix,
)
from boldkit.task_design import DesignMatrix, alternating_block_design, canonical_hrf
from boldkit.volume_io import make_volume, read_nifti, write_nifti

from oracles import (
    bh_reject_bruteforce,
    p_upper_tail_quadrature,
    t_stat_normal_equations,
)

# frozen by the calibration oracle (see module docstring)
CONCAT_CNR = 10.75
AVERAGING_CNR = 5.1

VOXEL = (3.3, 3.3, 4.8)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def roi_mean_t(vol, matrix, roi):
    contrast = np.zeros(matrix.n_cols)
    contrast[0] = 1.0
    Y = vol.data.reshape(-1, vol.n_vols).T
    stats = t_contrast(fit_glm(Y, matrix), contrast)
    return float(stats.t.reshape(vol.spatial_dims)[roi].mean())


def test_criterion_1_glm_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst_beta = worst_t = worst_p = 0.0
    for _ in range(100):
        n = int(rng.integers(12, 61))
        p = int(rng.integers(2, 7))
        v = int(rng.integers(1, 51))
        X = np.column_stack([rng.standard_normal((n, p - 1)), np.ones(n)])
        Y = rng.standard_normal((n, v)) + X @ rng.standard_normal((p, v))
        design = DesignMatrix(values=X, column_labels=["task"] * (p - 1) + ["intercept"])
        c = rng.standard_normal(p)

        fit = fit_glm(Y, design)
        stats = t_contrast(fit, c)

        beta_oracle = np.linalg.solve(X.T @ X, X.T @ Y)
        t_oracle, dof = t_stat_normal_equations(X, Y, c)
        p_oracle = np.array([p_upper_tail_quadrature(t, dof) for t in t_oracle])

        scale_b = np.abs(beta_oracle).max() + 1.0
        worst_beta = max(worst_beta, np.abs(fit.beta - beta_oracle).max() / scale_b)
        scale_t = np.abs(t_oracle).max() + 1.0
        worst_t = max(worst_t, np.abs(stats.t - t_oracle).max() / scale_t)
        worst_p = max(worst_p, (np.abs(stats.p - p_oracle) / np.maximum(p_oracle, 1e-12)).max())
    elapsed = time.time() - start
    ok = worst_beta < 1e-8 and worst_t < 1e-8 and worst_p < 1e-8 and elapsed < 10.0
    report(1, "GLM oracle equivalence", ok,
           f"worst rel err beta {worst_beta:.2e}, t {worst_t:.2e}, p {worst_p:.2e} "
           f"over 100 problems in {elapsed:.1f}s (<10s)")


def test_criterion_2_fdr_correctness_and_control():
    start = time.time()
    rng = np.random.default_rng(2002)
    mismatches = 0
    for _ in range(1000):
        m = int(rng.integers(1, 80))
        p = rng.random(m)
        if rng.random() < 0.3:
            p = p ** 3  # inject signal-like small values
        q = float(rng.uniform(0.01, 0.25))
        if not np.array_equal(fdr_bh(p, q).rejected, bh_reject_bruteforce(p, q)):
            mismatches += 1

    design = alternating_block_design(block_s=15.0, run_length_s=90.0)
    acq = AcquisitionParams(n_vols=30)
    matrix = single_run_design(design, 3.0, 30)
    contrast = np.zeros(matrix.n_cols)
    contrast[0] = 1.0
    any_rejection = 0
    n_runs = 300
    for seed in range(n_runs):
        spec = PhantomSpec(dims=(12, 12, 8), cnr=0.0, ar1_rho=0.0,
                           drift_amplitude=0.0, seed=seed)
        vol, _ = generate_phantom(spec, acq, design)
        stats = t_contrast(fit_glm(vol.data.reshape(-1, 30).T, matrix), contrast)
        if fdr_bh(stats.p, 0.05).n_rejected > 0:
            any_rejection += 1
    fraction = any_rejection / n_runs
    elapsed = time.time() - start
    ok = mismatches == 0 and fraction <= 0.05 + 0.03 and elapsed < 120.0
    report(2, "FDR correctness and control", ok,
           f"{mismatches}/1000 brute-force mismatches; null phantoms with >=1 rejection: "
           f"{fraction:.3f} (<=0.08) in {elapsed:.0f}s (<2min)")


def test_criterion_3_concatenation_sqrt2_law():
    start = time.time()
    design = alternating_block_design()
    acq = AcquisitionParams(n_vols=100)
    matrix = single_run_design(design, 3.0, 100)

    singles, concats = [], []
    for seed in range(100):
        spec = PhantomSpec(cnr=CONCAT_CNR, seed=seed)
        run0, truth = generate_phantom(spec, acq, design, run_index=0)
        run1, _ = generate_phantom(spec, acq, design, run_index=1)
        roi = truth["motor"] | truth["visual"]
        singles.append(roi_mean_t(run0, matrix, roi))
        cat_vol, cat_matrix = concatenate_runs(
            RunSet(runs=[run0, run1], design=design))
        concats.append(roi_mean_t(cat_vol, cat_matrix, roi))

    single_mean = float(np.mean(singles))
    concat_mean = float(np.mean(concats))
    elapsed = time.time() - start
    ok = (
        abs(single_mean - 9.0) <= 0.5
        and abs(concat_mean - 12.7) <= 0.12 * 12.7
        and elapsed < 300.0
    )
    report(3, "concatenation sqrt-2 law", ok,
           f"single-run mean in-ROI t {single_mean:.2f} (target 9.0±0.5), concatenated "
           f"{concat_mean:.2f} (target 12.7±12%) over 100 seeds in {elapsed:.0f}s (<5min)")


def test_criterion_4_averaging_correlation():
    start = time.time()
    design = alternating_block_design()
    acq = AcquisitionParams(n_vols=100)
    matrix = single_run_design(design, 3.0, 100)
    regressor = matrix.values[:, 0]

    singles, averageds = [], []
    for seed in range(100):
        spec = PhantomSpec(cnr=AVERAGING_CNR, seed=seed)
        run0, truth = generate_phantom(spec, acq, design, run_index=0)
        run1, _ = generate_phantom(spec, acq, design, run_index=1)
        roi = truth["motor"] | truth["visual"]
        r_single = correlation_map(run0, regressor)
        averaged = average_runs(RunSet(runs=[run0, run1], design=design))
        r_avg = correlation_map(averaged, regressor)
        singles.append(float(r_single[roi].max()))
        averageds.append(float(r_avg[roi].max()))

    single_mean = float(np.mean(singles))
    averaged_mean = float(np.mean(averageds))
    direction = float(np.mean(np.array(averageds) > np.array(singles)))
    predicted = single_mean * np.sqrt(2.0) / np.sqrt(1.0 + single_mean**2)
    elapsed = time.time() - start
    ok = (
        abs(single_mean - 0.62) <= 0.05
        and abs(averaged_mean - 0.745) <= 0.05
        and direction >= 0.9
    )
    report(4, "averaging correlation", ok,
           f"peak r single {single_mean:.3f} (target 0.62±0.05), averaged {averaged_mean:.3f} "
           f"(target 0.745±0.05, formula predicts {predicted:.3f}), averaged>single in "
           f"{direction*100:.0f}% of 100 seeds in {elapsed:.0f}s")


def test_criterion_5_robustness_direction():
    # short runs make the dof-driven scale difference between single and
    # concatenated null t-maps detectable per repetition (dof 10 vs 21)
    start = time.time()
    n_vols = 12
    design = alternating_block_design(block_s=9.0, run_length_s=n_vols * 3.0)
    acq = AcquisitionParams(n_vols=n_vols)
    matrix = single_run_design(design, 3.0, n_vols)
    c_single = np.zeros(matrix.n_cols)
    c_single[0] = 1.0

    lsd_wins = tv_wins = 0
    n_reps = 100
    for seed in range(n_reps):
        spec = PhantomSpec(cnr=10.0, ar1_rho=0.0, drift_amplitude=0.0, seed=seed)
        run0, truth = generate_phantom(spec, acq, design, run_index=0)
        run1, _ = generate_phantom(spec, acq, design, run_index=1)
        target = truth["motor"] | truth["visual"]
        rois = non_target_rois(spec.dims, target, n_rois=3, n_voxels=200, seed=seed)

        t_single = t_contrast(
            fit_glm(run0.data.reshape(-1, n_vols).T, matrix), c_single
        ).t.reshape(spec.dims)
        cat_vol, cat_matrix = concatenate_runs(
            RunSet(runs=[run0, run1], design=design))
        c_concat = np.zeros(cat_matrix.n_cols)
        c_concat[0] = 1.0
        t_concat = t_contrast(
            fit_glm(cat_vol.data.reshape(-1, 2 * n_vols).T, cat_matrix), c_concat
        ).t.reshape(spec.dims)

        lsd_s = np.mean([local_standard_deviation(t_single, r) for r in rois.values()])
        lsd_c = np.mean([local_standard_deviation(t_concat, r) for r in rois.values()])
        tv_s = np.mean([total_variation(t_single, r) for r in rois.values()])
        tv_c = np.mean([total_variation(t_concat, r) for r in rois.values()])
        lsd_wins += lsd_c < lsd_s
        tv_wins += tv_c < tv_s

    elapsed = time.time() - start
    ok = lsd_wins >= 0.7 * n_reps and tv_wins >= 0.7 * n_reps
    report(5, "robustness direction (LSD/TV)", ok,
           f"concatenated lower LSD in {lsd_wins}% and lower TV in {tv_wins}% of "
           f"{n_reps} repetitions (>=70%) in {elapsed:.0f}s")


def test_criterion_6_motion_recovery():
    start = time.time()
    dims = (20, 20, 16)
    voxel = np.asarray(VOXEL)
    rng = np.random.default_rng(606)

    def blob_field(seed):
        blob_rng = np.random.default_rng(seed)
        blobs = [(float(blob_rng.uniform(0.5, 2.0)),
                  blob_rng.uniform(3.5, np.array(dims) - 3.5) * voxel,
                  float(blob_rng.uniform(9.0, 18.0))) for _ in range(10)]

        def field(points):
            value = np.zeros(points.shape[:-1])
            for amp, center, width in blobs:
                value += amp * np.exp(-((points - center) ** 2).sum(-1) / (2 * width**2))
            return value

        return field

    grid_mm = np.stack(
        np.meshgrid(*[np.arange(d, dtype=float) for d in dims], indexing="ij"), axis=-1
    ) * voxel
    center_mm = (np.array(dims) - 1) / 2 * voxel

    recovered = 0
    worst_t = worst_r = 0.0
    n_cases = 20
    for case in range(n_cases):
        field = blob_field(6000 + case)
        reference = field(grid_mm)
        true = np.concatenate([
            rng.uniform(-2.0, 2.0, 3) * voxel,            # <= 2 voxels
            np.deg2rad(rng.uniform(-2.0, 2.0, 3)),        # <= 2 degrees
        ])
        motion = RigidMotion.from_params(true)
        inv_rot = np.linalg.inv(rotation_matrix(motion.rotation_rad))
        moved = field((grid_mm - center_mm) @ inv_rot.T + center_mm
                      - inv_rot @ motion.translation_mm)
        vol = make_volume(np.stack([reference, moved], axis=-1),
                          voxel_size_mm=VOXEL, tr_seconds=3.0)
        estimate = estimate_motion(vol)[1]
        err_t = np.abs((estimate.translation_mm - true[:3]) / voxel).max()
        err_r = np.abs(np.rad2deg(estimate.rotation_rad - true[3:])).max()
        worst_t = max(worst_t, err_t)
        worst_r = max(worst_r, err_r)
        recovered += err_t < 0.1 and err_r < 0.5

    elapsed = time.time() - start
    ok = recovered == n_cases
    report(6, "motion recovery", ok,
           f"{recovered}/{n_cases} cases within 0.1 voxel / 0.5 deg "
           f"(worst {worst_t:.3f} vox, {worst_r:.3f} deg) in {elapsed:.0f}s")


def test_criterion_7_preprocessing_properties():
    checks = {}

    constant = make_volume(np.full((12, 12, 10, 2), 4.5), voxel_size_mm=VOXEL,
                           tr_seconds=3.0)
    smoothed = gaussian_smooth(constant, 8.0)
    checks["unit-sum kernel"] = float(np.abs(smoothed.data - 4.5).max()) < 1e-9

    nt, tr = 100, 3.0
    drift = np.linspace(0.0, 60.0, nt)
    drift_vol = make_volume(np.tile(drift, (2, 2, 2, 1)), tr_seconds=tr)
    filtered = highpass_filter(drift_vol, 0.005)
    removed = 1.0 - filtered.data[0, 0, 0].var() / drift.var()
    checks["drift removal >=90%"] = removed >= 0.90

    wave = np.sin(2 * np.pi * 0.05 * np.arange(nt) * tr)
    wave_vol = make_volume(np.tile(wave, (2, 2, 2, 1)), tr_seconds=tr)
    wave_out = highpass_filter(wave_vol, 0.005).data[0, 0, 0]
    amplitude = np.linalg.norm(wave_out - wave_out.mean()) / np.linalg.norm(wave - wave.mean())
    checks["0.05 Hz preserved 2%"] = abs(amplitude - 1.0) <= 0.02

    rng = np.random.default_rng(707)
    noisy = make_volume(rng.standard_normal((4, 4, 3, 80)) + np.linspace(0, 30, 80),
                        tr_seconds=tr)
    once = highpass_filter(noisy, 0.005)
    twice = highpass_filter(once, 0.005)
    checks["idempotent 1e-8"] = float(np.abs(twice.data - once.data).max()) < 1e-8

    ok = all(checks.values())
    report(7, "preprocessing properties", ok,
           "; ".join(f"{name}: {'ok' if good else 'FAILED'}"
                     for name, good in checks.items())
           + f" (drift variance removed {removed*100:.1f}%, sinusoid amplitude x{amplitude:.4f})")


def test_criterion_8_hrf_shape():
    kernel = canonical_hrf(dt_s=0.001)
    peak_time = 0.001 * int(np.argmax(kernel))
    unit_peak = kernel.max() == pytest.approx(1.0, abs=1e-12)
    signs = np.sign(kernel[np.abs(kernel) > 1e-12])
    sign_changes = int(np.sum(signs[1:] != signs[:-1]))
    ok = 4.5 <= peak_time <= 5.5 and sign_changes == 1 and unit_peak
    report(8, "HRF shape", ok,
           f"peak at {peak_time:.3f}s (in [4.5, 5.5]), {sign_changes} sign change, "
           f"max {kernel.max():.12f}")


def test_criterion_9_nifti_io(tmp_path):
    rng = np.random.default_rng(909)
    checks = {}

    vol = make_volume(rng.standard_normal((6, 5, 4, 3)).astype(np.float32).astype(float),
                      voxel_size_mm=VOXEL, tr_seconds=3.0)
    plain = tmp_path / "roundtrip.nii"
    write_nifti(vol, plain)
    checks["round-trip bit-exact"] = bool(np.array_equal(read_nifti(plain).data, vol.data))

    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 4, 2, 1, 1, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, 4)   # int16
    struct.pack_into("<h", header, 72, 16)
    struct.pack_into("<8f", header, 76, 1.0, 3.3, 3.3, 4.8, 3.0, 0, 0, 0)
    struct.pack_into("<f", header, 108, 352.0)
    struct.pack_into("<f", header, 112, 2.5)   # scl_slope
    struct.pack_into("<f", header, 116, -1.0)  # scl_inter
    struct.pack_into("4s", header, 344, b"n+1\x00")
    payload = np.array([3, -4], dtype="<i2").tobytes()
    hand_built = tmp_path / "scaled.nii"
    hand_built.write_bytes(bytes(header) + b"\x00" * 4 + payload)
    values = read_nifti(hand_built).data.ravel(order="F")
    checks["scl slope/inter"] = bool(np.array_equal(values, [3 * 2.5 - 1.0, -4 * 2.5 - 1.0]))

    gz_path = tmp_path / "hand.nii.gz"
    gz_path.write_bytes(gzip.compress(bytes(header) + b"\x00" * 4 + payload))
    checks["gzip accepted"] = bool(
        np.array_equal(read_nifti(gz_path).data.ravel(order="F"), values))

    ok = all(checks.values())
    report(9, "NIfTI I/O", ok,
           "; ".join(f"{name}: {'ok' if good else 'FAILED'}" for name, good in checks.items()))


def test_criterion_10_end_to_end_determinism(tmp_path):
    config = {
        "seed": 77,
        "phantom": {"dims": [14, 14, 10], "n_vols": 40, "n_runs": 2},
        "task": {"onsets_s": [0.0, 30.0, 60.0, 90.0], "durations_s": [15.0] * 4,
                 "run_length_s": 120.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"

    digests = []
    for threads in ("1", "4", "16"):
        code = main(["analyze", "--config", str(cfg_path), "--out", str(out),
                     "--threads", threads])
        assert code == 0
        digests.append({
            name: (out / name).read_bytes()
            for name in ("clusters.csv", "clusters.json", "manifest.json")
        })
    ok = digests[0] == digests[1] == digests[2]
    names = sorted(os.listdir(out))
    report(10, "end-to-end determinism", ok,
           f"three runs at thread counts 1/4/16 produced byte-identical cluster tables "
           f"and manifests ({', '.join(names)})")
