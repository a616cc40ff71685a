"""Config validation, CLI commands, output determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import boldkit
from boldkit.cli import main
from boldkit.config import load_config, validate_config
from boldkit.errors import ConfigError
from boldkit.volume_io import make_volume, read_nifti, write_nifti

SRC_PATH = os.path.dirname(os.path.dirname(boldkit.__file__))

FAST_PHANTOM = {
    "dims": [12, 12, 8],
    "n_vols": 30,
    "n_runs": 2,
}
FAST_TASK = {
    "onsets_s": [0.0, 30.0, 60.0],
    "durations_s": [15.0, 15.0, 15.0],
    "run_length_s": 90.0,
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = {"seed": 9, "phantom": dict(FAST_PHANTOM), "task": dict(FAST_TASK)}
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def write_runs_config(tmp_path, runs, name="runs.json", **extra):
    cfg = {"seed": 9, "runs": runs, "task": dict(FAST_TASK)}
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def simulate_runs(tmp_path, n_runs=2):
    cfg = write_config(tmp_path, "sim.json", phantom=dict(FAST_PHANTOM, n_runs=n_runs))
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
    return [str(sim / f"run-{r + 1:02d}.nii.gz") for r in range(n_runs)]


def read_all_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in sorted(os.listdir(directory))
    }


class TestConfig:
    def test_defaults_validate(self):
        cfg = validate_config({})
        assert cfg.uses_phantom()
        assert cfg.inference["q"] == 0.05
        assert cfg.preprocess["fwhm_mm"] == 8.0
        assert cfg.glm["cutoff_hz"] == 0.005
        assert cfg.inference["connectivity"] == 26

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="phantom.cnrr"):
            validate_config({"phantom": {"cnrr": 3}})

    def test_both_sources_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"phantom": {}, "runs": ["a.nii"]})

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="inference.q"):
            validate_config({"inference": {"q": 1.5}})
        with pytest.raises(ConfigError, match="phantom.ar1_rho"):
            validate_config({"phantom": {"ar1_rho": 1.0}})
        with pytest.raises(ConfigError, match="duration_mode"):
            validate_config({"duration_mode": "tripled"})

    def test_flag_overrides_win(self, tmp_path):
        path = write_config(tmp_path, inference={"q": 0.10})
        cfg = load_config(path, {"inference.q": 0.01, "seed": 123})
        assert cfg.inference["q"] == 0.01
        assert cfg.seed == 123

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestSimulate:
    def test_writes_runs_and_truth(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == ["manifest.json", "run-01.nii.gz", "run-02.nii.gz", "truth.json"]

        truth = json.loads((out / "truth.json").read_text())
        assert set(truth["rois"]) == {"motor", "visual"}
        assert truth["config"]["seed"] == 9

    def test_written_headers_carry_protocol(self, tmp_path):
        cfg = write_config(tmp_path, phantom={"dims": [10, 10, 6], "n_vols": 100, "n_runs": 1},
                           task={"onsets_s": [0.0, 60.0, 120.0, 180.0, 240.0],
                                 "durations_s": [30.0] * 5, "run_length_s": 300.0})
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        vol = read_nifti(out / "run-01.nii.gz")
        assert vol.header.dims[3] == 100
        assert vol.header.tr_seconds == pytest.approx(3.0)
        np.testing.assert_allclose(vol.header.voxel_size_mm, (3.3, 3.3, 4.8), rtol=1e-6)

    def test_repeat_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        first = read_all_bytes(out)
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert read_all_bytes(out) == first

    def test_file_source_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"runs": ["x.nii"]}))
        assert main(["simulate", "--config", str(path)]) == 2


class TestAnalyze:
    def test_outputs_and_rerun_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        names = sorted(os.listdir(out))
        assert names == [
            "clusters.csv", "clusters.json", "manifest.json", "p_fdr_adjusted.nii.gz",
            "rejection_mask.nii.gz", "t_map.nii.gz", "z_map.nii.gz",
        ]
        first = read_all_bytes(out)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert read_all_bytes(out) == first

    def test_thread_flag_does_not_change_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        first = read_all_bytes(out)
        assert main(["analyze", "--config", cfg, "--out", str(out), "--threads", "8"]) == 0
        assert read_all_bytes(out) == first

    def test_analyze_from_files_matches_phantom_geometry(self, tmp_path):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        file_cfg = tmp_path / "files.json"
        file_cfg.write_text(json.dumps({
            "seed": 9,
            "runs": [str(sim / "run-01.nii.gz"), str(sim / "run-02.nii.gz")],
            "task": dict(FAST_TASK),
        }))
        out = tmp_path / "an"
        assert main(["analyze", "--config", str(file_cfg), "--out", str(out)]) == 0
        t_map = read_nifti(out / "t_map.nii.gz")
        assert t_map.header.dims[:3] == (12, 12, 8)

    def test_activation_clusters_localize_truth(self, tmp_path):
        # default protocol at the calibrated default CNR
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 4}))
        out = tmp_path / "an"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == 0

        sim = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 0
        truth = json.loads((sim / "truth.json").read_text())
        target = np.zeros((24, 24, 21), dtype=bool)
        for voxels in truth["rois"].values():
            for x, y, z in voxels:
                target[x, y, z] = True

        rejected = read_nifti(out / "rejection_mask.nii.gz").data[..., 0] > 0.5
        clusters = json.loads((out / "clusters.json").read_text())
        assert len(clusters) >= 1

        from scipy import ndimage
        labels, n = ndimage.label(rejected, structure=np.ones((3, 3, 3), bool))
        overlapping = np.zeros_like(target)
        for comp in range(1, n + 1):
            members = labels == comp
            if (members & target).any():
                overlapping |= members
        assert overlapping.any()
        dice = 2.0 * (overlapping & target).sum() / (overlapping.sum() + target.sum())
        assert dice >= 0.4

    @pytest.mark.parametrize("mode,expected_nt", [("concatenate", 60), ("average", 30)])
    def test_duration_modes(self, tmp_path, mode, expected_nt):
        cfg = write_config(tmp_path, duration_mode=mode)
        out = tmp_path / mode
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        drift_per_run = 0  # 90 s runs are below the first DCT frequency
        expected_dof = {
            "concatenate": 60 - (1 + drift_per_run + 2),
            "average": 30 - (1 + drift_per_run + 1),
        }[mode]
        assert manifest["summary"]["dof"] == expected_dof

    def test_null_phantom_usually_empty_table(self, tmp_path):
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, cnr=0.0, ar1_rho=0.0))
        out = tmp_path / "null"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters == []

    def test_null_phantoms_rarely_reject(self, tmp_path):
        # q bounds the chance that an all-null map rejects anything at all;
        # the default preprocessing must not inflate it
        nonempty = 0
        for seed in range(100, 140):
            cfg = write_config(tmp_path, seed=seed,
                               phantom=dict(FAST_PHANTOM, cnr=0.0, ar1_rho=0.0))
            out = tmp_path / f"null-{seed}"
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
            nonempty += json.loads((out / "clusters.json").read_text()) != []
        assert nonempty <= 5, f"{nonempty} of 40 null phantoms gave clusters at q=0.05"

    def test_missing_input_file_is_data_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"runs": ["/no/such/run.nii.gz"],
                                    "task": dict(FAST_TASK)}))
        assert main(["analyze", "--config", str(path)]) == 3

    def test_tiny_voxel_size_is_not_a_traceback(self, tmp_path):
        # a 1e-30 mm voxel asks for a smoothing kernel far wider than the axis
        rng = np.random.default_rng(3)
        paths = []
        for r in range(2):
            data = 1000.0 + rng.standard_normal((8, 8, 6, 20))
            path = tmp_path / f"run-{r + 1}.nii"
            write_nifti(make_volume(data, voxel_size_mm=(1e-30, 3.3, 4.8), tr_seconds=3.0), path)
            paths.append(str(path))
        cfg = write_runs_config(tmp_path, paths, task={
            "onsets_s": [0.0, 30.0], "durations_s": [15.0, 15.0], "run_length_s": 60.0})
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")]) in (0, 3)

    def test_invalid_config_exit_code(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"inference": {"q": 2.0}}))
        assert main(["analyze", "--config", str(path)]) == 2

    def test_manifest_reruns_identically(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        first = read_all_bytes(out)
        # the manifest doubles as a config for faithful re-execution
        assert main(["analyze", "--config", str(out / "manifest.json"),
                     "--out", str(out)]) == 0
        assert read_all_bytes(out) == first


class TestDurationStudy:
    def test_report_schema_and_direction(self, tmp_path):
        cfg = write_config(tmp_path, seed=42,
                           phantom=dict(FAST_PHANTOM, n_vols=100, cnr=5.0),
                           task={"onsets_s": [0.0, 60.0, 120.0, 180.0, 240.0],
                                 "durations_s": [30.0] * 5, "run_length_s": 300.0})
        out = tmp_path / "dur"
        assert main(["duration-study", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "robustness.json").read_text())
        assert report["conditions"] == ["single", "concatenated", "averaged"]
        assert len(report["non_target_rois"]) == 3
        for row in report["rows"]:
            assert set(row) == {"condition", "roi", "lsd", "tv", "peak_r"}
            assert row["lsd"] >= 0 and row["tv"] >= 0
            assert -1.0 <= row["peak_r"] <= 1.0

        def peak(condition, roi):
            return [r["peak_r"] for r in report["rows"]
                    if r["condition"] == condition and r["roi"] == roi]

        for roi in report["target_rois"]:
            assert peak("averaged", roi)[0] > peak("single", roi)[0]

        csv_lines = (out / "comparison.csv").read_text().splitlines()
        assert csv_lines[0] == "condition,roi,lsd,tv,peak_r"
        assert len(csv_lines) == 1 + len(report["rows"])

    def test_duplicated_run_averaged_equals_single(self, tmp_path):
        cfg = write_config(tmp_path)
        sim = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim)]) == 0
        dup_cfg = tmp_path / "dup.json"
        dup_cfg.write_text(json.dumps({
            "seed": 9,
            "runs": [str(sim / "run-01.nii.gz"), str(sim / "run-01.nii.gz")],
            "task": dict(FAST_TASK),
        }))
        out = tmp_path / "dur"
        assert main(["duration-study", "--config", str(dup_cfg), "--out", str(out)]) == 0
        report = json.loads((out / "robustness.json").read_text())
        single = {(r["roi"]): r for r in report["rows"] if r["condition"] == "single"}
        averaged = {(r["roi"]): r for r in report["rows"] if r["condition"] == "averaged"}
        for roi, row in single.items():
            assert averaged[roi]["lsd"] == row["lsd"]
            assert averaged[roi]["tv"] == row["tv"]
            assert averaged[roi]["peak_r"] == row["peak_r"]

    def test_wrong_run_count_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, n_runs=3))
        assert main(["duration-study", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestThreads:
    """--threads sets how many input runs are read, and volumes registered, at once."""

    def test_config_keeps_threads_out_of_the_manifest(self):
        cfg = validate_config({"threads": 3})
        assert cfg.threads == 3
        assert "threads" not in cfg.as_dict()
        assert validate_config({}).threads >= 1

    def test_duration_study_identical_across_thread_counts(self, tmp_path):
        cfg = write_runs_config(tmp_path, simulate_runs(tmp_path))
        out = tmp_path / "dur"
        outputs = []
        for threads in ("1", "2"):
            assert main(["duration-study", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(read_all_bytes(out))
        assert outputs[0] == outputs[1]

    def test_motion_corrected_analyze_identical_across_thread_counts(self, tmp_path):
        cfg = write_config(tmp_path, preprocess={"motion_correction": True})
        out = tmp_path / "an"
        outputs = []
        for threads in ("1", "2"):
            assert main(["analyze", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
            outputs.append(read_all_bytes(out))
        assert outputs[0] == outputs[1]

    def test_more_threads_than_cores_matches_one_thread(self, tmp_path):
        # a fresh interpreter under a timeout, so a stuck pool fails the test
        cfg = write_runs_config(tmp_path, simulate_runs(tmp_path, n_runs=4),
                                duration_mode="concatenate")
        out = tmp_path / "an"
        outputs = []
        for threads in ("4", "1"):
            subprocess.run([sys.executable, "-m", "boldkit.cli", "analyze", "--config", cfg,
                            "--out", str(out), "--threads", threads],
                           check=True, capture_output=True, timeout=120,
                           env=dict(os.environ, PYTHONPATH=SRC_PATH))
            outputs.append(read_all_bytes(out))
        assert outputs[0] == outputs[1]

    def test_truncated_second_run_is_data_error(self, tmp_path):
        runs = simulate_runs(tmp_path)
        with open(runs[1], "rb") as fh:
            blob = fh.read()
        with open(runs[1], "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        cfg = write_runs_config(tmp_path, runs)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an"),
                     "--threads", "2"]) == 3


class TestMisc:
    def test_import_leaves_slow_scipy_subpackages_unloaded(self):
        # scipy.stats and scipy.signal each add about a second to start-up
        code = ("import sys, boldkit.cli; "
                "print(sorted(m for m in ('scipy.stats', 'scipy.signal') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC_PATH))
        assert out.stdout.strip() == "[]"

    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert "boldkit" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
