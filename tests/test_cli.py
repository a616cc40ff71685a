"""Config validation, CLI commands, output determinism, exit codes."""

import csv
import gzip
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import boldkit
from boldkit import cli, glm, pipeline, task_design, volume_io
from boldkit.cli import main
from boldkit.config import PipelineConfig, load_config, validate_config
from boldkit.duration import RunSet, average_runs, concatenate_runs
from boldkit.errors import ConfigError, DataError
from boldkit.phantom import generate_phantom
from boldkit.volume_io import make_volume, read_nifti, write_nifti

from oracles import build_raw_nifti

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


# Runs the duration study on warm-up runs, then on the measured runs, and
# prints how far the second raised the process's resident high-water mark.
MEMORY_PROBE = """
import json, sys
from boldkit import pipeline
from boldkit.config import validate_config

def high_water():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024

warm, measured = json.loads(sys.argv[1])
pipeline.run_duration_study(validate_config(warm))  # lazy imports, BLAS buffers
before = high_water()
pipeline.run_duration_study(validate_config(measured))
print(high_water() - before)
"""


def duration_high_water_rise(tmp_path) -> float:
    """How far a duration study on two 32x32x16x100 file runs, read by one
    thread, raises the resident high-water mark (MEMORY_PROBE), in run
    sizes."""
    shape = (32, 32, 16, 100)
    configs = [
        {"seed": 9, "threads": 1, "output_dir": str(tmp_path / name),
         "runs": write_noise_runs(tmp_path, name, dims + (100,), seed)}
        for name, dims, seed in (("warm", (16, 16, 12), 1), ("measured", shape[:3], 2))
    ]
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE, json.dumps(configs)],
                         capture_output=True, text=True, check=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=SRC_PATH,
                                  MALLOC_MMAP_THRESHOLD_=str(1 << 20)))
    return int(out.stdout) / (8 * int(np.prod(shape)))


def write_noise_runs(tmp_path, name, shape, seed):
    rng = np.random.default_rng(seed)
    paths = []
    for r in range(2):
        path = str(tmp_path / f"{name}-{r + 1}.nii.gz")
        write_nifti(make_volume(1000.0 + 20.0 * rng.standard_normal(shape)), path)
        paths.append(path)
    return paths


def write_slab_runs(tmp_path, shape=(10, 10, 10, 40), seed=5):
    """Noise runs whose first four z-planes are 0 and last four are 500."""
    rng = np.random.default_rng(seed)
    paths = []
    for r in range(2):
        data = 1000.0 + 20.0 * rng.standard_normal(shape)
        data[:, :, :4] = 0.0
        data[:, :, -4:] = 500.0
        path = str(tmp_path / f"slab-{r + 1}.nii.gz")
        write_nifti(make_volume(data), path)
        paths.append(path)
    return paths


SLAB_TASK = {"onsets_s": [0.0, 60.0], "durations_s": [30.0, 30.0], "run_length_s": 120.0}


def refuse(*args, **kwargs):
    """Stands in for a function the test must not reach."""
    raise AssertionError("called where the flow should already have failed")


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
        default = PipelineConfig()
        for section in ("phantom", "task", "preprocess", "glm", "inference"):
            assert getattr(default, section) == getattr(cfg, section)

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
        with pytest.raises(ConfigError, match="glm.cutoff_hz"):  # Nyquist at TR 3 s: 1/6 Hz
            validate_config({"glm": {"cutoff_hz": 0.2}})

    # one out-of-range or wrong-type value per config key
    BAD_VALUES = {
        "seed": -1,
        "output_dir": "",
        "threads": 0,
        "runs": [],
        "duration_mode": "tripled",
        "phantom.dims": [24, 24],
        "phantom.voxel_size_mm": [3.3, 3.3, 0.0],
        "phantom.cnr": -1.0,
        "phantom.noise_sigma": 0.0,
        "phantom.ar1_rho": 1.0,
        "phantom.drift_amplitude": "big",
        "phantom.field_tesla": 0,
        "phantom.n_runs": 1.5,
        "phantom.n_vols": 3,
        "phantom.tr_s": -3.0,
        "phantom.te_ms": True,
        "task.onsets_s": "0, 60",
        "task.durations_s": [30.0, -1.0, 30.0, 30.0, 30.0],
        "task.run_length_s": 0.0,
        "preprocess.slice_timing": 1,
        "preprocess.slice_order": "random",
        "preprocess.reference_fraction": 1.5,
        "preprocess.motion_correction": "no",
        "preprocess.fwhm_mm": -8.0,
        "glm.cutoff_hz": 0.0,
        "glm.contrast": "rest",
        "glm.two_sided": None,
        "inference.q": 0.0,
        "inference.connectivity": 8,
    }

    def test_bad_values_cover_every_key(self):
        cfg = validate_config({})
        sections = ("phantom", "task", "preprocess", "glm", "inference")
        keys = {f"{s}.{k}" for s in sections for k in getattr(cfg, s)}
        keys |= {"seed", "output_dir", "threads", "runs", "duration_mode"}
        assert keys == set(self.BAD_VALUES)

    @pytest.mark.parametrize("key", sorted(BAD_VALUES))
    def test_every_key_rejected_by_name(self, key):
        section, _, name = key.partition(".")
        value = self.BAD_VALUES[key]
        raw = {section: {name: value}} if name else {key: value}
        with pytest.raises(ConfigError, match=re.escape(f"config key '{key}': ")):
            validate_config(raw)

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


class TestFlags:
    # one legal value per flag, and the config value it sets
    VALUES = {
        "--out": ("o", "o"),
        "--seed": ("5", 5),
        "--threads": ("3", 3),
        "--q": ("0.1", 0.1),
        "--fwhm": ("4", 4.0),
        "--cutoff-hz": ("0.01", 0.01),
        "--connectivity": ("6", 6),
    }

    def test_every_flag_sets_its_config_key(self, monkeypatch):
        assert [flag for flag, *_ in cli.FLAGS] == list(self.VALUES)
        seen = []
        monkeypatch.setattr(cli, "run_simulate", lambda cfg: seen.append(cfg) or [])
        argv = [arg for flag, (text, _) in self.VALUES.items() for arg in (flag, text)]
        assert main(["simulate", *argv]) == 0
        (cfg,) = seen
        for flag, key, *_ in cli.FLAGS:
            section, _, name = key.rpartition(".")
            value = getattr(cfg, section)[name] if section else getattr(cfg, name)
            assert value == self.VALUES[flag][1], flag

    def test_help_gives_the_schema_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for line in ("FDR level (default 0.05)", "FWHM in mm (default 8.0)",
                     "cutoff in Hz (default 0.005)", "cluster neighborhood (default 26)"):
            assert line in text

    def test_connectivity_checked_by_the_config(self, tmp_path, capsys):
        out = tmp_path / "an"
        assert main(["analyze", "--connectivity", "8", "--out", str(out)]) == 2
        assert re.fullmatch(r"boldkit: config error: config key 'inference\.connectivity': .+\n",
                            capsys.readouterr().err)
        assert not out.exists()


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

    def test_fewer_runs_clear_stale_run_files(self, tmp_path):
        out = tmp_path / "sim"
        three = write_config(tmp_path, "three.json", phantom=dict(FAST_PHANTOM, n_runs=3))
        assert main(["simulate", "--config", three, "--out", str(out)]) == 0
        assert (out / "run-03.nii.gz").exists()
        # look-alike names simulate never writes are left alone
        for other in ("run-3.nii.gz", "run-003.nii.gz", "run-03.nii", "notes.txt"):
            (out / other).write_text("keep")
        two = write_config(tmp_path, "two.json", phantom=dict(FAST_PHANTOM, n_runs=2))
        assert main(["simulate", "--config", two, "--out", str(out)]) == 0
        runs = sorted(name for name in os.listdir(out) if name.endswith(".nii.gz"))
        assert runs == ["run-003.nii.gz", "run-01.nii.gz", "run-02.nii.gz", "run-3.nii.gz"]
        assert (out / "run-03.nii").exists() and (out / "notes.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["run-01.nii.gz", "run-02.nii.gz", "truth.json"]

    def test_failed_simulate_leaves_nothing_of_an_earlier_one(self, tmp_path):
        # the second simulate fails on run 1 (past float32); no run file or
        # truth of the first is left beside the missing manifest
        out = tmp_path / "sim"
        assert main(["simulate", "--config", write_config(tmp_path), "--out", str(out)]) == 0
        (out / "notes.txt").write_text("keep")
        huge = write_config(tmp_path, "huge.json", phantom=dict(FAST_PHANTOM, noise_sigma=1e39))
        assert main(["simulate", "--config", huge, "--out", str(out)]) == 4
        assert sorted(os.listdir(out)) == ["notes.txt"]

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

    def test_single_mode_preprocesses_only_the_analysed_run(self, tmp_path, monkeypatch):
        # run 1 draws from its own stream, so a one-run phantom gives the same outputs
        calls = []
        for name in ("generate_phantom", "estimate_motion"):
            original = getattr(pipeline, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, counted)
        preprocess = {"motion_correction": True}
        two = write_config(tmp_path, "two.json", preprocess=preprocess)
        one = write_config(tmp_path, "one.json", preprocess=preprocess,
                           phantom=dict(FAST_PHANTOM, n_runs=1))
        files, summaries = [], []
        for cfg in (two, one):
            out = tmp_path / f"out-{os.path.basename(cfg)}"
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
            assert calls == ["generate_phantom", "estimate_motion"]
            calls.clear()
            written = read_all_bytes(out)
            summaries.append(json.loads(written.pop("manifest.json"))["summary"])
            files.append(written)
        assert files[0] == files[1] and summaries[0] == summaries[1]

    def test_single_mode_reads_only_the_analysed_run(self, tmp_path, monkeypatch):
        # run 2's gzip stream is cut short: its header reads, its data does not
        runs = simulate_runs(tmp_path)
        with open(runs[1], "rb") as fh:
            blob = fh.read()
        with open(runs[1], "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        assert pipeline.read_nifti_header(runs[1]).dims == (12, 12, 8, 30)
        with pytest.raises(DataError):
            read_nifti(runs[1])

        reads = []

        def counted(*args):
            reads.append(args[0])
            return read_nifti(*args)

        monkeypatch.setattr(pipeline, "read_nifti", counted)
        files, summaries = [], []
        for name, paths in (("both", runs), ("first", runs[:1])):
            cfg = write_runs_config(tmp_path, paths, name=f"{name}.json")
            out = tmp_path / name
            assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
            assert reads == [runs[0]]
            reads.clear()
            written = read_all_bytes(out)
            summaries.append(json.loads(written.pop("manifest.json"))["summary"])
            files.append(written)
        assert files[0] == files[1] and summaries[0] == summaries[1]

    @pytest.mark.parametrize("second, named", [
        ("missing.nii.gz", "cannot read"),
        ("short.nii", "file shorter than the 348-byte header"),
    ])
    def test_single_mode_still_parses_every_header(self, tmp_path, capsys, monkeypatch,
                                                   second, named):
        runs = simulate_runs(tmp_path)
        runs[1] = str(tmp_path / second)
        if second == "short.nii":
            with open(runs[0], "rb") as fh:
                (tmp_path / second).write_bytes(gzip.decompress(fh.read())[:100])
        monkeypatch.setattr(pipeline, "read_nifti", refuse)
        cfg = write_runs_config(tmp_path, runs)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: data error: .+\n", err)
        assert runs[1] in err and named in err

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

    @pytest.mark.parametrize("mode", ["concatenate", "average"])
    @pytest.mark.parametrize("source", ["phantom", "files"])
    def test_stacked_runs_give_the_maps_of_runs_built_apart(self, tmp_path, mode, source):
        # the reference builds each run by hand in its own array,
        # preprocesses it there, then fits and analyses the condition from
        # those runs; its maps are the flow's, byte for byte
        preprocess = {"motion_correction": True}
        if source == "phantom":
            cfg_path = write_config(tmp_path, duration_mode=mode, preprocess=preprocess)
        else:
            cfg_path = write_runs_config(tmp_path, simulate_runs(tmp_path),
                                         duration_mode=mode, preprocess=preprocess)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg_path, "--out", str(out)]) == 0

        cfg = load_config(cfg_path)
        design = pipeline.block_design_from_config(cfg)
        if source == "phantom":
            spec, acq = pipeline.phantom_pieces(cfg)
            runs = [generate_phantom(spec, acq, design, run_index=r)[0] for r in range(2)]
        else:
            runs = [read_nifti(path) for path in cfg.runs]
        pipeline.preprocess_runs(runs, cfg)
        [(geometry, fit)] = pipeline.fit_conditions(cfg, runs, design, [mode])
        result = pipeline.analyze_volume(geometry, fit, cfg)
        reference = pipeline.OutputTracker(tmp_path / "reference")
        reference.map("t_map.nii.gz", result.stats3d.t, geometry)
        reference.map("z_map.nii.gz", result.stats3d.z, geometry)
        reference.map("rejection_mask.nii.gz", result.rejected, geometry)
        for name in ("t_map.nii.gz", "z_map.nii.gz", "rejection_mask.nii.gz"):
            assert (out / name).read_bytes() == (tmp_path / "reference" / name).read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "duration-study"])
    def test_no_condition_series_is_built(self, tmp_path, monkeypatch, command):
        # every condition reaches the analysis as a fit and the header of
        # its grid, never as a volume, and each run has its own array
        loaded, analysed = [], []
        load_runs, analyze_volume = pipeline.load_runs, pipeline.analyze_volume

        def record_load(*args, **kwargs):
            result = load_runs(*args, **kwargs)
            loaded.extend(result[0])
            return result

        def record_analysis(geometry, *args):
            analysed.append(geometry)
            return analyze_volume(geometry, *args)

        monkeypatch.setattr(pipeline, "load_runs", record_load)
        monkeypatch.setattr(pipeline, "analyze_volume", record_analysis)
        cfg = write_config(tmp_path, duration_mode="concatenate")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert len(loaded) == 2
        assert analysed and all(type(geometry) is volume_io.VolumeHeader
                                for geometry in analysed)
        [concatenated] = [geometry for geometry in analysed if geometry.n_vols == 60]
        assert concatenated.dims == (12, 12, 8, 60)
        # each run owns its array, so the runs share no memory; disjoint
        # time slabs of one stack would pass np.shares_memory, not this
        assert all(run.data.flags.owndata for run in loaded)

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

    @pytest.mark.parametrize("mode", ["single", "concatenate", "average"])
    def test_constant_and_zero_regions_give_finite_maps(self, tmp_path, mode):
        cfg = write_runs_config(tmp_path, write_slab_runs(tmp_path), task=SLAB_TASK,
                                duration_mode=mode)
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        t_map = read_nifti(out / "t_map.nii.gz").data[..., 0]
        z_map = read_nifti(out / "z_map.nii.gz").data[..., 0]
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        # smoothing reaches two planes in z, so the outer two planes of each
        # slab stay constant in time: they are the degenerate voxels
        outer = np.zeros(t_map.shape, dtype=bool)
        outer[:, :, [0, 1, -2, -1]] = True
        assert np.isfinite(t_map).all() and np.isfinite(z_map).all()
        assert (t_map[outer] == 0).all() and (z_map[outer] == 0).all()
        assert summary["n_degenerate"] == outer.sum()
        assert summary["n_mask_voxels"] + summary["n_degenerate"] == t_map.size

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

    def test_failed_flow_leaves_no_outputs(self, tmp_path, monkeypatch):
        out = tmp_path / "an"
        cfg = validate_config({"seed": 9, "phantom": dict(FAST_PHANTOM), "task": dict(FAST_TASK),
                               "output_dir": str(out)})

        written = []
        json_output = pipeline.OutputTracker.json

        def fail(self, name, *args, **kwargs):
            if name != "clusters.json":
                return json_output(self, name, *args, **kwargs)
            self.path(name)
            written.extend(os.listdir(out))
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.OutputTracker, "json", fail)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run_analyze(cfg)
        assert {"t_map.nii.gz", "rejection_mask.nii.gz", "clusters.csv"} <= set(written)
        assert os.listdir(out) == []

    def test_failed_rerun_leaves_no_manifest_of_missing_files(self, tmp_path, monkeypatch):
        out = tmp_path / "an"
        cfg = validate_config({"seed": 9, "phantom": dict(FAST_PHANTOM), "task": dict(FAST_TASK),
                               "output_dir": str(out)})
        pipeline.run_analyze(cfg)
        assert "manifest.json" in os.listdir(out)

        json_output = pipeline.OutputTracker.json

        def fail(self, name, *args, **kwargs):
            if name != "clusters.json":
                return json_output(self, name, *args, **kwargs)
            self.path(name)
            raise OSError("disk full")

        monkeypatch.setattr(pipeline.OutputTracker, "json", fail)
        with pytest.raises(OSError, match="disk full"):
            pipeline.run_analyze(cfg)
        assert os.listdir(out) == []

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

    def test_peak_r_comes_from_the_fit_without_a_second_pass(self, tmp_path, monkeypatch):
        # no condition's series is read again for r: correlation_map, the
        # second pass, is never called, yet every r map the flow takes its
        # peaks from is correlation_map's on that condition built explicitly
        # from copies of the preprocessed runs (run 1, the runs'
        # concatenation, their average), with degenerate voxels at r = 0
        monkeypatch.setattr(pipeline, "correlation_map", refuse)
        load_runs, analyze_volume = pipeline.load_runs, pipeline.analyze_volume
        peak_correlation = pipeline.peak_correlation
        loaded, analysed, seen = [], [], []

        def record_load(*args, **kwargs):
            result = load_runs(*args, **kwargs)
            loaded.append(result)
            return result

        def record_analysis(geometry, fit, cfg):
            result = analyze_volume(geometry, fit, cfg)
            analysed.append((fit.design.values[:, 0], result.stats3d.degenerate))
            return result

        def record_peak(r_map, roi):
            if not any(r_map is m for m in seen):
                seen.append(r_map)
            return peak_correlation(r_map, roi)

        monkeypatch.setattr(pipeline, "load_runs", record_load)
        monkeypatch.setattr(pipeline, "analyze_volume", record_analysis)
        monkeypatch.setattr(pipeline, "peak_correlation", record_peak)
        cfg = write_config(tmp_path)
        assert main(["duration-study", "--config", cfg, "--out", str(tmp_path / "dur")]) == 0

        [(runs, design, _)] = loaded  # preprocessed in place by the flow
        copies = RunSet(runs=[replace(run, data=run.data.copy()) for run in runs], design=design)
        concatenated, _ = concatenate_runs(copies)
        averaged = average_runs(copies)
        assert len(seen) == len(analysed) == 3
        for r_map, vol, (regressor, degenerate) in zip(seen, (runs[0], concatenated, averaged),
                                                       analysed):
            oracle = glm.correlation_map(vol, regressor)
            oracle[degenerate] = 0.0
            np.testing.assert_allclose(r_map, oracle, rtol=0, atol=1e-12)

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

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set size from /proc")
    def test_peak_memory_below_three_and_a_half_runs(self, tmp_path):
        # Preprocessing works inside each run's own array, and every
        # condition is fitted from the runs themselves (fit_runs), with no
        # concatenated or averaged series built, so no stage holds four
        # run-sized arrays. The process's resident high-water mark is
        # measured. glibc otherwise raises its mmap threshold after the
        # first large free and keeps later buffers on the heap, where freed
        # pages stay resident; a fixed threshold returns each at once.
        shape = (32, 32, 16, 100)
        run_bytes = 8 * int(np.prod(shape))
        configs = [
            {"seed": 9, "threads": 1, "output_dir": str(tmp_path / name),
             "runs": write_noise_runs(tmp_path, name, dims + (100,), seed)}
            for name, dims, seed in (("warm", (16, 16, 12), 1), ("measured", shape[:3], 2))
        ]
        out = subprocess.run([sys.executable, "-c", MEMORY_PROBE, json.dumps(configs)],
                             capture_output=True, text=True, check=True, timeout=300,
                             env=dict(os.environ, PYTHONPATH=SRC_PATH,
                                      MALLOC_MMAP_THRESHOLD_=str(1 << 20)))
        assert int(out.stdout) < 3.5 * run_bytes

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the peak resident set size from /proc")
    def test_peak_memory_below_two_and_a_half_runs(self, tmp_path):
        # Each run is read into its own array and preprocessed there, and no
        # condition's series is built (fit_runs), so the flow holds the two
        # runs and transients well below a third run. glibc's mmap threshold
        # is fixed as in the test above.
        assert duration_high_water_rise(tmp_path) < 2.5

    def test_constant_runs_read_zero_correlation(self, tmp_path):
        # slice timing leaves a constant run varying by rounding; a series
        # without noise reads r = 0 by the rule that flags it degenerate.
        # At two levels, concatenation's intercept per run fits the step
        # between them exactly, so that condition's series has no noise too.
        for levels in ((300.0, 300.0), (300.0, 317.3)):
            runs = []
            for r, level in enumerate(levels):
                path = str(tmp_path / f"constant-{r + 1}.nii.gz")
                write_nifti(make_volume(np.full((10, 10, 8, 40), level)), path)
                runs.append(path)
            cfg = write_runs_config(tmp_path, runs, task=SLAB_TASK)
            out = tmp_path / "dur"
            assert main(["duration-study", "--config", cfg, "--out", str(out)]) == 0
            rows = json.loads((out / "robustness.json").read_text())["rows"]
            assert len(rows) == 9
            assert all(row["peak_r"] == 0.0 for row in rows), levels

    @pytest.mark.parametrize("case", ["phantom too small", "file runs too small"])
    def test_unplaceable_non_target_rois_is_data_error(self, tmp_path, capsys, case):
        # three 200-voxel ROIs need 600 voxels outside the activation
        if case == "phantom too small":
            dims = (8, 8, 8)
            cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, dims=list(dims)))
        else:
            dims = (10, 10, 6)
            runs = write_noise_runs(tmp_path, "small", dims + (40,), seed=3)
            cfg = write_runs_config(tmp_path, runs, task=SLAB_TASK)
        assert main(["duration-study", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: data error: .+\n", err)
        assert "non-target ROIs" in err and f"dims {dims}" in err

    def test_wrong_run_count_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, n_runs=3))
        assert main(["duration-study", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


class TestRunCount:
    """A run count the flow cannot use is a config error naming the key that set it."""

    @pytest.mark.parametrize("command, mode, n_runs", [
        ("duration-study", "single", 3),
        ("analyze", "concatenate", 1),
        ("analyze", "average", 1),
    ])
    @pytest.mark.parametrize("source", ["phantom", "files"])
    def test_names_the_key_set(self, tmp_path, capsys, command, mode, n_runs, source):
        if source == "phantom":
            cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, n_runs=n_runs),
                               duration_mode=mode)
            key = "phantom.n_runs"
        else:
            cfg = write_runs_config(tmp_path, simulate_runs(tmp_path, n_runs),
                                    duration_mode=mode)
            key = "runs"
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(rf"boldkit: config error: config key '{re.escape(key)}': .+\n", err)
        assert f"got {n_runs}" in err

    @pytest.mark.parametrize("command, mode, n_runs", [
        ("duration-study", "single", 3),
        ("analyze", "concatenate", 1),
    ])
    @pytest.mark.parametrize("source", ["phantom", "files"])
    def test_checked_before_any_run_is_built(self, tmp_path, monkeypatch, command, mode,
                                              n_runs, source):
        if source == "phantom":
            cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, n_runs=n_runs),
                               duration_mode=mode)
        else:
            cfg = write_runs_config(tmp_path, simulate_runs(tmp_path, n_runs),
                                    duration_mode=mode)

        monkeypatch.setattr(pipeline, "generate_phantom", refuse)
        monkeypatch.setattr(pipeline, "read_nifti", refuse)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 2

    def test_count_wins_over_an_unreadable_file(self, tmp_path, capsys):
        cfg = write_runs_config(tmp_path, [str(tmp_path / "missing.nii.gz")],
                                duration_mode="concatenate")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "config key 'runs'" in capsys.readouterr().err


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
        cfg = write_runs_config(tmp_path, runs, duration_mode="concatenate")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an"),
                     "--threads", "2"]) == 3

    @pytest.mark.parametrize("libdeflate", [True, False])
    def test_flipped_crc_is_format_error(self, tmp_path, monkeypatch, libdeflate):
        runs = simulate_runs(tmp_path)
        with open(runs[0], "rb") as fh:
            blob = bytearray(fh.read())
        blob[-8] ^= 0x01  # the gzip CRC-32 precedes the 4-byte ISIZE
        with open(runs[0], "wb") as fh:
            fh.write(blob)
        if not libdeflate:
            monkeypatch.setattr(volume_io, "_libdeflate", lambda: None)
        cfg = write_runs_config(tmp_path, runs)
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")]) == 3


class TestMisc:
    def test_import_leaves_slow_scipy_subpackages_unloaded(self):
        # scipy.stats and scipy.signal each add about a second to start-up,
        # and scipy itself (through scipy.special or scipy.ndimage) 0.3 s
        code = ("import sys, boldkit.cli; print(sorted(m for m in "
                "('scipy', 'scipy.stats', 'scipy.signal') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env=dict(os.environ, PYTHONPATH=SRC_PATH))
        assert out.stdout.strip() == "[]"

    def test_default_analyze_never_imports_scipy(self, tmp_path):
        # the import cost must be gone, not moved into the first call
        code = ("import json, sys; from boldkit.cli import main; "
                "code = main(sys.argv[1:]); "
                "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
        out = subprocess.run(
            [sys.executable, "-c", code, "analyze", "--config", write_config(tmp_path),
             "--out", str(tmp_path / "an")],
            capture_output=True, text=True, check=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC_PATH))
        assert json.loads(out.stdout.strip().splitlines()[-1]) == [0, []]

    def test_version_command(self, capsys):
        assert main(["version"]) == 0
        assert "boldkit" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2


class TestOutputFiles:
    def test_symlink_at_an_output_name_is_replaced_not_followed(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        out.mkdir()
        target = tmp_path / "elsewhere.nii.gz"
        target.write_bytes(b"not an output")
        (out / "t_map.nii.gz").symlink_to(target)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert target.read_bytes() == b"not an output"
        assert not (out / "t_map.nii.gz").is_symlink()
        assert (out / "t_map.nii.gz").is_file()

    def test_directory_at_an_output_name_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        (out / "clusters.json").mkdir(parents=True)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(r"boldkit: data error: .+\n", err)
        assert str(out / "clusters.json") in err
        # the maps and clusters.csv written before it are removed
        assert os.listdir(out) == ["clusters.json"]

    def test_directory_at_the_manifest_name_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        (out / "manifest.json").mkdir(parents=True)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        assert str(out / "manifest.json") in capsys.readouterr().err
        assert os.listdir(out) == ["manifest.json"]

    @pytest.mark.parametrize("command", ["analyze", "duration-study"])
    def test_file_as_output_dir_fails_before_the_work(self, tmp_path, monkeypatch, command):
        calls = []
        monkeypatch.setattr(pipeline, "preprocess_runs", lambda *args: calls.append(args))
        assert main([command, *file_output_args(tmp_path)]) == 2
        assert calls == []

    def test_csv_tables(self, tmp_path):
        out = pipeline.OutputTracker(tmp_path)
        out.csv("empty.csv", ["n", "value", "name"], [])
        assert (tmp_path / "empty.csv").read_text() == "n,value,name\n"

        values = [0.1, 1 / 3, -2.5e-300, 1e17]
        rows = [{"name": "x, y", "value": v, "n": i} for i, v in enumerate(values)]
        out.csv("table.csv", ["n", "value", "name"], rows)
        text = (tmp_path / "table.csv").read_text()
        assert text.splitlines()[1] == '0,0.1,"x, y"'
        back = list(csv.reader(text.splitlines()))
        assert back[0] == ["n", "value", "name"]
        assert [float(value) for _, value, _ in back[1:]] == values
        assert [name for _, _, name in back[1:]] == ["x, y"] * len(values)
        assert out.files == [str(tmp_path / "empty.csv"), str(tmp_path / "table.csv")]


class TestOutOfMemory:
    @pytest.mark.parametrize("command,flow", [
        ("simulate", "run_simulate"),
        ("analyze", "run_analyze"),
        ("duration-study", "run_duration_study"),
    ])
    def test_data_error_naming_the_command(self, tmp_path, capsys, monkeypatch, command, flow):
        def exhausted(cfg):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(cli, flow, exhausted)
        assert main([command, "--config", write_config(tmp_path)]) == 3
        assert capsys.readouterr().err == (f"boldkit: data error: {command} ran out of memory: "
                                           "Unable to allocate 8.00 GiB for an array\n")

    def test_message_without_detail(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
            raise MemoryError

        monkeypatch.setattr(cli, "run_analyze", exhausted)
        assert main(["analyze", "--config", write_config(tmp_path)]) == 3
        assert capsys.readouterr().err == "boldkit: data error: analyze ran out of memory\n"

    def test_failed_run_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        out = tmp_path / "an"
        written = []
        csv_output = pipeline.OutputTracker.csv

        def exhausted(self, name, *args, **kwargs):
            csv_output(self, name, *args, **kwargs)
            written.extend(os.listdir(out))
            raise MemoryError

        monkeypatch.setattr(pipeline.OutputTracker, "csv", exhausted)
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 3
        assert re.fullmatch(r"boldkit: data error: analyze ran out of memory\n",
                            capsys.readouterr().err)
        assert {"t_map.nii.gz", "rejection_mask.nii.gz", "clusters.csv"} <= set(written)
        assert os.listdir(out) == []


def task_args(tmp_path, **task):
    return ["--config", write_config(tmp_path, task=dict(FAST_TASK, **task))]


def directory_runs_args(tmp_path):
    run = tmp_path / "run-dir.nii.gz"
    run.mkdir()
    return ["--config", write_runs_config(tmp_path, [str(run), str(run)])]


def file_output_args(tmp_path, under=""):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return ["--config", write_config(tmp_path), "--out", os.path.join(str(blocker), under)]


class TestInputErrors:
    """A bad input exits 2 (naming the config key) or 3 (naming the path)
    with a one-line message, never with a traceback."""

    BAD_INPUTS = {
        "onsets_not_increasing": (2, "config key 'task'",
                                  lambda tmp: task_args(tmp, onsets_s=[30.0, 0.0, 60.0])),
        "zero_duration": (2, "config key 'task'",
                          lambda tmp: task_args(tmp, durations_s=[15.0, 0.0, 15.0])),
        "block_past_run_end": (2, "config key 'task'",
                               lambda tmp: task_args(tmp, durations_s=[15.0, 15.0, 45.0])),
        "overlapping_blocks": (2, "config key 'task'",
                               lambda tmp: task_args(tmp, durations_s=[45.0, 15.0, 15.0])),
        "task_without_blocks": (2, "config key 'task.onsets_s'",
                                lambda tmp: task_args(tmp, onsets_s=[], durations_s=[])),
        "cutoff_above_nyquist": (2, "config key 'glm.cutoff_hz'", lambda tmp: [
            "--config", write_config(tmp, glm={"cutoff_hz": 0.5})]),  # Nyquist at TR 3 s: 1/6 Hz
        "run_is_a_directory": (3, "run-dir.nii.gz", directory_runs_args),
        "output_dir_is_a_file": (2, "config key 'output_dir'", file_output_args),
        "output_dir_under_a_file": (2, "config key 'output_dir'",
                                    lambda tmp: file_output_args(tmp, under="out")),
        "null_section": (2, "config key 'glm': must be an object",
                         lambda tmp: ["--config", write_config(tmp, glm=None)]),
        "null_phantom": (2, "config key 'phantom': must be an object",
                         lambda tmp: ["--config", write_config(tmp, phantom=None)]),
        "flag_into_a_section_that_is_no_object": (2, "config key 'inference.q'", lambda tmp: [
            "--config", write_config(tmp, inference=5), "--q", "0.1"]),
    }

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_one_line_message(self, tmp_path, capsys, monkeypatch, case):
        code, named, args = self.BAD_INPUTS[case]
        monkeypatch.setattr(pipeline, "generate_phantom", refuse)  # each fails before any run
        assert main(["analyze", "--out", str(tmp_path / "an"), *args(tmp_path)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.fullmatch(r"boldkit: (config|data) error: .+\n", err)
        assert named in err

    UNNAMEABLE_PATHS = {
        "run_with_nul": ("analyze", "runs", {"runs": ["run\u0000x.nii.gz", "b.nii.gz"]}),
        "run_with_lone_surrogate": ("analyze", "runs", {"runs": ["\ud800x.nii.gz", "b.nii.gz"]}),
        "output_dir_with_nul": ("simulate", "output_dir", {"output_dir": "o\u0000x"}),
    }

    @pytest.mark.parametrize("case", sorted(UNNAMEABLE_PATHS))
    def test_path_the_os_cannot_name_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                                       case):
        command, key, raw = self.UNNAMEABLE_PATHS[case]
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main([command, "--config", str(path)]) == 2
        assert re.fullmatch(rf"boldkit: config error: config key '{key}': .+\n",
                            capsys.readouterr().err)
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("content", [
        b'{"seed": 1, \xff}',          # not UTF-8
        b"[" * 200000 + b"]" * 200000,  # nested past the recursion limit
    ])
    def test_config_file_that_cannot_be_read_as_json(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert re.fullmatch(r"boldkit: config error: config file .+\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("content", ["[1]", "null", '"x"'])
    def test_config_that_is_no_object_with_flags(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_text(content)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(path), "--out", str(out), "--q", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "boldkit: config error: config key '<root>': config must be a JSON object\n")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, code", [
        ("tr_s", float("inf"), 2),
        ("noise_sigma", float("inf"), 2),
        ("cnr", float("inf"), 2),
        ("drift_amplitude", float("-inf"), 2),
        ("field_tesla", float("nan"), 2),
        ("noise_sigma", 1e200, 4),  # finite, but a series' sum of squares overflows
        ("noise_sigma", 1.7e308, 4),  # the phantom itself overflows
    ])
    def test_non_finite_or_overflowing_phantom_numbers(self, tmp_path, capsys, key, value, code):
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, **{key: value}))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: (config error|numeric failure): .+\n", err)
        if code == 2:
            assert f"config key 'phantom.{key}': must be finite" in err

    def test_simulated_values_beyond_float32_are_a_numeric_failure(self, tmp_path, capsys):
        # the phantom is finite in float64, but run files hold float32
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, noise_sigma=1e39))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
        assert re.fullmatch(r"boldkit: numeric failure: cannot write .+run-01\.nii\.gz: "
                            r"voxel values beyond the float32 range\n", capsys.readouterr().err)
        assert os.listdir(out) == []

    def test_overflow_in_motion_estimation_reaches_no_solver(self, tmp_path, capfd):
        # the reference's normal matrix overflows float64; LAPACK, which
        # prints from C on such input, must never see it
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, noise_sigma=1e300),
                           preprocess={"motion_correction": True})
        out = tmp_path / "an"
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 4
        captured = capfd.readouterr()
        assert "DLASCL" not in captured.out + captured.err
        assert re.fullmatch(r"boldkit: numeric failure: motion estimation overflows float64: .+\n",
                            captured.err)
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("fwhm", [[], ["--fwhm", "0"]])
    def test_overflow_in_preprocessing_is_a_numeric_failure(self, tmp_path, fwhm):
        # float64 runs alternating at +-1.5e308 in time: the sinc shift of
        # slice timing overshoots float64. A fresh interpreter, so numpy
        # warnings reach stderr as a user would see them.
        dims = (8, 8, 6, 40)
        sign = np.where(np.arange(dims[3]) % 2 == 0, 1.0, -1.0)
        payload = np.broadcast_to(1.5e308 * sign, dims).astype("<f8").tobytes(order="F")
        runs = []
        for r in (1, 2):
            path = tmp_path / f"run-{r}.nii"
            path.write_bytes(build_raw_nifti(dims, payload, datatype=64, bitpix=64))
            runs.append(str(path))
        cfg = write_runs_config(tmp_path, runs, duration_mode="average", task=dict(SLAB_TASK))
        out = tmp_path / "an"
        proc = subprocess.run([sys.executable, "-m", "boldkit.cli", "analyze", "--config", cfg,
                               "--out", str(out), *fwhm],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC_PATH))
        assert proc.returncode == 4
        assert re.fullmatch(r"boldkit: numeric failure: slice timing correction overflows .+\n",
                            proc.stderr)
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("tr_s, task", [
        (1e-6, {"onsets_s": [0.0], "durations_s": [2e-5], "run_length_s": 3e-5}),
        (1e6, {"onsets_s": [0.0], "durations_s": [1e6], "run_length_s": 2e7}),
    ])
    def test_tr_the_hrf_cannot_be_sampled_at(self, tmp_path, capsys, monkeypatch, tr_s, task):
        monkeypatch.setattr(task_design, "canonical_hrf", refuse)
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, tr_s=tr_s), task=task)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: config error: config key 'phantom\.tr_s': .+\n", err)

    def test_run_tr_the_hrf_cannot_be_sampled_at(self, tmp_path, capsys, monkeypatch):
        tr = 1e-4
        paths = []
        for r in range(2):
            vol = make_volume(np.random.default_rng(r).normal(100.0, 1.0, (6, 6, 4, 30)),
                              tr_seconds=tr)
            paths.append(str(tmp_path / f"run-{r}.nii.gz"))
            write_nifti(vol, paths[-1])

        monkeypatch.setattr(task_design, "canonical_hrf", refuse)
        cfg = write_runs_config(tmp_path, paths, task={
            "onsets_s": [0.0], "durations_s": [10 * tr], "run_length_s": 30 * tr})
        assert main(["duration-study", "--config", cfg, "--out", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: data error: HRF step .+\n", err)

    def test_voxel_size_past_float32_rejected(self, tmp_path, capsys):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, voxel_size_mm=[1e300] * 3))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "config key 'phantom.voxel_size_mm'" in capsys.readouterr().err
        assert not list(out.glob("*.nii.gz"))
        validate_config({"phantom": {"voxel_size_mm": [volume_io.FLOAT32_MAX] * 3}})

    @pytest.mark.parametrize("phantom, key", [
        ({"dims": [40000, 1, 1]}, "phantom.dims"),
        ({"dims": [2, 2, 2], "n_vols": 40000}, "phantom.n_vols"),
    ])
    def test_dims_past_the_header_limit_rejected(self, tmp_path, capsys, phantom, key):
        out = tmp_path / "sim"
        cfg = write_config(tmp_path, phantom=dict(FAST_PHANTOM, **phantom))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"config key '{key}': must be <= 32767" in capsys.readouterr().err
        assert not out.exists()
        validate_config({"phantom": {"dims": [volume_io.MAX_DIM, 1, 1]}})

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_phantom_run_shorter_than_the_task_names_n_vols(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"phantom": {"n_vols": 4}}))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "boldkit: config error: config key 'phantom.n_vols': 4 volumes at TR 3.0 s "
            "cover 12.0 s, short of the 300.0 s run\n")

    def test_file_runs_shorter_than_the_task_are_a_data_error(self, tmp_path, capsys):
        cfg = write_runs_config(tmp_path, write_noise_runs(tmp_path, "short", (6, 6, 4, 10), 3))
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "an")]) == 3
        assert re.fullmatch(r"boldkit: data error: 10 volumes at TR 3.0 s cover 30.0 s, "
                            r"short of the 90.0 s run\n", capsys.readouterr().err)

    # runs whose headers cannot carry the FAST_TASK design: (shapes, TRs,
    # exit code, message)
    MISMATCHED_RUNS = {
        "dims": ([(8, 8, 6, 40), (8, 8, 5, 40)], [3.0, 3.0], 3,
                 "run dims (8, 8, 5, 40) != (8, 8, 6, 40)"),
        "tr": ([(8, 8, 6, 50)] * 2, [3.0, 2.0], 3, "runs differ in TR"),
        "cutoff_above_nyquist": ([(8, 8, 6, 40)] * 2, [120.0, 120.0], 2,
                                 "config key 'glm.cutoff_hz': cutoff 0.005 Hz at TR 120.0 s "
                                 "is not below Nyquist"),
        "hrf_step_out_of_range": ([(8, 8, 6, 40)] * 2, [1e-4, 1e-4], 3, "data error: HRF step "),
        "shorter_than_the_task": ([(8, 8, 6, 10)] * 2, [3.0, 3.0], 3,
                                  "10 volumes at TR 3.0 s cover 30.0 s, short of the 90.0 s run"),
    }

    @pytest.mark.parametrize("mismatch", sorted(MISMATCHED_RUNS))
    @pytest.mark.parametrize("command, extra", [
        ("analyze", {"duration_mode": "concatenate"}),
        ("analyze", {"duration_mode": "average"}),
        ("duration-study", {}),
    ])
    def test_runs_that_differ_fail_before_preprocessing(self, tmp_path, capsys, monkeypatch,
                                                        mismatch, command, extra):
        shapes, trs, code, message = self.MISMATCHED_RUNS[mismatch]
        paths = []
        for r, (shape, tr) in enumerate(zip(shapes, trs)):
            paths.append(str(tmp_path / f"run-{r}.nii.gz"))
            write_nifti(make_volume(np.ones(shape), tr_seconds=tr), paths[-1])
        calls = []
        monkeypatch.setattr(pipeline, "preprocess_runs", lambda *args: calls.append(args))
        monkeypatch.setattr(pipeline, "read_nifti", refuse)  # the headers decide
        cfg = write_runs_config(tmp_path, paths, **extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert re.fullmatch(r"boldkit: (config|data) error: .+\n", err)
        assert message in err
        assert calls == []

    def test_header_fault_wins_over_an_earlier_runs_data_fault(self, tmp_path, capsys,
                                                               monkeypatch):
        # run 1's header reads but its gzip stream is cut short; run 2's
        # header gives other dims, which fails before any data is read
        rng = np.random.default_rng(0)
        paths = []
        for r, shape in enumerate([(8, 8, 6, 40), (8, 8, 5, 40)]):
            paths.append(str(tmp_path / f"run-{r}.nii.gz"))
            write_nifti(make_volume(rng.normal(100.0, 1.0, shape)), paths[-1])
        with open(paths[0], "rb") as fh:
            blob = fh.read()
        with open(paths[0], "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        monkeypatch.setattr(pipeline, "read_nifti", refuse)
        cfg = write_runs_config(tmp_path, paths, duration_mode="concatenate")
        assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "boldkit: data error: run dims (8, 8, 5, 40) != (8, 8, 6, 40)\n")

    def test_infinite_flag_value_rejected(self, tmp_path, capsys):
        out = tmp_path / "an"
        assert main(["analyze", "--config", write_config(tmp_path), "--fwhm", "inf",
                     "--out", str(out)]) == 2
        assert "config key 'preprocess.fwhm_mm': must be finite" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_contrast_weight_list_rejected(self):
        with pytest.raises(ConfigError, match=re.escape("config key 'glm.contrast'")):
            validate_config({"glm": {"contrast": [1, 0, 0, 0, 0]}})
