"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

Each workload builds its inputs from the seed before anything is timed;
the program receives only those inputs. ``execute`` is the timed
operation. ``outputs`` digests what one execution produced and ``check``
validates the first execution's outputs; both run outside the timed
region.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os

import numpy as np

from boldkit import pipeline
from boldkit.config import validate_config
from boldkit.preprocess import RigidMotion, rotation_matrix
from boldkit.volume_io import make_volume, read_nifti, write_nifti

RECALL_FLOOR = 0.9
MOTION_TOL_VOX = 0.1
MOTION_TOL_DEG = 0.5
VOXEL_MM = (3.3, 3.3, 4.8)
TR_S = 3.0

# Small phantom protocol for the harness self-test.
TINY_PHANTOM = {"dims": [12, 12, 10], "n_vols": 40}
TINY_TASK = {"onsets_s": [0.0, 30.0, 60.0, 90.0], "durations_s": [15.0] * 4,
             "run_length_s": 120.0}


def _digest_dir(path) -> dict:
    digests = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Workload:
    """One workload of one benchmark run, rooted in its own work directory."""

    name = ""
    command = None  # the boldkit.pipeline flow, for the CLI-backed workloads

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.out_dir = os.path.join(workdir, "out")
        self.extra = {}  # per-layer values only the workload can compute

    def raw_config(self) -> dict:
        raw = {"seed": self.seed, "output_dir": self.out_dir}
        if self.tiny:
            raw["phantom"] = dict(TINY_PHANTOM)
            raw["task"] = dict(TINY_TASK)
        return raw

    def prepare(self) -> str:
        """Build inputs; return the config file the set-up probe loads."""
        raw = self.raw_config()
        self.cfg = validate_config(raw)
        path = os.path.join(self.workdir, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        return path

    def execute(self):
        getattr(pipeline, self.command)(self.cfg)

    def outputs(self) -> dict:
        return _digest_dir(self.out_dir)

    def check(self) -> list:
        return []


class AnalyzeDefault(Workload):
    """``run_analyze`` at the default config; phantom generation dominates."""

    name = "analyze-default"
    command = "run_analyze"

    def check(self) -> list:
        mask_path = os.path.join(self.out_dir, "rejection_mask.nii.gz")
        rejected = read_nifti(mask_path).data[..., 0] > 0.5
        spec, _ = pipeline.phantom_pieces(self.cfg)
        problems = []
        for roi, mask in spec.target_rois.items():
            recall = (rejected & mask).sum() / mask.sum()
            if recall < RECALL_FLOOR:
                problems.append(f"ROI {roi}: recall {recall:.3f} < {RECALL_FLOOR}")
        return problems


def _hrf_regressor(onsets_s, duration_s, n_vols, tr_s, oversample=16):
    """Double-gamma response to a block paradigm, unit peak, sampled per TR.

    The benchmark's own copy, so a change to boldkit's design code cannot
    change this workload's input.
    """
    dt = tr_s / oversample
    t = np.arange(n_vols * oversample) * dt
    box = np.zeros_like(t)
    for onset in onsets_s:
        box[(t >= onset) & (t < onset + duration_s)] = 1.0
    k = np.arange(0.0, 32.0, dt)
    hrf = k**5 * np.exp(-k) / math.gamma(6) - k**15 * np.exp(-k) / (6 * math.gamma(16))
    response = np.convolve(box, hrf)[: t.size][::oversample]
    return response / response.max()


class DurationRealistic(Workload):
    """``run_duration_study`` on two gzip NIfTI runs at a 0.55 T matrix.

    Inputs: seeded white noise around a 1000 baseline (sigma 20) plus a
    one-sigma block response in a 12 mm sphere. Each run is written
    uncompressed with ``write_nifti`` and gzipped here at a fixed level,
    so a change to ``write_nifti``'s compression cannot change the input.
    """

    name = "duration-realistic"
    command = "run_duration_study"
    DIMS = (64, 64, 30)
    TINY_DIMS = (20, 20, 12)
    N_VOLS = 100
    NOISE_SIGMA = 20.0
    RADIUS_MM = 12.0
    GZIP_LEVEL = 1

    def raw_config(self) -> dict:
        return {"seed": self.seed, "output_dir": self.out_dir, "runs": self.run_paths}

    def prepare(self) -> str:
        dims = self.TINY_DIMS if self.tiny else self.DIMS
        rng = np.random.default_rng(self.seed)
        voxel = np.asarray(VOXEL_MM)
        grid = np.stack(np.meshgrid(*[np.arange(d) for d in dims], indexing="ij"), -1) * voxel
        margin = self.RADIUS_MM + voxel
        center = rng.uniform(margin, np.asarray(dims) * voxel - margin)
        self.roi = ((grid - center) ** 2).sum(-1) <= self.RADIUS_MM**2
        del grid
        task = pipeline.PipelineConfig().task
        signal = self.NOISE_SIGMA * _hrf_regressor(task["onsets_s"], task["durations_s"][0],
                                                   self.N_VOLS, TR_S)
        self.run_paths = []
        for r in range(2):
            data = rng.standard_normal(dims + (self.N_VOLS,))
            data *= self.NOISE_SIGMA
            data += 1000.0
            data[self.roi] += signal
            plain = os.path.join(self.workdir, f"run-{r + 1:02d}.nii")
            write_nifti(make_volume(data, voxel_size_mm=VOXEL_MM, tr_seconds=TR_S), plain)
            del data
            with open(plain, "rb") as fh:
                blob = fh.read()
            os.remove(plain)
            with open(plain + ".gz", "wb") as fh:
                fh.write(gzip.compress(blob, compresslevel=self.GZIP_LEVEL, mtime=0))
            self.run_paths.append(plain + ".gz")
        self.concatenated_rejected = None
        return super().prepare()

    def execute(self):
        if self.concatenated_rejected is not None:
            return super().execute()
        # First execution only: keep the concatenated condition's rejection
        # mask, which no output file holds, for the recall check.
        analyze = pipeline.analyze_volume

        def capture(vol, design, cfg):
            result = analyze(vol, design, cfg)
            if vol.n_vols == 2 * self.N_VOLS:
                self.concatenated_rejected = result.rejected.copy()
            return result

        pipeline.analyze_volume = capture
        try:
            super().execute()
        finally:
            pipeline.analyze_volume = analyze

    def check(self) -> list:
        with open(os.path.join(self.out_dir, "robustness.json")) as fh:
            report = json.load(fh)
        rows = report["rows"]
        problems = []
        conditions = {row["condition"] for row in rows}
        rois = {row["roi"] for row in rows}
        if len(rows) != 12 or len(conditions) != 3 or len(rois) != 4:
            problems.append(f"{len(rows)} rows over {len(conditions)} conditions and "
                            f"{len(rois)} ROIs, expected 3 x 4")
        if not all(math.isfinite(row[key]) for row in rows for key in ("lsd", "tv", "peak_r")):
            problems.append("robustness table has non-finite entries")
        if self.concatenated_rejected is None:
            problems.append("concatenated rejection mask was not captured")
        else:
            recall = (self.concatenated_rejected & self.roi).sum() / self.roi.sum()
            if recall < RECALL_FLOOR:
                problems.append(f"injected ROI recall {recall:.3f} < {RECALL_FLOOR}")
        return problems


class MotionRealign(Workload):
    """``estimate_motion`` + ``apply_motion`` on a smooth-blob series.

    Volume 0 is the reference; each further volume is the same analytic
    field under a known rigid motion of at most 2 voxels / 2 degrees,
    plus noise at 1% of the mean intensity.
    """

    name = "motion-realign"
    DIMS = (24, 24, 21)
    TINY_DIMS = (20, 20, 16)  # acceptance 6 geometry; smaller fields miss 0.5 deg
    MOVED = 14
    N_BLOBS = 10

    def raw_config(self) -> dict:
        raw = super().raw_config()
        raw["preprocess"] = {"motion_correction": True}
        return raw

    def prepare(self) -> str:
        dims = np.asarray(self.TINY_DIMS if self.tiny else self.DIMS)
        moved = 1 if self.tiny else self.MOVED
        rng = np.random.default_rng(self.seed)
        voxel = np.asarray(VOXEL_MM)
        blobs = [(rng.uniform(0.5, 2.0), rng.uniform(3.5, dims - 3.5) * voxel,
                  rng.uniform(9.0, 18.0)) for _ in range(self.N_BLOBS)]

        def field(points):
            value = np.zeros(points.shape[:-1])
            for amplitude, center, width in blobs:
                value += amplitude * np.exp(-((points - center) ** 2).sum(-1) / (2 * width**2))
            return value

        grid = np.stack(np.meshgrid(*[np.arange(d, dtype=float) for d in dims],
                                    indexing="ij"), -1) * voxel
        center = (dims - 1) / 2 * voxel
        volumes = [field(grid)]
        self.truth = [np.zeros(6)]
        for _ in range(moved):
            true = np.concatenate([rng.uniform(-2.0, 2.0, 3) * voxel,
                                   np.deg2rad(rng.uniform(-2.0, 2.0, 3))])
            motion = RigidMotion.from_params(true)
            inverse = np.linalg.inv(rotation_matrix(motion.rotation_rad))
            volumes.append(field((grid - center) @ inverse.T + center
                                 - inverse @ motion.translation_mm))
            self.truth.append(true)
        data = np.stack(volumes, axis=-1)
        data += rng.normal(0.0, 0.01 * data.mean(), data.shape)
        self.volume = make_volume(data, voxel_size_mm=VOXEL_MM, tr_seconds=TR_S)
        return super().prepare()

    def execute(self):
        motion = pipeline.estimate_motion(self.volume)
        self.result = (motion, pipeline.apply_motion(self.volume, motion))

    def outputs(self) -> dict:
        motion, realigned = self.result
        params = np.stack([m.params for m in motion])
        return {"params": hashlib.sha256(params.tobytes()).hexdigest(),
                "realigned": hashlib.sha256(realigned.data.tobytes()).hexdigest()}

    def check(self) -> list:
        voxel = np.asarray(VOXEL_MM)
        motion, _ = self.result
        err_vox = max(np.abs((m.translation_mm - t[:3]) / voxel).max()
                      for m, t in zip(motion, self.truth))
        err_deg = max(np.abs(np.rad2deg(m.rotation_rad - t[3:])).max()
                      for m, t in zip(motion, self.truth))
        self.extra = {"err_vox": float(err_vox), "err_deg": float(err_deg)}
        if err_vox > MOTION_TOL_VOX or err_deg > MOTION_TOL_DEG:
            return [f"motion error {err_vox:.4f} voxel / {err_deg:.4f} deg exceeds "
                    f"{MOTION_TOL_VOX} / {MOTION_TOL_DEG}"]
        return []


WORKLOADS = {w.name: w for w in (AnalyzeDefault, DurationRealistic, MotionRealign)}
