"""Pipeline configuration: JSON file plus flag overrides (flags win).

The file is plain JSON (RFC 8259): an object of nested key/value
sections. Every key is validated; unknown keys and out-of-range values
raise ConfigError naming the offending key. A manifest written by a
previous run is also accepted anywhere a config is (its embedded
``config`` object is used), which makes reruns reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError

DURATION_MODES = ("single", "concatenate", "average")
SLICE_ORDER_NAMES = ("interleaved", "sequential")

_DEFAULT_TASK = {
    "onsets_s": [0.0, 60.0, 120.0, 180.0, 240.0],
    "durations_s": [30.0, 30.0, 30.0, 30.0, 30.0],
    "run_length_s": 300.0,
}

_DEFAULT_PHANTOM = {
    "dims": [24, 24, 21],
    "voxel_size_mm": [3.3, 3.3, 4.8],
    "cnr": 10.75,
    "noise_sigma": 20.0,
    "ar1_rho": 0.3,
    "drift_amplitude": 10.0,
    "field_tesla": 0.55,
    "n_runs": 2,
    "n_vols": 100,
    "tr_s": 3.0,
    "te_ms": 85.0,
}

_DEFAULT_PREPROCESS = {
    "slice_timing": True,
    "slice_order": "interleaved",
    "reference_fraction": 0.5,
    "motion_correction": False,
    "fwhm_mm": 8.0,
}

_DEFAULT_GLM = {
    "cutoff_hz": 0.005,
    "contrast": "task",
    "two_sided": False,
}

_DEFAULT_INFERENCE = {
    "q": 0.05,
    "connectivity": 26,
}


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass
class PipelineConfig:
    """Validated, fully-defaulted parameters for one pipeline invocation.

    threads bounds how many input files are read at once and how many
    volumes motion correction registers at once. It cannot change
    results, so as_dict (and with it the manifest) leaves it out.
    """

    seed: int = 0
    output_dir: str = "boldkit-out"
    threads: int = field(default_factory=usable_cpus)
    phantom: dict = None
    runs: list = None
    task: dict = field(default_factory=lambda: dict(_DEFAULT_TASK))
    preprocess: dict = field(default_factory=lambda: dict(_DEFAULT_PREPROCESS))
    glm: dict = field(default_factory=lambda: dict(_DEFAULT_GLM))
    inference: dict = field(default_factory=lambda: dict(_DEFAULT_INFERENCE))
    duration_mode: str = "single"

    def uses_phantom(self) -> bool:
        return self.runs is None

    def as_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "task": self.task,
            "preprocess": self.preprocess,
            "glm": self.glm,
            "inference": self.inference,
            "duration_mode": self.duration_mode,
        }
        if self.runs is not None:
            out["runs"] = self.runs
        else:
            out["phantom"] = self.phantom
        return out


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(f"config key '{key}': {message}")


def _merge_section(defaults: dict, given, section: str) -> dict:
    merged = dict(defaults)
    if given is None:
        return merged
    _require(isinstance(given, dict), section, "must be an object")
    for key, value in given.items():
        _require(key in defaults, f"{section}.{key}", "unknown key")
        merged[key] = value
    return merged


def _check_number(value, key, low=None, high=None, integer=False):
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    _require(ok, key, f"must be a number, got {value!r}")
    if integer:
        _require(float(value).is_integer(), key, f"must be an integer, got {value!r}")
    if low is not None:
        _require(value >= low, key, f"must be >= {low}, got {value}")
    if high is not None:
        _require(value <= high, key, f"must be <= {high}, got {value}")


def validate_config(raw: dict) -> PipelineConfig:
    """Build a PipelineConfig from a raw dict, applying defaults."""
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    known = {"seed", "output_dir", "threads", "phantom", "runs", "task",
             "preprocess", "glm", "inference", "duration_mode"}
    for key in raw:
        _require(key in known, key, "unknown key")

    _require(not ("phantom" in raw and "runs" in raw), "runs",
             "give either 'phantom' or 'runs', not both")

    cfg = PipelineConfig()

    seed = raw.get("seed", 0)
    _check_number(seed, "seed", low=0, integer=True)
    _require(int(seed) < 2**64, "seed", "must fit in 64 bits")
    cfg.seed = int(seed)

    out_dir = raw.get("output_dir", cfg.output_dir)
    _require(isinstance(out_dir, str) and out_dir, "output_dir", "must be a non-empty string")
    cfg.output_dir = out_dir

    if "threads" in raw:
        _check_number(raw["threads"], "threads", low=1, integer=True)
        cfg.threads = int(raw["threads"])

    if "runs" in raw:
        runs = raw["runs"]
        _require(isinstance(runs, list) and runs, "runs", "must be a non-empty list of paths")
        _require(all(isinstance(p, str) for p in runs), "runs", "entries must be strings")
        cfg.runs = list(runs)
        cfg.phantom = None
    else:
        phantom = _merge_section(_DEFAULT_PHANTOM, raw.get("phantom"), "phantom")
        dims = phantom["dims"]
        _require(isinstance(dims, list) and len(dims) == 3, "phantom.dims",
                 "must be three integers")
        for d in dims:
            _check_number(d, "phantom.dims", low=1, integer=True)
        voxel = phantom["voxel_size_mm"]
        _require(isinstance(voxel, list) and len(voxel) == 3, "phantom.voxel_size_mm",
                 "must be three positive numbers")
        for v in voxel:
            _check_number(v, "phantom.voxel_size_mm", low=1e-6)
        _check_number(phantom["cnr"], "phantom.cnr", low=0)
        _check_number(phantom["noise_sigma"], "phantom.noise_sigma", low=1e-12)
        _check_number(phantom["ar1_rho"], "phantom.ar1_rho", low=0)
        _require(phantom["ar1_rho"] < 1, "phantom.ar1_rho", "must be below 1")
        _check_number(phantom["drift_amplitude"], "phantom.drift_amplitude", low=0)
        _check_number(phantom["field_tesla"], "phantom.field_tesla", low=1e-6)
        _check_number(phantom["n_runs"], "phantom.n_runs", low=1, integer=True)
        _check_number(phantom["n_vols"], "phantom.n_vols", low=4, integer=True)
        _check_number(phantom["tr_s"], "phantom.tr_s", low=1e-6)
        _check_number(phantom["te_ms"], "phantom.te_ms", low=0)
        cfg.phantom = phantom
        cfg.runs = None

    task = _merge_section(_DEFAULT_TASK, raw.get("task"), "task")
    for key in ("onsets_s", "durations_s"):
        _require(isinstance(task[key], list), f"task.{key}", "must be a list of numbers")
        for v in task[key]:
            _check_number(v, f"task.{key}", low=0)
    _check_number(task["run_length_s"], "task.run_length_s", low=1e-6)
    _require(len(task["onsets_s"]) == len(task["durations_s"]), "task.durations_s",
             "must match onsets_s in length")
    cfg.task = task

    pre = _merge_section(_DEFAULT_PREPROCESS, raw.get("preprocess"), "preprocess")
    _require(isinstance(pre["slice_timing"], bool), "preprocess.slice_timing", "must be a boolean")
    _require(pre["slice_order"] in SLICE_ORDER_NAMES, "preprocess.slice_order",
             f"must be one of {SLICE_ORDER_NAMES}")
    _check_number(pre["reference_fraction"], "preprocess.reference_fraction", low=0, high=1)
    _require(isinstance(pre["motion_correction"], bool), "preprocess.motion_correction",
             "must be a boolean")
    _check_number(pre["fwhm_mm"], "preprocess.fwhm_mm", low=0)
    cfg.preprocess = pre

    glm = _merge_section(_DEFAULT_GLM, raw.get("glm"), "glm")
    _check_number(glm["cutoff_hz"], "glm.cutoff_hz", low=1e-9)
    contrast = glm["contrast"]
    if isinstance(contrast, str):
        _require(contrast == "task", "glm.contrast", "string form must be 'task'")
    else:
        _require(isinstance(contrast, list) and contrast, "glm.contrast",
                 "must be 'task' or a list of weights")
        for v in contrast:
            _check_number(v, "glm.contrast")
    _require(isinstance(glm["two_sided"], bool), "glm.two_sided", "must be a boolean")
    cfg.glm = glm

    inf = _merge_section(_DEFAULT_INFERENCE, raw.get("inference"), "inference")
    _check_number(inf["q"], "inference.q", low=0, high=1)
    _require(0 < inf["q"] < 1, "inference.q", "must lie strictly inside (0, 1)")
    _require(inf["connectivity"] in (6, 18, 26), "inference.connectivity",
             "must be 6, 18, or 26")
    cfg.inference = inf

    mode = raw.get("duration_mode", "single")
    _require(mode in DURATION_MODES, "duration_mode", f"must be one of {DURATION_MODES}")
    cfg.duration_mode = mode

    return cfg


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Load and validate a config file, then apply flag overrides.

    path may be a config file or a manifest from a previous run. With no
    path, built-in defaults apply (a two-run phantom simulation).
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if isinstance(raw, dict) and "config" in raw and "boldkit_version" in raw:
            raw = raw["config"]

    if overrides:
        raw = _apply_overrides(raw, overrides)
    return validate_config(raw)


def _apply_overrides(raw: dict, overrides: dict) -> dict:
    """Flags override file values; keys use dotted section paths."""
    raw = json.loads(json.dumps(raw))  # deep copy, keeps input dict intact
    for dotted, value in overrides.items():
        if value is None:
            continue
        node = raw
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"config key '{dotted}': cannot override non-object")
        node[parts[-1]] = value
    return raw
