"""Pipeline configuration: JSON file plus flag overrides (flags win).

The file is plain JSON (RFC 8259): an object of nested key/value
sections. Every key is validated; unknown keys and out-of-range values
raise ConfigError naming the offending key. A manifest written by a
previous run is also accepted anywhere a config is (its embedded
``config`` object is used), which makes reruns reproducible.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from dataclasses import asdict, dataclass, field

from .duration import CONDITIONS
from .errors import ConfigError, OutOfRangeError
from .inference import CONNECTIVITIES
from .task_design import (DEFAULT_OVERSAMPLE, BlockDesign, check_cutoff, check_hrf_step,
                          check_run_window)
from .volume_io import FLOAT32_MAX, MAX_DIM

DURATION_MODES = tuple(mode for mode, _ in CONDITIONS)
SLICE_ORDER_NAMES = ("interleaved", "sequential")


def _require(condition: bool, key: str, message: str):
    if not condition:
        raise ConfigError(f"config key '{key}': {message}")


def _is(predicate, message: str):
    """Check that predicate(value) holds."""
    return lambda key, value: _require(predicate(value), key, message)


def _all(*checks):
    """Every check in turn; the first that fails raises."""
    def check(key, value):
        for one in checks:
            one(key, value)
    return check


def _number(low=None, high=None, integer=False):
    """Check for a finite int or float (not a bool) within [low, high]."""
    def check(key, value):
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        _require(ok, key, f"must be a number, got {value!r}")
        # json reads Infinity and NaN (not RFC 8259); an int past float range fails too
        _require(abs(value) <= sys.float_info.max, key, f"must be finite, got {value!r}")
        if integer:
            _require(float(value).is_integer(), key, f"must be an integer, got {value!r}")
        if low is not None:
            _require(value >= low, key, f"must be >= {low}, got {value}")
        if high is not None:
            _require(value <= high, key, f"must be <= {high}, got {value}")
    return check


def _items(item, message: str, fits=lambda items: True):
    """Check for a list that fits, each entry passing item."""
    def check(key, value):
        _require(isinstance(value, list) and fits(value), key, message)
        for entry in value:
            item(key, entry)
    return check


def _three(item, message: str):
    return _items(item, message, lambda items: len(items) == 3)


_BOOLEAN = _is(lambda v: isinstance(v, bool), "must be a boolean")
_PATH = "string naming a path: no NUL, and encodable by os.fsencode"


def _nameable(path) -> bool:
    """Whether path is a string the OS can name a file by: os.fsencode
    encodes it, and it holds no NUL."""
    try:
        return isinstance(path, str) and b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


def _hrf_sampled(key, tr_s):
    """Check that a task regressor can be built at TR tr_s."""
    try:
        check_hrf_step(tr_s / DEFAULT_OVERSAMPLE)
    except OutOfRangeError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from exc


# Every config key, in validation order. A root key maps to its check
# (its default is the PipelineConfig field); a section maps each of its
# keys to (default, check).
SCHEMA = {
    "seed": _all(_number(low=0, integer=True),
                 _is(lambda v: int(v) < 2**64, "must fit in 64 bits")),
    "output_dir": _is(lambda v: v and _nameable(v), f"must be a non-empty {_PATH}"),
    "threads": _number(low=1, integer=True),
    "runs": _all(_is(lambda v: isinstance(v, list) and v, "must be a non-empty list of paths"),
                 _is(lambda v: all(map(_nameable, v)), f"entries must each be a {_PATH}")),
    "phantom": {
        "dims": ([24, 24, 21], _three(_number(low=1, high=MAX_DIM, integer=True),
                                      "must be three integers")),
        "voxel_size_mm": ([3.3, 3.3, 4.8],
                          _three(_number(low=1e-6, high=FLOAT32_MAX),
                                 "must be three positive numbers")),
        "cnr": (10.75, _number(low=0)),
        "noise_sigma": (20.0, _number(low=1e-12)),
        "ar1_rho": (0.3, _all(_number(low=0), _is(lambda v: v < 1, "must be below 1"))),
        "drift_amplitude": (10.0, _number(low=0)),
        "field_tesla": (0.55, _number(low=1e-6)),
        "n_runs": (2, _number(low=1, integer=True)),
        "n_vols": (100, _number(low=4, high=MAX_DIM, integer=True)),
        "tr_s": (3.0, _all(_number(low=1e-6), _hrf_sampled)),
        "te_ms": (85.0, _number(low=0)),
    },
    "task": {
        "onsets_s": ([0.0, 60.0, 120.0, 180.0, 240.0],
                     _items(_number(low=0), "must be a non-empty list of numbers",
                            lambda items: len(items) > 0)),
        "durations_s": ([30.0, 30.0, 30.0, 30.0, 30.0],
                        _items(_number(low=0), "must be a list of numbers")),
        "run_length_s": (300.0, _number(low=1e-6)),
    },
    "preprocess": {
        "slice_timing": (True, _BOOLEAN),
        "slice_order": ("interleaved", _is(lambda v: v in SLICE_ORDER_NAMES,
                                           f"must be one of {SLICE_ORDER_NAMES}")),
        "reference_fraction": (0.5, _number(low=0, high=1)),
        "motion_correction": (False, _BOOLEAN),
        "fwhm_mm": (8.0, _number(low=0)),
    },
    "glm": {
        "cutoff_hz": (0.005, _number(low=1e-9)),
        "contrast": ("task", _is(lambda v: v == "task", "must be 'task'")),
        "two_sided": (False, _BOOLEAN),
    },
    "inference": {
        "q": (0.05, _all(_number(low=0, high=1),
                         _is(lambda v: 0 < v < 1, "must lie strictly inside (0, 1)"))),
        "connectivity": (26, _is(lambda v: v in CONNECTIVITIES,
                                 f"must be one of {CONNECTIVITIES}")),
    },
    "duration_mode": _is(lambda v: v in DURATION_MODES, f"must be one of {DURATION_MODES}"),
}


def _defaults(section: str):
    """dataclass field holding a fresh copy of a section's defaults."""
    return field(default_factory=lambda: copy.deepcopy(
        {key: default for key, (default, _) in SCHEMA[section].items()}))


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
    phantom: dict = _defaults("phantom")
    runs: list = None
    task: dict = _defaults("task")
    preprocess: dict = _defaults("preprocess")
    glm: dict = _defaults("glm")
    inference: dict = _defaults("inference")
    duration_mode: str = "single"

    def uses_phantom(self) -> bool:
        return self.runs is None

    def as_dict(self) -> dict:
        out = asdict(self)
        del out["threads"], out["phantom" if self.runs is not None else "runs"]
        return out


def validate_config(raw: dict) -> PipelineConfig:
    """Build a PipelineConfig from a raw dict, applying defaults."""
    _require(isinstance(raw, dict), "<root>", "config must be a JSON object")
    for key in raw:
        _require(key in SCHEMA, key, "unknown key")
    _require(not ("phantom" in raw and "runs" in raw), "runs",
             "give either 'phantom' or 'runs', not both")

    cfg = PipelineConfig()
    for name, entry in SCHEMA.items():
        if callable(entry):  # a root key
            if name in raw:
                entry(name, raw[name])
                setattr(cfg, name, raw[name])
            continue
        if name == "phantom" and "runs" in raw:
            cfg.phantom = None
            continue
        section = getattr(cfg, name)
        if name in raw:  # null included: a section that is given is an object
            _require(isinstance(raw[name], dict), name, "must be an object")
            for key, value in raw[name].items():
                _require(key in entry, f"{name}.{key}", "unknown key")
                section[key] = value
        for key, (_, check) in entry.items():
            check(f"{name}.{key}", section[key])
        if name == "task":
            _require(len(section["onsets_s"]) == len(section["durations_s"]),
                     "task.durations_s", "must match onsets_s in length")
            try:  # BlockDesign states the paradigm's rules
                design = BlockDesign(section["onsets_s"], section["durations_s"],
                                     section["run_length_s"])
            except ValueError as exc:
                raise ConfigError(f"config key 'task': {exc}") from exc

    if cfg.phantom is not None:  # phantom runs must cover the task and carry the cutoff
        tr_s = float(cfg.phantom["tr_s"])
        try:
            check_run_window(design, tr_s, int(cfg.phantom["n_vols"]))
        except OutOfRangeError as exc:
            raise ConfigError(f"config key 'phantom.n_vols': {exc}") from exc
        try:
            check_cutoff(tr_s, cfg.glm["cutoff_hz"])
        except ValueError as exc:
            raise ConfigError(f"config key 'glm.cutoff_hz': {exc}") from exc

    cfg.seed, cfg.threads = int(cfg.seed), int(cfg.threads)
    if cfg.runs is not None:
        cfg.runs = list(cfg.runs)
    return cfg


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Load and validate a config file, then apply flag overrides.

    path may be a config file or a manifest from a previous run. With no
    path, built-in defaults apply (a two-run phantom simulation).
    """
    raw = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError (JSON is UTF-8)
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError(f"config file {path} nests too deeply to read") from exc
        if isinstance(raw, dict) and "config" in raw and "boldkit_version" in raw:
            raw = raw["config"]

    if overrides and isinstance(raw, dict):  # validate_config rejects any other root
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
