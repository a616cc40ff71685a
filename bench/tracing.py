"""Outside-in span recorder for the benchmark's traced run.

``boldkit.pipeline`` binds the layer functions at import time
(``from .phantom import generate_phantom`` and so on), so the recorder
replaces those names in the pipeline module's namespace, not in their
home modules. Every call through a replaced name records a span (name,
start, end, parent) in memory plus a few work counters computed from the
call's arguments and result. Nothing under ``src/`` is changed.

A span's self time is its duration minus the time covered by its child
spans; the harness opens one root span per traced execution, so the self
times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from boldkit import pipeline
from boldkit.volume_io import DTYPE_CODES, VOX_OFFSET

ROOT_SPAN = "pipeline.self"


def _phantom_work(args, result):
    return {"voxel_samples": result[0].data.size}


def _write_work(args, result):
    vol, path = args[0], args[1]
    return {"raw_bytes": VOX_OFFSET + 4 * vol.data.size, "disk_bytes": os.path.getsize(path)}


def _read_work(args, result):
    itemsize = np.dtype(DTYPE_CODES[result.header.datatype_code]).itemsize
    return {"raw_bytes": result.data.size * itemsize}


def _smooth_work(args, result):
    # computed: a copy, three axis convolutions and the renormalisation each
    # read and write the whole float64 array once
    return {"bytes": 10 * args[0].data.nbytes}


def _motion_work(args, result):
    return {"volumes": len(result) - 1}


def _glm_work(args, result):
    n, v = np.shape(args[0])
    p, r = args[1].n_cols, result.rank
    # computed: U'Y, V(.), X beta, residual and Y'Y sums of squares
    return {"flops": 2 * n * r * v + 2 * p * r * v + 2 * n * p * v + 5 * n * v}


def _cluster_work(args, result):
    return {"clusters": len(result)}


# (module, function, work counter); each is wrapped as boldkit.pipeline.<function>
LAYERS = (
    ("phantom", "generate_phantom", _phantom_work),
    ("volume_io", "read_nifti", _read_work),
    ("volume_io", "write_nifti", _write_work),
    ("preprocess", "slice_timing_correct", None),
    ("preprocess", "estimate_motion", _motion_work),
    ("preprocess", "apply_motion", None),
    ("preprocess", "gaussian_smooth", _smooth_work),
    ("duration", "single_run_design", None),
    ("duration", "concatenate_runs", None),
    ("duration", "average_runs", None),
    ("duration", "local_standard_deviation", None),
    ("duration", "total_variation", None),
    ("duration", "non_target_rois", None),
    ("glm", "fit_glm", _glm_work),
    ("glm", "t_contrast", None),
    ("glm", "correlation_map", None),
    ("inference", "fdr_bh", None),
    ("inference", "extract_clusters", _cluster_work),
    ("pipeline", "analyze_volume", None),
)
MODULES = tuple(dict.fromkeys(module for module, _, _ in LAYERS))


class SpanRecorder:
    """In-memory spans of the traced executions of one benchmark run."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent (index or None), work
        self._stack = []
        self._originals = {}
        self.executions = 0

    def _record(self, name, fn, work, args, kwargs):
        index = len(self.spans)
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._stack[-1] if self._stack else None, "work": {}}
        self.spans.append(span)
        self._stack.append(index)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
        if work is not None:
            span["work"] = work(args, result)
        return result

    def install(self):
        """Replace every layer name in boldkit.pipeline with a recording wrapper."""
        for module, function, work in LAYERS:
            original = getattr(pipeline, function)
            self._originals[function] = original

            def wrapper(*args, _fn=original, _name=f"{module}.{function}", _work=work, **kwargs):
                return self._record(_name, _fn, _work, args, kwargs)

            setattr(pipeline, function, functools.wraps(original)(wrapper))

    def uninstall(self):
        for function, original in self._originals.items():
            setattr(pipeline, function, original)
        self._originals.clear()

    def run(self, operation):
        """One traced execution under the root span."""
        self.executions += 1
        return self._record(ROOT_SPAN, operation, None, (), {})

    def self_times(self) -> dict:
        totals = defaultdict(float)
        for span in self.spans:
            totals[span["name"]] += span["end"] - span["start"]
        for span in self.spans:
            if span["parent"] is not None:
                totals[self.spans[span["parent"]]["name"]] -= span["end"] - span["start"]
        return totals

    def layer_metrics(self, extra: dict) -> dict:
        """Per-layer values per traced execution; layers never called read 0.

        extra supplies values only the workload knows, such as motion
        estimation error against its injected truth.
        """
        n = self.executions
        self_s = self.self_times()
        calls = defaultdict(int)
        work = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            calls[span["name"]] += 1
            for key, value in span["work"].items():
                work[span["name"]][key] += value

        def rate(name, key, scale):
            seconds = self_s.get(name, 0.0)
            return work[name][key] / scale / seconds if seconds > 0 else 0.0

        out = {}
        for module, function, _ in LAYERS:
            name = f"{module}.{function}"
            out[f"{name}.s"] = self_s.get(name, 0.0) / n
            out[f"{name}.calls"] = calls[name] / n
        out["phantom.generate_phantom.mvox_per_s"] = rate("phantom.generate_phantom",
                                                          "voxel_samples", 1e6)
        out["volume_io.write_nifti.mb_per_s"] = rate("volume_io.write_nifti", "raw_bytes", 1e6)
        written = work["volume_io.write_nifti"]
        out["volume_io.write_nifti.ratio"] = (written["disk_bytes"] / written["raw_bytes"]
                                              if written["raw_bytes"] else 0.0)
        out["volume_io.read_nifti.mb_per_s"] = rate("volume_io.read_nifti", "raw_bytes", 1e6)
        out["preprocess.gaussian_smooth.gb_per_s"] = rate("preprocess.gaussian_smooth",
                                                          "bytes", 1e9)
        volumes = work["preprocess.estimate_motion"]["volumes"]
        out["preprocess.estimate_motion.s_per_vol"] = (
            self_s.get("preprocess.estimate_motion", 0.0) / volumes if volumes else 0.0)
        out["preprocess.estimate_motion.err_vox"] = extra.get("err_vox", 0.0)
        out["preprocess.estimate_motion.err_deg"] = extra.get("err_deg", 0.0)
        out["glm.fit_glm.gflop_per_s"] = rate("glm.fit_glm", "flops", 1e9)
        out["inference.extract_clusters.clusters"] = (
            work["inference.extract_clusters"]["clusters"] / n)
        out[f"{ROOT_SPAN}.s"] = self_s.get(ROOT_SPAN, 0.0) / n
        for module in MODULES:
            out[f"{module}.s"] = sum(seconds for name, seconds in self_s.items()
                                     if name.split(".")[0] == module) / n
        return out

    def dump(self) -> list:
        """Spans with times relative to the first span's start."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return [dict(span, start=span["start"] - origin, end=span["end"] - origin)
                for span in self.spans]
