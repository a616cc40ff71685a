"""End-to-end pipeline flows behind the CLI commands.

Every flow is deterministic given (config, inputs, seed): no timestamps,
thread counts, or environment details leak into outputs, and gzip
streams are written with a pinned mtime.
"""

from __future__ import annotations

import csv
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .config import PipelineConfig
from .duration import (
    CONDITIONS,
    RobustnessRow,
    average_runs,  # not called by the flows; the benchmark's tracer wraps it by this name
    check_runs_match,
    concatenate_runs,  # not called by the flows; the benchmark's tracer wraps it by this name
    local_standard_deviation,
    non_target_rois,
    peak_correlation,
    single_run_design,
    total_variation,
)
from .errors import ConfigError, DataError
from .glm import (
    GlmFit,
    StatMaps,
    average_fit,
    concatenated_fit,
    correlation_from_fit,
    correlation_map,  # not called by the flows; the benchmark's tracer wraps it by this name
    fit_glm,  # not called by the flows; the benchmark's tracer wraps it by this name
    fit_runs,
    run_fit,
    t_contrast,
)
from .inference import CLUSTER_COLUMNS, cluster_table, extract_clusters, fdr_bh
from .phantom import AcquisitionParams, PhantomSpec, generate_phantom
from .preprocess import (
    apply_motion,
    estimate_motion,
    gaussian_smooth,
    interleaved_order,
    sequential_order,
    slice_timing_correct,
)
from .task_design import (
    DEFAULT_OVERSAMPLE,
    BlockDesign,
    LABEL_TASK,
    build_design_matrix,
    check_cutoff,
    check_hrf_step,
    check_run_window,
)
from .volume_io import (
    Volume4D,
    VolumeHeader,
    fold_voxels,
    read_nifti,
    read_nifti_header,
    voxel_series,
    write_nifti,
)

ADJUSTED_P_CEILING = 0.05


class OutputTracker:
    """Writes every output of a flow (maps, CSV and JSON tables, the
    manifest) and records each file's path; used as a context manager,
    it removes an old manifest.json on entry, and every file it recorded
    if the block raises: a failed run leaves no manifest."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self.files = []
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:  # a file, or under one
            raise ConfigError(f"config key 'output_dir': cannot create directory "
                              f"{self.out_dir}: {exc.strerror}") from exc

    def __enter__(self):
        self._remove(os.path.join(self.out_dir, "manifest.json"))
        return self

    def __exit__(self, exc_type, exc, traceback):
        if exc_type is not None:
            for path in self.files:
                try:
                    os.remove(path)
                except OSError:
                    pass

    def path(self, name: str) -> str:
        """Where to write output name. Whatever the name held is removed
        first, so the output is a new file: a symlink there is replaced,
        not written through, and no file is truncated and rewritten in
        place, which ext4 flushes to disk on close (tens of ms a file). A
        name that cannot be removed, such as a directory, is a data error."""
        full = os.path.join(self.out_dir, name)
        self._remove(full)
        self.files.append(full)
        return full

    @staticmethod
    def _remove(full: str) -> None:
        try:
            os.remove(full)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise DataError(f"cannot replace output {full}: {exc.strerror}") from exc

    def json(self, name: str, obj, sort_keys: bool = True) -> None:
        with open(self.path(name), "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=sort_keys)
            fh.write("\n")

    def csv(self, name: str, columns: list, rows) -> None:
        """A header of columns, then each dict row's values in column
        order: floats written with repr, every other value with str."""
        with open(self.path(name), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([repr(v) if isinstance(v, float) else str(v)
                              for v in map(row.__getitem__, columns)] for row in rows)

    def map(self, name: str, data3d: np.ndarray, geometry: VolumeHeader) -> None:
        """A 3-D map as a one-volume NIfTI with geometry's voxel size,
        TR and orientation."""
        header = replace(geometry, dims=data3d.shape + (1,))
        write_nifti(Volume4D(header=header, data=data3d[..., np.newaxis]), self.path(name))

    def manifest(self, command: str, cfg: PipelineConfig, summary: dict) -> None:
        """manifest.json, listing every file written before it."""
        self.json("manifest.json", {
            "boldkit_version": __version__,
            "command": command,
            "config": cfg.as_dict(),
            "outputs": [os.path.basename(f) for f in self.files],
            "summary": summary,
        })


def block_design_from_config(cfg: PipelineConfig) -> BlockDesign:
    task = cfg.task
    return BlockDesign(
        onsets_s=tuple(task["onsets_s"]),
        durations_s=tuple(task["durations_s"]),
        run_length_s=task["run_length_s"],
    )


def phantom_pieces(cfg: PipelineConfig):
    p = cfg.phantom
    spec = PhantomSpec(
        dims=tuple(p["dims"]),
        voxel_size_mm=tuple(p["voxel_size_mm"]),
        cnr=p["cnr"],
        noise_sigma=p["noise_sigma"],
        ar1_rho=p["ar1_rho"],
        drift_amplitude=p["drift_amplitude"],
        field_tesla=p["field_tesla"],
        seed=cfg.seed,
    )
    acq = AcquisitionParams(tr_s=p["tr_s"], n_vols=int(p["n_vols"]))
    return spec, acq


def load_runs(cfg: PipelineConfig, n_used: int | None = None):
    """(runs, block design, ground-truth ROI masks or None).

    Only the first n_used runs (all when None) are generated or read.
    Each phantom run draws from its own stream, so the runs kept do not
    depend on n_used; ROI masks come with the phantom source only. Every
    file run's header is parsed, so a missing or malformed file exits 3
    whichever runs the flow uses, but the data section of a run past
    n_used is never read: a fault there is not reported.

    The headers are read first, and those of the runs used must pass
    _check_runs before any data section is inflated, so a header fault
    in any run is reported before a data fault in another. Each run used
    is generated or read into an array of its own.

    Files are read by up to cfg.threads threads at once (decompression
    releases the GIL); the runs come back in config order, so results do
    not depend on the thread count. Phantom runs are generated one at a
    time, which bounds the generator's transient memory.
    """
    design = block_design_from_config(cfg)
    truth = None
    if cfg.uses_phantom():
        spec, acq = phantom_pieces(cfg)
        runs = []
        for r in range(int(cfg.phantom["n_runs"]))[:n_used]:
            vol, truth = generate_phantom(spec, acq, design, run_index=r)
            runs.append(vol)
    else:
        headers = [read_nifti_header(path) for path in cfg.runs]
        _check_runs(cfg, design, headers[:n_used])
        paths = cfg.runs[:n_used]
        with ThreadPoolExecutor(max_workers=min(cfg.threads, len(paths))) as pool:
            runs = list(pool.map(read_nifti, paths))
    return runs, design, truth


def _check_runs(cfg: PipelineConfig, design: BlockDesign, headers) -> None:
    """Fail unless runs with these headers can carry the design: they
    agree in dims, voxel size and TR (ShapeError), glm.cutoff_hz lies
    below their Nyquist frequency (ConfigError naming the key), their HRF
    step can be sampled (OutOfRangeError), and they cover the task
    (OutOfRangeError). validate_config checks phantom runs by these rules."""
    check_runs_match(headers)
    tr_s, n_vols = headers[0].tr_seconds, headers[0].dims[3]
    try:
        check_cutoff(tr_s, cfg.glm["cutoff_hz"])
    except ValueError as exc:
        raise ConfigError(f"config key 'glm.cutoff_hz': {exc}") from exc
    check_hrf_step(tr_s / DEFAULT_OVERSAMPLE)
    check_run_window(design, tr_s, n_vols)


def preprocess_runs(runs: list, cfg: PipelineConfig) -> None:
    """Preprocess every run of the list in place, stage by stage.

    Every stage writes into the run's own array (in_place=True), so no
    run is copied; runs[i] is rebound to each stage's Volume4D of it.
    """
    pre = cfg.preprocess
    for i in range(len(runs)):
        if pre["slice_timing"]:
            make_order = interleaved_order if pre["slice_order"] == "interleaved" else sequential_order
            order = make_order(runs[i].header.dims[2], pre["reference_fraction"])
            runs[i] = slice_timing_correct(runs[i], order, in_place=True)
        if pre["motion_correction"]:
            motion = estimate_motion(runs[i], threads=cfg.threads)
            runs[i] = apply_motion(runs[i], motion, in_place=True)
        if pre["fwhm_mm"] > 0:
            runs[i] = gaussian_smooth(runs[i], pre["fwhm_mm"], in_place=True)


@dataclass
class AnalysisResult:
    """The stat maps and inference products of one GLM analysis."""

    stats3d: StatMaps
    rejected: np.ndarray
    adjusted_p: np.ndarray
    p_threshold: float
    clusters: list


def analyze_volume(geometry: VolumeHeader, fit: GlmFit,
                   cfg: PipelineConfig) -> AnalysisResult:
    """Task contrast, FDR over the analysis mask, and cluster extraction.

    fit is a condition's GlmFit (``fit_conditions``), and geometry the
    header of its grid: the fit's voxels are geometry's in x-fastest
    order. The contrast is the design's task column. The analysis mask
    is every voxel that is not degenerate (no residual noise, a constant
    series included); degenerate voxels read t = z = 0 (``StatMaps``).
    """
    shape = geometry.spatial_dims
    design = fit.design
    task = design.columns_labeled(LABEL_TASK)[0]
    c = np.zeros(design.n_cols)
    c[task] = 1.0
    stats = t_contrast(fit, c, two_sided=cfg.glm["two_sided"])

    stats3d = replace(stats, t=fold_voxels(stats.t, shape), p=fold_voxels(stats.p, shape),
                      z=fold_voxels(stats.z, shape),
                      degenerate=fold_voxels(stats.degenerate, shape))
    mask = ~stats3d.degenerate

    fdr = fdr_bh(stats3d.p[mask], cfg.inference["q"])
    adjusted = np.ones(shape)
    adjusted[mask] = fdr.adjusted_p
    rejected = np.zeros(shape, dtype=bool)
    rejected[mask] = fdr.rejected

    clusters = extract_clusters(rejected, stats3d, cfg.inference["connectivity"])
    return AnalysisResult(
        stats3d=stats3d,
        rejected=rejected,
        adjusted_p=adjusted,
        p_threshold=fdr.p_threshold,
        clusters=clusters,
    )


def _run_name(number: int) -> str:
    return f"run-{number:02d}.nii.gz"


def _remove_stale_runs(out_dir: str) -> None:
    """Delete every run file and the truth.json an earlier simulate left
    in out_dir, so the directory holds only what the new simulate writes,
    and nothing of the earlier one if the new one fails. Only names
    simulate itself writes are touched."""
    for name in os.listdir(out_dir):
        match = re.fullmatch(r"run-(\d+)\.nii\.gz", name)
        stale = name == "truth.json" or (match and name == _run_name(int(match[1])))
        path = os.path.join(out_dir, name)
        if stale and os.path.isfile(path):
            os.remove(path)


def run_simulate(cfg: PipelineConfig) -> list:
    """Write phantom run volumes and the ground-truth sidecar."""
    if not cfg.uses_phantom():
        raise ConfigError("config key 'runs': simulate requires a phantom source")
    spec, acq = phantom_pieces(cfg)
    design = block_design_from_config(cfg)

    n_runs = int(cfg.phantom["n_runs"])
    with OutputTracker(cfg.output_dir) as out:
        _remove_stale_runs(out.out_dir)
        for r in range(n_runs):
            vol, truth = generate_phantom(spec, acq, design, run_index=r)
            write_nifti(vol, out.path(_run_name(r + 1)))
        out.json("truth.json", {
            "rois": {name: sorted(np.argwhere(mask).tolist()) for name, mask in truth.items()},
            "config": cfg.as_dict(),
        })
        out.manifest("simulate", cfg, {"n_runs": n_runs})
    return out.files


def fit_conditions(cfg: PipelineConfig, runs: list, design: BlockDesign, modes):
    """(VolumeHeader, GlmFit) of each duration condition in modes, in that
    order, from one fit of each run (``fit_runs``): no condition's series
    is built, and no run is read again.

    The runs share one length (``check_runs_match`` checks file runs;
    phantom runs all have ``phantom.n_vols``), so every run is fitted on
    one design, ``single_run_design``'s. single is run 1's own fit,
    concatenation is fitted on ``build_design_matrix``'s design for the
    runs (``concatenated_fit``) and averaging on the shared design
    (``average_fit``). The header gives each condition's grid: run 1's,
    with the runs' summed length for the concatenation.
    """
    cutoff_hz = cfg.glm["cutoff_hz"]
    header = runs[0].header
    lengths = [run.n_vols for run in runs]
    matrix = single_run_design(design, header.tr_seconds, header.n_vols, cutoff_hz)
    fits = fit_runs([voxel_series(run) for run in runs], matrix)
    for mode in modes:
        if mode == "single":
            yield header, run_fit(fits, 0)
        elif mode == "concatenate":
            yield replace(header, dims=header.spatial_dims + (sum(lengths),)), concatenated_fit(
                fits, build_design_matrix(design, header.tr_seconds, lengths, cutoff_hz))
        else:
            yield header, average_fit(fits)


def _check_run_count(cfg: PipelineConfig, fits, needed: str) -> None:
    """Fail before any run is generated or read when the flow cannot use
    the configured run count; the error names the key that set it."""
    if cfg.uses_phantom():
        key, count = "phantom.n_runs", int(cfg.phantom["n_runs"])
    else:
        key, count = "runs", len(cfg.runs)
    if not fits(count):
        raise ConfigError(f"config key '{key}': {needed}, got {count}")


def run_analyze(cfg: PipelineConfig) -> list:
    """Preprocess, fit, threshold, and report one analysis."""
    mode = cfg.duration_mode
    out = OutputTracker(cfg.output_dir)  # a bad output_dir fails before the work
    if mode != "single":
        _check_run_count(cfg, lambda n: n >= 2, f"duration mode '{mode}' needs at least two runs")
    # single mode analyses run 1 only: no other run's data is generated or read
    runs, design, _ = load_runs(cfg, n_used=1 if mode == "single" else None)
    preprocess_runs(runs, cfg)
    [(geometry, fit)] = fit_conditions(cfg, runs, design, [mode])
    result = analyze_volume(geometry, fit, cfg)

    with out:
        out.map("t_map.nii.gz", result.stats3d.t, geometry)
        out.map("z_map.nii.gz", result.stats3d.z, geometry)
        out.map("p_fdr_adjusted.nii.gz", np.minimum(result.adjusted_p, ADJUSTED_P_CEILING),
                geometry)
        out.map("rejection_mask.nii.gz", result.rejected, geometry)
        rows = cluster_table(result.clusters)
        out.csv("clusters.csv", CLUSTER_COLUMNS, rows)
        out.json("clusters.json", rows, sort_keys=False)  # keys in CLUSTER_COLUMNS order
        out.manifest("analyze", cfg, {
            "dof": result.stats3d.dof,
            "n_mask_voxels": int((~result.stats3d.degenerate).sum()),
            "n_rejected": int(result.rejected.sum()),
            "n_clusters": len(result.clusters),
            "n_degenerate": int(result.stats3d.degenerate.sum()),
            "p_threshold": result.p_threshold,
        })
    return out.files


def run_duration_study(cfg: PipelineConfig) -> list:
    """Single vs concatenated vs averaged comparison on a two-run set."""
    out = OutputTracker(cfg.output_dir)  # a bad output_dir fails before the work
    _check_run_count(cfg, lambda n: n == 2, "duration study needs exactly 2 runs")
    runs, design, truth = load_runs(cfg)
    preprocess_runs(runs, cfg)

    # every condition's fit comes from one fit of each run, one at a time;
    # r comes from each condition's fit, with no second pass over a series
    dims = runs[0].spatial_dims
    t_maps, r_maps, counts = {}, {}, {}
    conditions = fit_conditions(cfg, runs, design, [mode for mode, _ in CONDITIONS])
    for (mode, name), (geometry, fit) in zip(CONDITIONS, conditions):
        result = analyze_volume(geometry, fit, cfg)
        r = correlation_from_fit(fit, fit.design.columns_labeled(LABEL_TASK)[0])
        r_maps[name] = fold_voxels(r, dims)
        t_maps[name] = result.stats3d.t
        counts[name] = {"n_rejected": int(result.rejected.sum()),
                        "n_clusters": len(result.clusters)}
        if mode == "concatenate":
            concatenated_rejected = result.rejected
        del result, fit  # the fit's (P, V) beta is not kept through the next condition

    if truth is not None:
        targets = truth
        activation_mask = np.zeros(dims, dtype=bool)
        for mask in truth.values():
            activation_mask |= mask
    else:
        activation_mask = concatenated_rejected
        targets = {"activation": activation_mask} if activation_mask.any() else {}
    try:
        nontargets = non_target_rois(dims, activation_mask, seed=cfg.seed)
    except ValueError as exc:  # the volume is too small for them
        raise DataError(f"non-target ROIs do not fit in dims {dims}: {exc}") from exc

    rows = [RobustnessRow(condition=condition, roi=roi_name,
                          lsd=local_standard_deviation(t_maps[condition], roi),
                          tv=total_variation(t_maps[condition], roi),
                          peak_r=peak_correlation(r_maps[condition], roi))
            for _, condition in CONDITIONS
            for roi_name, roi in list(targets.items()) + list(nontargets.items())]

    with out:
        out.json("robustness.json", {
            "conditions": [condition for _, condition in CONDITIONS],
            "target_rois": sorted(targets),
            "non_target_rois": sorted(nontargets),
            "rows": [asdict(row) for row in rows],
        })
        out.csv("comparison.csv", ["condition", "roi", "lsd", "tv", "peak_r"],
                [asdict(row) for row in rows])
        out.manifest("duration-study", cfg, counts)
    return out.files
