"""End-to-end pipeline flows behind the CLI commands.

Every flow is deterministic given (config, inputs, seed): no timestamps,
thread counts, or environment details leak into outputs, and gzip
streams are written with a pinned mtime.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import PipelineConfig
from .duration import (
    CONDITION_AVERAGED,
    CONDITION_CONCATENATED,
    CONDITION_SINGLE,
    RobustnessRow,
    RunSet,
    average_runs,
    concatenate_runs,
    local_standard_deviation,
    non_target_rois,
    peak_correlation,
    single_run_design,
    total_variation,
)
from .errors import ConfigError, DataError, ShapeError
from .glm import StatMaps, correlation_map, fit_glm, t_contrast
from .inference import (
    cluster_table,
    extract_clusters,
    fdr_bh,
    write_cluster_csv,
    write_cluster_json,
)
from .phantom import AcquisitionParams, PhantomSpec, generate_phantom
from .preprocess import (
    apply_motion,
    estimate_motion,
    gaussian_smooth,
    interleaved_order,
    sequential_order,
    slice_timing_correct,
)
from .task_design import BlockDesign, DesignMatrix, LABEL_TASK
from .volume_io import (
    Volume4D,
    VolumeHeader,
    fold_voxels,
    read_nifti,
    voxel_series,
    write_nifti,
)

ADJUSTED_P_CEILING = 0.05


class OutputTracker:
    """Records written files so a failed run can clean up after itself."""

    def __init__(self, out_dir):
        self.out_dir = str(out_dir)
        self.files = []
        os.makedirs(self.out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.files.append(full)
        return full

    def remove_all(self):
        for path in self.files:
            try:
                os.remove(path)
            except OSError:
                pass


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
    acq = AcquisitionParams(tr_s=p["tr_s"], te_ms=p["te_ms"], n_vols=int(p["n_vols"]))
    return spec, acq


def load_runs(cfg: PipelineConfig):
    """Input runs plus ground-truth ROI masks (phantom source only).

    Files are read by up to cfg.threads threads at once (decompression
    releases the GIL); the runs come back in config order, so results do
    not depend on the thread count. Phantom runs are generated one at a
    time, which bounds the generator's transient memory.
    """
    design = block_design_from_config(cfg)
    if cfg.uses_phantom():
        spec, acq = phantom_pieces(cfg)
        runs = []
        truth = None
        for r in range(int(cfg.phantom["n_runs"])):
            vol, truth = generate_phantom(spec, acq, design, run_index=r)
            runs.append(vol)
        return runs, design, truth
    for path in cfg.runs:
        if not os.path.exists(path):
            raise DataError(f"input run not found: {path}")
    with ThreadPoolExecutor(max_workers=min(cfg.threads, len(cfg.runs))) as pool:
        runs = list(pool.map(read_nifti, cfg.runs))
    return runs, design, None


def preprocess_run(vol: Volume4D, cfg: PipelineConfig) -> Volume4D:
    pre = cfg.preprocess
    if pre["slice_timing"]:
        nz = vol.header.dims[2]
        if pre["slice_order"] == "interleaved":
            order = interleaved_order(nz, pre["reference_fraction"])
        else:
            order = sequential_order(nz, pre["reference_fraction"])
        vol = slice_timing_correct(vol, order)
    if pre["motion_correction"]:
        vol = apply_motion(vol, estimate_motion(vol, threads=cfg.threads))
    if pre["fwhm_mm"] > 0:
        vol = gaussian_smooth(vol, pre["fwhm_mm"])
    return vol


def contrast_vector(cfg: PipelineConfig, design: DesignMatrix) -> np.ndarray:
    contrast = cfg.glm["contrast"]
    if isinstance(contrast, str):
        task_cols = design.columns_labeled(LABEL_TASK)
        if task_cols.size == 0:
            raise DataError("design has no task column to contrast")
        c = np.zeros(design.n_cols)
        c[task_cols[0]] = 1.0
        return c
    c = np.asarray(contrast, dtype=np.float64)
    if c.size != design.n_cols:
        raise ShapeError(f"contrast has {c.size} weights but the design has {design.n_cols} columns")
    return c


@dataclass
class AnalysisResult:
    """Stat maps and inference products of one GLM analysis."""

    design: DesignMatrix
    stats3d: StatMaps
    mask: np.ndarray
    rejected: np.ndarray
    adjusted_p: np.ndarray
    p_threshold: float
    clusters: list
    regressor: np.ndarray
    n_degenerate: int


def analyze_volume(vol: Volume4D, design: DesignMatrix, cfg: PipelineConfig) -> AnalysisResult:
    """GLM fit, FDR over the in-brain mask, and cluster extraction.

    The in-brain mask is every voxel whose series is not constant and
    whose fit is not degenerate.
    """
    shape = vol.spatial_dims
    Y = voxel_series(vol)
    fit = fit_glm(Y, design)
    c = contrast_vector(cfg, design)
    stats = t_contrast(fit, c, two_sided=cfg.glm["two_sided"])

    t3 = fold_voxels(stats.t, shape)
    p3 = fold_voxels(stats.p, shape)
    degenerate3 = fold_voxels(stats.degenerate, shape)
    stats3d = StatMaps(t=t3, p=p3, z=fold_voxels(stats.z, shape), degenerate=degenerate3,
                       dof=stats.dof, two_sided=stats.two_sided)

    varying = fold_voxels(Y.max(axis=0) > Y.min(axis=0), shape)
    mask = varying & ~degenerate3

    q = cfg.inference["q"]
    adjusted = np.ones(shape)
    rejected = np.zeros(shape, dtype=bool)
    threshold = 0.0
    if mask.any():
        result = fdr_bh(p3[mask], q)
        adjusted[mask] = result.adjusted_p
        rejected[mask] = result.rejected
        threshold = result.p_threshold

    clusters = extract_clusters(rejected, stats3d, cfg.inference["connectivity"])
    task_col = design.columns_labeled(LABEL_TASK)
    regressor = design.values[:, task_col[0]] if task_col.size else np.zeros(design.n_rows)
    return AnalysisResult(
        design=design,
        stats3d=stats3d,
        mask=mask,
        rejected=rejected,
        adjusted_p=adjusted,
        p_threshold=threshold,
        clusters=clusters,
        regressor=regressor,
        n_degenerate=int(degenerate3.sum()),
    )


def _map_volume(data3d: np.ndarray, like: Volume4D) -> Volume4D:
    header = VolumeHeader(
        dims=data3d.shape + (1,),
        voxel_size_mm=like.header.voxel_size_mm,
        tr_seconds=like.header.tr_seconds,
        orientation=dict(like.header.orientation),
    )
    return Volume4D(header=header, data=data3d[..., np.newaxis].astype(np.float64))


def _write_manifest(tracker: OutputTracker, command: str, cfg: PipelineConfig, summary: dict):
    manifest = {
        "boldkit_version": __version__,
        "command": command,
        "config": cfg.as_dict(),
        "outputs": [os.path.basename(f) for f in tracker.files],
        "summary": summary,
    }
    path = tracker.path("manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_simulate(cfg: PipelineConfig) -> list:
    """Write phantom run volumes and the ground-truth sidecar."""
    if not cfg.uses_phantom():
        raise ConfigError("config key 'runs': simulate requires a phantom source")
    spec, acq = phantom_pieces(cfg)
    design = block_design_from_config(cfg)

    tracker = OutputTracker(cfg.output_dir)
    try:
        truth = None
        for r in range(int(cfg.phantom["n_runs"])):
            vol, truth = generate_phantom(spec, acq, design, run_index=r)
            write_nifti(vol, tracker.path(f"run-{r + 1:02d}.nii.gz"))

        rois = {
            name: sorted(map(tuple, np.argwhere(mask).tolist()))
            for name, mask in truth.items()
        }
        truth_doc = {
            "rois": {name: [list(v) for v in voxels] for name, voxels in rois.items()},
            "config": cfg.as_dict(),
        }
        with open(tracker.path("truth.json"), "w") as fh:
            json.dump(truth_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

        _write_manifest(tracker, "simulate", cfg, {"n_runs": int(cfg.phantom["n_runs"])})
    except BaseException:
        tracker.remove_all()
        raise
    return tracker.files


def _prepare_condition(cfg: PipelineConfig, runs, design: BlockDesign, mode: str):
    """(volume, design matrix) for one duration condition."""
    tr = runs[0].header.tr_seconds
    cutoff = cfg.glm["cutoff_hz"]
    if mode == "single":
        vol = runs[0]
        return vol, single_run_design(design, tr, vol.n_vols, cutoff_hz=cutoff)
    runset = RunSet(runs=runs, designs=[design] * len(runs))
    if mode == "concatenate":
        return concatenate_runs(runset, cutoff_hz=cutoff)
    if mode == "average":
        vol = average_runs(runset)
        return vol, single_run_design(design, tr, vol.n_vols, cutoff_hz=cutoff)
    raise ConfigError(f"config key 'duration_mode': unknown mode {mode!r}")


def run_analyze(cfg: PipelineConfig) -> list:
    """Preprocess, fit, threshold, and report one analysis."""
    runs, design, _ = load_runs(cfg)
    mode = cfg.duration_mode
    if mode in ("concatenate", "average") and len(runs) < 2:
        raise DataError(f"duration mode '{mode}' needs at least two runs, got {len(runs)}")

    for i in range(len(runs)):  # replace in place so each raw run can be freed
        runs[i] = preprocess_run(runs[i], cfg)
    vol, design_matrix = _prepare_condition(cfg, runs, design, mode)
    result = analyze_volume(vol, design_matrix, cfg)

    tracker = OutputTracker(cfg.output_dir)
    try:
        write_nifti(_map_volume(result.stats3d.t, vol), tracker.path("t_map.nii.gz"))
        write_nifti(_map_volume(result.stats3d.z, vol), tracker.path("z_map.nii.gz"))
        capped = np.minimum(result.adjusted_p, ADJUSTED_P_CEILING)
        write_nifti(_map_volume(capped, vol), tracker.path("p_fdr_adjusted.nii.gz"))
        write_nifti(_map_volume(result.rejected.astype(np.float64), vol),
                    tracker.path("rejection_mask.nii.gz"))

        rows = cluster_table(result.clusters)
        write_cluster_csv(rows, tracker.path("clusters.csv"))
        write_cluster_json(rows, tracker.path("clusters.json"))

        summary = {
            "dof": result.stats3d.dof,
            "n_mask_voxels": int(result.mask.sum()),
            "n_rejected": int(result.rejected.sum()),
            "n_clusters": len(result.clusters),
            "n_degenerate": result.n_degenerate,
            "p_threshold": result.p_threshold,
        }
        _write_manifest(tracker, "analyze", cfg, summary)
    except BaseException:
        tracker.remove_all()
        raise
    return tracker.files


def run_duration_study(cfg: PipelineConfig) -> list:
    """Single vs concatenated vs averaged comparison on a two-run set."""
    runs, design, truth = load_runs(cfg)
    if len(runs) != 2:
        raise ConfigError(f"config key 'runs': duration study needs exactly 2 runs, got {len(runs)}")

    for i in range(len(runs)):  # replace in place so each raw run can be freed
        runs[i] = preprocess_run(runs[i], cfg)

    # one condition at a time: its volume is dropped before the next is built
    t_maps, r_maps, counts = {}, {}, {}
    for name, mode in ((CONDITION_SINGLE, "single"), (CONDITION_CONCATENATED, "concatenate"),
                       (CONDITION_AVERAGED, "average")):
        vol, matrix = _prepare_condition(cfg, runs, design, mode)
        result = analyze_volume(vol, matrix, cfg)
        r_maps[name], _ = correlation_map(vol, result.regressor)
        del vol
        t_maps[name] = result.stats3d.t
        counts[name] = {"n_rejected": int(result.rejected.sum()),
                        "n_clusters": len(result.clusters)}
        if name == CONDITION_CONCATENATED:
            concatenated_rejected = result.rejected

    dims = runs[0].spatial_dims
    if truth is not None:
        targets = truth
        activation_mask = np.zeros(dims, dtype=bool)
        for mask in truth.values():
            activation_mask |= mask
    else:
        activation_mask = concatenated_rejected
        targets = {"activation": activation_mask} if activation_mask.any() else {}
    nontargets = non_target_rois(dims, activation_mask, seed=cfg.seed)

    rows = []
    for condition in (CONDITION_SINGLE, CONDITION_CONCATENATED, CONDITION_AVERAGED):
        t_map = t_maps[condition]
        finite_t = np.where(np.isfinite(t_map), t_map, 0.0)
        for roi_name, roi in list(targets.items()) + list(nontargets.items()):
            rows.append(
                RobustnessRow(
                    condition=condition,
                    roi=roi_name,
                    lsd=local_standard_deviation(finite_t, roi),
                    tv=total_variation(finite_t, roi),
                    peak_r=peak_correlation(r_maps[condition], roi),
                )
            )

    tracker = OutputTracker(cfg.output_dir)
    try:
        report = {
            "conditions": [CONDITION_SINGLE, CONDITION_CONCATENATED, CONDITION_AVERAGED],
            "target_rois": sorted(targets),
            "non_target_rois": sorted(nontargets),
            "rows": [row.as_dict() for row in rows],
        }
        with open(tracker.path("robustness.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

        with open(tracker.path("comparison.csv"), "w") as fh:
            fh.write("condition,roi,lsd,tv,peak_r\n")
            for row in rows:
                fh.write(f"{row.condition},{row.roi},{row.lsd!r},{row.tv!r},{row.peak_r!r}\n")

        _write_manifest(tracker, "duration-study", cfg, counts)
    except BaseException:
        tracker.remove_all()
        raise
    return tracker.files
