"""Scan-duration studies: run concatenation, time-point averaging, and
spatial-robustness metrics (local standard deviation, total variation,
peak correlation) over target and non-target ROIs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DesignMismatchError, EmptyMaskError, ShapeError
from .task_design import (
    DEFAULT_CUTOFF_HZ,
    LABEL_DRIFT,
    LABEL_INTERCEPT,
    LABEL_TASK,
    BlockDesign,
    DesignMatrix,
    dct_highpass_basis,
    task_regressor,
)
from .volume_io import Volume4D

# The study's conditions in order: each duration_mode and the name the
# duration study reports it under.
CONDITIONS = (("single", "single"), ("concatenate", "concatenated"), ("average", "averaged"))


@dataclass
class RunSet:
    """Two or more runs with identical geometry, TR, and length."""

    runs: list
    designs: list

    def __post_init__(self):
        if len(self.runs) < 2:
            raise ShapeError("duration studies need at least two runs")
        if len(self.designs) != len(self.runs):
            raise ShapeError("one task design per run required")
        first = self.runs[0].header
        for run in self.runs[1:]:
            h = run.header
            if h.dims != first.dims:
                raise ShapeError(f"run dims {h.dims} != {first.dims}")
            if h.voxel_size_mm != first.voxel_size_mm:
                raise ShapeError("runs differ in voxel geometry")
            if abs(h.tr_seconds - first.tr_seconds) > 1e-9:
                raise ShapeError("runs differ in TR")


def _design(designs, tr_s: float, n_per_run, cutoff_hz: float) -> DesignMatrix:
    """Design for runs stacked along time, built in one preallocated matrix.

    Columns are one task column spanning all runs, then each run's DCT
    drift block, then one intercept per run; a run's drift and intercept
    columns are zero outside its own rows.
    """
    tasks = [task_regressor(design, tr_s, n) for design, n in zip(designs, n_per_run)]
    drifts = [dct_highpass_basis(n, tr_s, cutoff_hz) for n in n_per_run]
    n_drift = sum(drift.shape[1] for drift in drifts)
    values = np.zeros((sum(n_per_run), 1 + n_drift + len(n_per_run)))
    row, col = 0, 1
    for r, (task, drift, n) in enumerate(zip(tasks, drifts, n_per_run)):
        values[row:row + n, 0] = task
        values[row:row + n, col:col + drift.shape[1]] = drift
        values[row:row + n, 1 + n_drift + r] = 1.0
        row, col = row + n, col + drift.shape[1]
    labels = [LABEL_TASK] + [LABEL_DRIFT] * n_drift + [LABEL_INTERCEPT] * len(n_per_run)
    return DesignMatrix(values=values, column_labels=labels, tr_seconds=float(tr_s))


def single_run_design(design: BlockDesign, tr_s: float, n_vols: int,
                      cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> DesignMatrix:
    """Task + DCT drift + intercept design for one run."""
    return _design([design], tr_s, [n_vols], cutoff_hz)


def concatenate_runs(runset: RunSet,
                     cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> tuple[Volume4D, DesignMatrix]:
    """Stack runs along time and build the matching design matrix.

    The design has a single task column spanning all runs, per-run DCT
    drift blocks (zero outside their own run), and per-run intercepts in
    place of a global one, so inter-run baseline offsets cannot
    masquerade as activation.

    Each run is copied into its time slab of the stack, and runset.runs[i]
    is then rebound to a new Volume4D that is a view of that slab; the
    Volume4D objects passed in are left untouched. A run whose only holder
    was the RunSet is thus freed as soon as it is copied, so building the
    stack never holds more than three run-sized arrays.
    """
    header = runset.runs[0].header
    n_per_run = [run.n_vols for run in runset.runs]
    # pages of the empty stack become resident only as each slab is written
    data = np.empty(header.dims[:3] + (sum(n_per_run),), order="F")
    start = 0
    for i, n in enumerate(n_per_run):
        slab = data[..., start:start + n]
        slab[...] = runset.runs[i].data
        runset.runs[i] = Volume4D(header=runset.runs[i].header, data=slab)
        start += n
    design = _design(runset.designs, header.tr_seconds, n_per_run, cutoff_hz)
    return Volume4D(header=replace(header, dims=data.shape), data=data), design


def average_runs(runset: RunSet) -> Volume4D:
    """Voxelwise mean across runs at each time point (nt unchanged)."""
    if any(design != runset.designs[0] for design in runset.designs[1:]):
        raise DesignMismatchError("averaging requires identical task designs across runs")
    # a running sum adds in the same order as np.mean over stacked runs
    data = runset.runs[0].data + runset.runs[1].data
    for run in runset.runs[2:]:
        data += run.data
    data /= len(runset.runs)
    return Volume4D(header=replace(runset.runs[0].header), data=data)


def local_standard_deviation(map3d: np.ndarray, roi: np.ndarray, radius_vox: int = 1) -> float:
    """Mean over ROI voxels of the standard deviation in each voxel's
    (2r+1)^3 neighborhood, clipped to the volume."""
    map3d = np.asarray(map3d, dtype=np.float64)
    roi = np.asarray(roi, dtype=bool)
    if map3d.shape != roi.shape:
        raise ShapeError(f"map shape {map3d.shape} != ROI shape {roi.shape}")
    if not roi.any():
        raise EmptyMaskError("ROI selects no voxels")
    if radius_vox < 1:
        raise ValueError("radius_vox must be a positive integer")

    r = int(radius_vox)
    nx, ny, nz = map3d.shape
    deviations = []
    for x, y, z in np.argwhere(roi):
        block = map3d[
            max(0, x - r): min(nx, x + r + 1),
            max(0, y - r): min(ny, y + r + 1),
            max(0, z - r): min(nz, z + r + 1),
        ]
        deviations.append(block.std())
    return float(np.mean(deviations))


def total_variation(map3d: np.ndarray, roi: np.ndarray) -> float:
    """Mean absolute difference over 6-connected voxel pairs inside the ROI."""
    map3d = np.asarray(map3d, dtype=np.float64)
    roi = np.asarray(roi, dtype=bool)
    if map3d.shape != roi.shape:
        raise ShapeError(f"map shape {map3d.shape} != ROI shape {roi.shape}")
    if not roi.any():
        raise EmptyMaskError("ROI selects no voxels")

    total = 0.0
    count = 0
    for axis in range(3):
        lead = [slice(None)] * 3
        lag = [slice(None)] * 3
        lead[axis] = slice(1, None)
        lag[axis] = slice(None, -1)
        both = roi[tuple(lead)] & roi[tuple(lag)]
        diffs = map3d[tuple(lead)] - map3d[tuple(lag)]
        total += np.abs(diffs[both]).sum()
        count += int(both.sum())
    if count == 0:
        return 0.0
    return float(total / count)


def peak_correlation(r_map: np.ndarray, roi: np.ndarray) -> float:
    """Maximum correlation value over ROI voxels."""
    r_map = np.asarray(r_map, dtype=np.float64)
    roi = np.asarray(roi, dtype=bool)
    if r_map.shape != roi.shape:
        raise ShapeError(f"map shape {r_map.shape} != ROI shape {roi.shape}")
    if not roi.any():
        raise EmptyMaskError("ROI selects no voxels")
    return float(r_map[roi].max())


def non_target_rois(dims, exclude: np.ndarray, n_rois: int = 3, n_voxels: int = 200,
                    seed: int = 0) -> dict:
    """Deterministically seeded connected ROIs outside an exclusion mask.

    Each ROI grows from a random seed voxel by repeatedly annexing a
    random frontier neighbor (6-connected), never entering the exclusion
    mask or a previously built ROI. Same seed, same ROIs.
    """
    dims = tuple(int(d) for d in dims)
    exclude = np.asarray(exclude, dtype=bool)
    if exclude.shape != dims:
        raise ShapeError(f"exclusion mask shape {exclude.shape} != dims {dims}")

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    blocked = exclude.copy()
    available = np.argwhere(~blocked)
    if available.shape[0] < n_rois * n_voxels:
        raise ValueError("not enough voxels outside the exclusion mask")

    offsets = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]])
    rois = {}
    for index in range(n_rois):
        for _ in range(1000):
            start = available[rng.integers(available.shape[0])]
            if not blocked[tuple(start)]:
                break
        else:
            raise ValueError("could not place a non-target ROI seed voxel")

        members = {tuple(start)}
        frontier = [tuple(start)]
        while len(members) < n_voxels and frontier:
            pick = frontier[rng.integers(len(frontier))]
            neighbors = np.array(pick) + offsets
            candidates = [
                tuple(n) for n in neighbors
                if all(0 <= c < d for c, d in zip(n, dims))
                and tuple(n) not in members
                and not blocked[tuple(n)]
            ]
            if not candidates:
                frontier.remove(pick)
                continue
            chosen = candidates[rng.integers(len(candidates))]
            members.add(chosen)
            frontier.append(chosen)
        if len(members) < n_voxels:
            raise ValueError(f"ROI {index} could not grow to {n_voxels} voxels")

        mask = np.zeros(dims, dtype=bool)
        for voxel in members:
            mask[voxel] = True
        blocked |= mask
        rois[f"nontarget-{index + 1}"] = mask
    return rois


@dataclass
class RobustnessRow:
    """One (condition, ROI) entry of the robustness report."""

    condition: str
    roi: str
    lsd: float
    tv: float
    peak_r: float
