"""Scan-duration studies: run concatenation, time-point averaging, and
spatial-robustness metrics (local standard deviation, total variation,
peak correlation) over target and non-target ROIs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyMaskError, ShapeError
from .task_design import DEFAULT_CUTOFF_HZ, BlockDesign, DesignMatrix, build_design_matrix
from .volume_io import Volume4D, check_finite, output_array, time_blocks

# The study's conditions in order: each duration_mode and the name the
# duration study reports it under.
CONDITIONS = (("single", "single"), ("concatenate", "concatenated"), ("average", "averaged"))


def check_runs_match(headers) -> None:
    """Raise ShapeError unless every run header has the first's dims,
    voxel size and TR."""
    first = headers[0]
    for h in headers[1:]:
        if h.dims != first.dims:
            raise ShapeError(f"run dims {h.dims} != {first.dims}")
        if h.voxel_size_mm != first.voxel_size_mm:
            raise ShapeError("runs differ in voxel geometry")
        if abs(h.tr_seconds - first.tr_seconds) > 1e-9:
            raise ShapeError("runs differ in TR")


@dataclass
class RunSet:
    """Two or more runs with identical geometry, TR, and length, all
    acquired under the one task design."""

    runs: list
    design: BlockDesign

    def __post_init__(self):
        if len(self.runs) < 2:
            raise ShapeError("duration studies need at least two runs")
        check_runs_match([run.header for run in self.runs])


def single_run_design(design: BlockDesign, tr_s: float, n_vols: int,
                      cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> DesignMatrix:
    """Task + DCT drift + intercept design for one run."""
    return build_design_matrix(design, tr_s, [n_vols], cutoff_hz)


def concatenate_runs(runset: RunSet,
                     cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> tuple[Volume4D, DesignMatrix]:
    """Stack runs along time and build the matching design matrix.

    The design has a single task column spanning all runs, per-run DCT
    drift blocks (zero outside their own run), and per-run intercepts in
    place of a global one, so inter-run baseline offsets cannot
    masquerade as activation.

    The runs are joined into a new array, x-fastest as theirs are, so
    the result shares no memory with them and runset is left as it was.
    The runs were checked to be finite when built, so the result is not
    read again.
    """
    header = runset.runs[0].header
    n_per_run = [run.n_vols for run in runset.runs]
    data = np.concatenate([run.data for run in runset.runs], axis=3)
    design = build_design_matrix(runset.design, header.tr_seconds, n_per_run, cutoff_hz)
    return Volume4D._checked(replace(header, dims=data.shape), data), design


@np.errstate(over="ignore", invalid="ignore")  # an overflow is one NumericError, below
def average_runs(runset: RunSet) -> Volume4D:
    """Voxelwise mean across runs at each time point (nt unchanged).

    The mean goes into a new array (``output_array``). It is taken a
    block of about 1 MB of volumes at a time (time_blocks), each block
    checked for finiteness while in cache: a mean that overflows float64
    raises NumericError.
    """
    runs = runset.runs
    first = runs[0].data
    data = output_array(runs[0].header.dims)
    for block in time_blocks(first.shape):
        # a running sum adds in the same order as np.mean over stacked runs
        mean = np.add(first[..., block], runs[1].data[..., block], out=data[..., block])
        for run in runs[2:]:
            mean += run.data[..., block]
        mean /= len(runs)
        check_finite(mean, "run averaging")
    return Volume4D._checked(replace(runs[0].header), data)


def _map_and_roi(map3d, roi) -> tuple[np.ndarray, np.ndarray]:
    """The map as float64 and the ROI as bool, checked to match in shape
    and to select at least one voxel."""
    map3d = np.asarray(map3d, dtype=np.float64)
    roi = np.asarray(roi, dtype=bool)
    if map3d.shape != roi.shape:
        raise ShapeError(f"map shape {map3d.shape} != ROI shape {roi.shape}")
    if not roi.any():
        raise EmptyMaskError("ROI selects no voxels")
    return map3d, roi


def local_standard_deviation(map3d: np.ndarray, roi: np.ndarray, radius_vox: int = 1) -> float:
    """Mean over ROI voxels of the standard deviation in each voxel's
    (2r+1)^3 neighborhood, clipped to the volume."""
    map3d, roi = _map_and_roi(map3d, roi)
    # a bool is an Integral too, and a float would be truncated
    if isinstance(radius_vox, bool) or not isinstance(radius_vox, Integral) or radius_vox < 1:
        raise ValueError("radius_vox must be a positive integer")

    # each ROI voxel's window over the zero-padded map; the padding is
    # left out of the std, so windows are clipped to the volume
    r = int(radius_vox)
    window = (2 * r + 1,) * 3
    centers = np.nonzero(roi)
    values = sliding_window_view(np.pad(map3d, r), window)[centers]
    inside = sliding_window_view(np.pad(np.ones(roi.shape, dtype=bool), r), window)[centers]
    return float(values.std(axis=(1, 2, 3), where=inside).mean())


def total_variation(map3d: np.ndarray, roi: np.ndarray) -> float:
    """Mean absolute difference over 6-connected voxel pairs inside the ROI."""
    map3d, roi = _map_and_roi(map3d, roi)

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
    r_map, roi = _map_and_roi(r_map, roi)
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

    rois = {}
    for index in range(n_rois):
        for _ in range(1000):
            start = tuple(int(c) for c in available[rng.integers(available.shape[0])])
            if not blocked[start]:
                break
        else:
            raise ValueError("could not place a non-target ROI seed voxel")

        members = {start}
        frontier = [start]
        while len(members) < n_voxels and frontier:
            pick = frontier[rng.integers(len(frontier))]
            x, y, z = pick
            # the six face neighbours, in a fixed order
            candidates = [
                n for n in ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z),
                            (x, y - 1, z), (x, y, z + 1), (x, y, z - 1))
                if 0 <= n[0] < dims[0] and 0 <= n[1] < dims[1] and 0 <= n[2] < dims[2]
                and n not in members and not blocked[n]
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
