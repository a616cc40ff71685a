"""Synthetic low-field BOLD phantom with ground-truth activation masks.

Every voxel series is baseline + activation * HRF response + AR(1) noise
+ signed linear drift. All randomness of a run comes from one Philox
(counter-based) stream keyed by (seed, run index) and drawn in a fixed
order, so output is bit-reproducible and independent of any parallel
schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .task_design import BlockDesign, task_regressor
from .volume_io import Volume4D, VolumeHeader, check_finite, output_array, time_blocks

BASELINE = 1000.0
REFERENCE_FIELD_TESLA = 3.0

DEFAULT_DIMS = (24, 24, 21)
DEFAULT_VOXEL_MM = (3.3, 3.3, 4.8)


def field_snr_scale(field_tesla: float) -> float:
    """Linear SNR-vs-field heuristic, unit scale at 3 T.

    Deliberately simple; swap this function out for a different field
    dependence model if needed.
    """
    if field_tesla <= 0:
        raise ValueError("field strength must be positive")
    return field_tesla / REFERENCE_FIELD_TESLA


def sphere_mask(dims, center, radius_vox: float) -> np.ndarray:
    grids = np.ogrid[tuple(slice(0, d) for d in dims)]
    dist2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return dist2 <= radius_vox**2


def default_target_rois(dims) -> dict:
    """Two disjoint spherical activation targets.

    'motor' sits dorsally (upper slices), 'visual' posteriorly, echoing
    the tasks the toolkit is meant to analyze.
    """
    nx, ny, nz = dims
    radius = max(2.0, min(dims) / 6.0)
    motor = sphere_mask(dims, (nx * 0.5, ny * 0.5, nz * 0.75), radius)
    visual = sphere_mask(dims, (nx * 0.5, ny * 0.2, nz * 0.35), radius)
    visual &= ~motor
    return {"motor": motor, "visual": visual}


@dataclass
class PhantomSpec:
    """Geometry, activation targets, and noise model of the phantom.

    The default cnr is calibrated so a default single run (100 volumes,
    TR 3 s, 30 s alternating blocks), unpreprocessed and fitted by OLS,
    yields a mean in-ROI t of about 9, and a two-run concatenation about
    12.7. Default ``analyze`` slice-times and smooths the run first,
    which raises it to about 35.
    """

    dims: tuple = DEFAULT_DIMS
    voxel_size_mm: tuple = DEFAULT_VOXEL_MM
    target_rois: dict = None
    cnr: float = 10.75
    noise_sigma: float = 20.0
    ar1_rho: float = 0.3
    drift_amplitude: float = 10.0  # intensity units per 100 volumes
    field_tesla: float = 0.55
    seed: int = 0

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive integers, got {self.dims}")
        self.voxel_size_mm = tuple(float(v) for v in self.voxel_size_mm)
        if self.cnr < 0:
            raise ValueError("cnr must be non-negative")
        if self.noise_sigma <= 0:
            raise ValueError("noise_sigma must be positive")
        if not 0.0 <= self.ar1_rho < 1.0:
            raise ValueError("ar1_rho must lie in [0, 1)")
        if self.drift_amplitude < 0:
            raise ValueError("drift_amplitude must be non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(self.seed)
        rois = default_target_rois(self.dims) if self.target_rois is None else self.target_rois
        # bool copies: the caller's dict and masks are neither rewritten nor shared
        self.target_rois = {name: np.array(mask, dtype=bool) for name, mask in rois.items()}
        occupancy = np.zeros(self.dims, dtype=np.int64)
        for name, mask in self.target_rois.items():
            if mask.shape != self.dims:
                raise ShapeError(f"ROI '{name}' shape {mask.shape} != phantom dims {self.dims}")
            occupancy += mask
        if np.any(occupancy > 1):
            raise ValueError("target ROIs must be disjoint")

    def target_mask(self) -> np.ndarray:
        combined = np.zeros(self.dims, dtype=bool)
        for mask in self.target_rois.values():
            combined |= mask
        return combined


@dataclass
class AcquisitionParams:
    """Sampling parameters of one run."""

    tr_s: float = 3.0
    n_vols: int = 100

    def __post_init__(self):
        if self.tr_s <= 0:
            raise ValueError("tr_s must be positive")
        if self.n_vols < 4:
            raise ValueError("n_vols must be at least 4")


@np.errstate(over="ignore", invalid="ignore")  # an overflow is one NumericError, below
def generate_phantom(
    spec: PhantomSpec,
    acq: AcquisitionParams,
    design: BlockDesign,
    run_index: int = 0,
) -> tuple[Volume4D, dict]:
    """Simulate one run and return it with its ground-truth ROI masks.

    The activation time course is the HRF-convolved task boxcar rescaled
    to unit peak, so cnr * noise_sigma * field_snr_scale is the peak
    signal amplitude inside target ROIs. run_index selects the random
    stream so multi-run sets are mutually independent at equal seeds.

    The stream is Philox keyed by (seed << 64) | run_index. It gives
    standard normals of shape (nt + 1, n_voxels), voxels in canonical
    scan order (x fastest): row 0 sets the drift signs, rows 1..nt are
    the AR(1) innovations; overflowing intensities raise NumericError.
    Row 0 is drawn on its own and rows 1..nt straight into the run's
    (nt, n_voxels) time-by-voxel view, the same draws as one call. The
    run is drawn into a new x-fastest array (``output_array``), its data.
    """
    if not 0 <= run_index < 2**64:
        raise ValueError("run_index must fit in an unsigned 64-bit integer")
    nx, ny, nz = spec.dims
    nt = acq.n_vols
    n_voxels = nx * ny * nz
    dims = (nx, ny, nz, nt)

    response = task_regressor(design, acq.tr_s, nt)
    peak = np.abs(response).max()
    if peak > 0:
        response = response / peak
    amplitude = spec.cnr * spec.noise_sigma * field_snr_scale(spec.field_tesla)

    data = output_array(dims)
    stream = np.random.Generator(np.random.Philox(key=(spec.seed << 64) | run_index))
    drift = np.where(stream.standard_normal(n_voxels) >= 0.0,
                     spec.drift_amplitude, -spec.drift_amplitude)
    # the x-fastest data's (nt, n_voxels) view is C-contiguous, as the draw needs
    series = data.reshape(n_voxels, nt, order="F").T
    stream.standard_normal(out=series)

    # The innovations become the series in place, one row (volume) at a
    # time: noise[t] = rho * noise[t-1] + step * innovation[t], then
    # + BASELINE, then + drift * t / 100, then + the activation, the same
    # roundings as with whole-run temporaries. Rows are finished a block of
    # volumes at a time (time_blocks) and checked while in cache; the noise
    # of a block's last row is kept for the next block's first.
    rho = spec.ar1_rho
    step = spec.noise_sigma * np.sqrt(1.0 - rho**2)
    ramp = np.arange(nt, dtype=np.float64) / 100.0
    signal = amplitude * response
    targets = np.flatnonzero(spec.target_mask().reshape(-1, order="F"))
    series[0] *= spec.noise_sigma
    noise = None
    for block in time_blocks(dims):
        rows = series[block]
        start = block.start
        for t in range(max(start, 1), start + rows.shape[0]):
            series[t] *= step
            series[t] += rho * (noise if t == start else series[t - 1])
        noise = rows[-1].copy()
        rows += BASELINE
        for t in range(start, start + rows.shape[0]):
            series[t] += drift * ramp[t]
        rows[:, targets] += signal[block, np.newaxis]
        check_finite(rows, "phantom generation")

    header = VolumeHeader(
        dims=dims,
        voxel_size_mm=spec.voxel_size_mm,
        tr_seconds=acq.tr_s,
    )
    truth = {name: mask.copy() for name, mask in spec.target_rois.items()}
    return Volume4D._checked(header, data), truth
