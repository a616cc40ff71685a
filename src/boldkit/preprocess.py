"""Temporal and spatial conditioning of 4-D series.

Slice-timing correction, rigid-body motion estimation/correction,
separable Gaussian smoothing, and DCT-based high-pass filtering. The
canonical order mirrors the analysis chain: slice timing, then motion,
then smoothing, with drift handled inside the GLM (or here, standalone).
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import usable_cpus
from .errors import InsufficientDataError, NumericError, ShapeError
from .task_design import dct_highpass_basis
from .volume_io import Volume4D, check_finite, fold_voxels, output_array, time_blocks, voxel_series

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
KERNEL_TRUNCATE_SIGMAS = 4.0

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SliceOrder:
    """Slice acquisition order within one TR.

    acquisition_sequence lists 0-based slice indices in the order they
    were acquired; reference_fraction places the temporal reference
    within the TR (0.5 = mid-TR).
    """

    acquisition_sequence: tuple
    reference_fraction: float = 0.5

    def __post_init__(self):
        seq = tuple(int(z) for z in self.acquisition_sequence)
        object.__setattr__(self, "acquisition_sequence", seq)
        if sorted(seq) != list(range(len(seq))):
            raise ValueError("acquisition_sequence must be a permutation of 0..nz-1")
        if not 0.0 <= self.reference_fraction <= 1.0:
            raise ValueError("reference_fraction must lie in [0, 1]")

    def rank_of_slice(self) -> np.ndarray:
        """rank[z] = acquisition position of slice z."""
        ranks = np.empty(len(self.acquisition_sequence), dtype=np.int64)
        for position, z in enumerate(self.acquisition_sequence):
            ranks[z] = position
        return ranks


def interleaved_order(nz: int, reference_fraction: float = 0.5) -> SliceOrder:
    """Odd-first interleaved acquisition (slices 1,3,5,... then 2,4,...)."""
    seq = tuple(range(0, nz, 2)) + tuple(range(1, nz, 2))
    return SliceOrder(acquisition_sequence=seq, reference_fraction=reference_fraction)


def sequential_order(nz: int, reference_fraction: float = 0.5) -> SliceOrder:
    return SliceOrder(acquisition_sequence=tuple(range(nz)), reference_fraction=reference_fraction)


def slice_offsets_s(order: SliceOrder, tr_s: float) -> np.ndarray:
    """Acquisition time offset of each slice: rank * TR / nz."""
    nz = len(order.acquisition_sequence)
    return order.rank_of_slice() * (tr_s / nz)


def _mirrored_shift_matrix(kernel: np.ndarray) -> np.ndarray:
    """Matrix R such that series @ R mirrors each series to 2*nt samples,
    circularly convolves it with kernel (length 2*nt) and keeps the first nt.

    Sample m of the series sits at m and 2*nt - 1 - m of the mirrored one,
    so R[m, t] = kernel[(t - m) mod 2*nt] + kernel[t + m + 1]: the sum of a
    Toeplitz and a Hankel window view of the kernel, the one nt x nt array made.
    """
    nt = kernel.size // 2
    # window i starts at lag i - (nt - 1), so reversed, row m starts at lag -m
    toeplitz = sliding_window_view(np.concatenate([kernel[nt + 1:], kernel[:nt]]), nt)[::-1]
    return toeplitz + sliding_window_view(kernel[1:], nt)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is one NumericError, below
def slice_timing_correct(vol: Volume4D, order: SliceOrder, in_place: bool = False) -> Volume4D:
    """Shift every slice's series to the reference time within the TR.

    Each series is resampled by a Fourier phase shift (sinc
    interpolation), mirrored first so that its periodic extension has no
    jump at the ends. A phase shift passes every frequency at unit gain,
    so white noise stays white; linear interpolation between volumes
    would low-pass it, removing up to half its variance and giving lag-1
    autocorrelation up to 0.5, which inflates OLS t-values. The
    operation is linear in the data.

    The result goes into a new array, or into vol.data itself when
    in_place (``output_array``). The shift is one nt x nt matrix product
    per slice: each slice's matrix is a transient of 8 * nt**2 bytes
    (80 kB at 100 volumes, 128 MB at 4000), and each product passes
    through one scratch buffer of one slice's series, 8 * nx * ny * nt
    bytes, allocated once, so a slice is never overwritten while read.
    Each slice's result is checked for finiteness in that buffer: a shift
    that overflows float64 raises NumericError.
    """
    nx, ny, nz, nt = vol.header.dims
    if nz != len(order.acquisition_sequence):
        raise ShapeError(
            f"volume has {nz} slices but the order describes {len(order.acquisition_sequence)}"
        )
    if nt < 2:
        raise InsufficientDataError("slice timing correction needs at least 2 volumes")
    out = output_array(vol.header.dims, vol.data if in_place else None)

    tr = vol.header.tr_seconds
    reference_s = order.reference_fraction * tr
    offsets = slice_offsets_s(order, tr)

    freqs = np.fft.rfftfreq(2 * nt)
    # x-fastest like the slice views, so the product is the same BLAS call
    scratch = np.empty((nx * ny, nt), order="F")
    for z in range(nz):
        shift_vols = (reference_s - offsets[z]) / tr
        # spectrum of the 2*nt-periodic kernel that advances a series by shift_vols
        phase = np.exp(2j * np.pi * freqs * shift_vols)
        # (nx*ny, nt) views of slice z, x-fastest
        series = vol.data[:, :, z, :].reshape(nx * ny, nt, order="F")
        np.matmul(series, _mirrored_shift_matrix(np.fft.irfft(phase, n=2 * nt)), out=scratch)
        check_finite(scratch, "slice timing correction")
        out[:, :, z, :].reshape(nx * ny, nt, order="F")[...] = scratch
    return Volume4D._checked(vol.header, out)


@dataclass
class RigidMotion:
    """6-DOF rigid transform: translations (mm) and rotations (radians).

    Rotations act about the volume center, composed in fixed order
    x, then y, then z.
    """

    translation_mm: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation_rad: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.translation_mm = np.asarray(self.translation_mm, dtype=np.float64).reshape(3)
        self.rotation_rad = np.asarray(self.rotation_rad, dtype=np.float64).reshape(3)
        if not (np.all(np.isfinite(self.translation_mm)) and np.all(np.isfinite(self.rotation_rad))):
            raise ValueError("motion parameters must be finite")

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.translation_mm, self.rotation_rad])

    @classmethod
    def from_params(cls, params) -> "RigidMotion":
        params = np.asarray(params, dtype=np.float64).reshape(6)
        return cls(translation_mm=params[:3], rotation_rad=params[3:])


def rotation_matrix(rotation_rad) -> np.ndarray:
    rx, ry, rz = rotation_rad
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return mz @ my @ mx


# derivatives at zero angle of the rotations about x, y and z
_ROTATION_GENERATORS = np.array([
    [[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
])


def _euler_angles(rot) -> np.ndarray:
    """The angles (rx, ry, rz) whose ``rotation_matrix`` is rot (R = Rz Ry Rx)."""
    return np.array([np.arctan2(rot[2, 1], rot[2, 2]),
                     np.arcsin(np.clip(-rot[2, 0], -1.0, 1.0)),
                     np.arctan2(rot[1, 0], rot[0, 0])])


def _compose_inverse(params, step) -> np.ndarray:
    """Parameters of W_params o W_step^-1 for the maps W: p -> R(p - c) + c + t,
    which rotate by R_params R_step^T and translate by t_params - R t_step."""
    rot = rotation_matrix(params[3:]) @ rotation_matrix(step[3:]).T
    return np.concatenate([params[:3] - rot @ step[:3], _euler_angles(rot)])


def invert_rigid(motion: RigidMotion) -> RigidMotion:
    """Parameters of the inverse transform (same axis-order convention)."""
    return RigidMotion.from_params(_compose_inverse(np.zeros(6), motion.params))


def _rigid_matrix_offset(shape, motion: RigidMotion, voxel):
    """ndimage (matrix, offset) in voxel units for p -> R(p - c) + c + t."""
    center_mm = (np.array(shape) - 1.0) / 2.0 * voxel
    rot = rotation_matrix(motion.rotation_rad)
    matrix = (rot * voxel[np.newaxis, :]) / voxel[:, np.newaxis]
    offset = ((np.eye(3) - rot) @ center_mm + motion.translation_mm) / voxel
    return matrix, offset


def resample_rigid(data3d: np.ndarray, motion: RigidMotion, voxel_size_mm) -> np.ndarray:
    """Resample one 3-D volume through the rigid map p -> R(p - c) + c + t.

    Coordinates are in mm with c the volume center; interpolation is
    trilinear and out-of-field samples become 0.
    """
    from scipy import ndimage  # motion correction only: off by default, slow to import

    data3d = np.asarray(data3d, dtype=np.float64)
    voxel = np.asarray(voxel_size_mm, dtype=np.float64)
    matrix, offset = _rigid_matrix_offset(data3d.shape, motion, voxel)
    return ndimage.affine_transform(
        data3d, matrix, offset=offset, order=1, mode="constant", cval=0.0, prefilter=False
    )


_SPLINE_ORDER = 3
# cubic B-spline taps at offsets -1, 0, 1: its slope, and its value at the nodes
_SPLINE_SLOPE_TAPS = np.array([-0.5, 0.0, 0.5])
_SPLINE_NODE_TAPS = np.array([1.0, 4.0, 1.0]) / 6.0
# differences below 1000 units in the last place of the data are rounding
_ROUNDING = 1000.0 * np.finfo(np.float64).eps


class _ScoringDomain:
    """The fixed central voxel set every volume of a series is scored on,
    with the reference's values and Jacobian there.

    Scoring a domain that depends on the parameters (an overlap mask)
    lets the optimizer trade alignment for mask placement and biases the
    minimum, so the domain is pinned once; eroding the border keeps its
    samples inside the field of view for the motion magnitudes being
    estimated. One domain serves all registrations of a series, which
    only read it.

    The Jacobian holds the derivatives of the reference's cubic spline at
    each voxel under a small rigid motion; gradient values within rounding
    are zero, so a direction it does not respond to has a zero column.
    ``slices`` selects the domain from a volume, and ``r_max`` is the
    largest distance of a domain voxel from the center, in mm.
    """

    ERODE_VOX = 3

    def __init__(self, reference, voxel):
        from scipy import ndimage  # motion correction only: off by default, slow to import

        self.voxel = np.asarray(voxel, dtype=np.float64)
        self.shape = np.array(reference.shape)
        margins = [min(self.ERODE_VOX, max(0, (n - 1) // 3)) for n in reference.shape]
        self.slices = domain = tuple(slice(m, n - m) for m, n in zip(margins, reference.shape))
        self.grid = np.indices(self.shape, dtype=np.float64)[(slice(None), *domain)].reshape(3, -1)
        self.reference_values = reference[domain].ravel()
        coefficients = ndimage.spline_filter(reference, order=_SPLINE_ORDER)
        self.reference_magnitude = np.abs(coefficients).max(initial=0.0)
        gradient = np.empty(self.grid.shape)
        for axis in range(3):
            taps = [_SPLINE_SLOPE_TAPS if k == axis else _SPLINE_NODE_TAPS for k in range(3)]
            kernel = np.einsum("i,j,k->ijk", *taps)
            gradient[axis] = ndimage.correlate(coefficients, kernel, mode="mirror")[domain].ravel()
        gradient[np.abs(gradient) <= _ROUNDING * self.reference_magnitude] = 0.0
        column_voxel = self.voxel[:, np.newaxis]
        gradient /= column_voxel
        # rotation k moves the sample at offset o from the center by generator_k @ o
        offsets_mm = (self.grid - (self.shape[:, np.newaxis] - 1.0) / 2.0) * column_voxel
        self.r_max = float(np.sqrt((offsets_mm * offsets_mm).sum(axis=0)).max())
        rotated = _ROTATION_GENERATORS @ offsets_mm
        # an overflow is one NumericError, checked before any solve reads them
        with np.errstate(over="ignore", invalid="ignore"):
            self.jacobian = np.concatenate([gradient,
                                            np.einsum("jn,kjn->kn", gradient, rotated)]).T
            self.normal = self.jacobian.T @ self.jacobian
        check_finite(self.jacobian, "motion estimation")
        check_finite(self.normal, "motion estimation")

    def step_voxels(self, step) -> float:
        """Bound on the distance a rigid step moves any domain sample, in
        voxels of the finest axis: (|t| + |omega| r_max) / min(voxel)."""
        reach_mm = np.linalg.norm(step[:3]) + np.linalg.norm(step[3:]) * self.r_max
        return float(reach_mm / self.voxel.min())


# a step that moves no domain sample further than this (in voxels) is
# below what the data can resolve, so the descent stops without trying it
_STEP_TOL_VOX = 1e-3
_COST_RTOL = 1e-10
_MAX_ITERATIONS = 100
_DAMPING_START = 1e-3
_DAMPING_MAX = 1e10


def _register(moving, domain: _ScoringDomain):
    """Rigid parameters aligning one volume to the domain's reference.

    The moving volume is spline-prefiltered once; each cost evaluation
    samples it with cubic interpolation at the rigidly-mapped positions
    of the domain's voxels, and the cost is the mean square of the
    differences against the reference there. At zero motion the positions
    are the domain's own nodes, where the spline interpolates the data,
    so the first residual is read off the moving volume without
    resampling. A volume whose range is within rounding does not respond
    to motion and keeps zero motion.

    Otherwise inverse-compositional damped Gauss-Newton descent runs from
    zero motion. Each iteration solves (H + damping diag H) step = J^T r,
    with the domain's fixed Jacobian J and normal matrix H, for the
    motion of the reference that explains the residual r, and composes
    the estimate with its inverse only if the exact cost then falls,
    raising the damping and re-solving otherwise. Stops, with the reason,
    when a step would move no domain sample by more than _STEP_TOL_VOX
    voxel (``step_voxels``; the step is not tried), when an accepted step
    improves the cost by less than the relative tolerance, when the
    damping saturates, or at the iteration cap. Returns (params,
    iterations, evaluations, cost, reason, last_step_vox): evaluations
    counts resamplings only, and last_step_vox is ``step_voxels`` of the
    last step solved for (0 when none was).
    """
    from scipy import ndimage  # motion correction only: off by default, slow to import

    filtered = ndimage.spline_filter(moving, order=_SPLINE_ORDER)
    evaluations = 0

    def checked_cost(residual):
        cost = float(np.mean(residual * residual))
        if not np.isfinite(cost):
            raise NumericError("non-finite registration cost")
        return cost

    def residual_and_cost(params):
        nonlocal evaluations
        evaluations += 1
        motion = RigidMotion.from_params(params)
        matrix, offset = _rigid_matrix_offset(domain.shape, motion, domain.voxel)
        coords = matrix @ domain.grid
        coords += offset[:, np.newaxis]
        sampled = ndimage.map_coordinates(
            filtered, coords, order=_SPLINE_ORDER, mode="constant", cval=0.0,
            prefilter=False,
        )
        residual = sampled - domain.reference_values
        return residual, checked_cost(residual)

    x = np.zeros(6)
    residual = moving[domain.slices].ravel() - domain.reference_values
    current = checked_cost(residual)
    magnitude = max(np.abs(filtered).max(initial=0.0), domain.reference_magnitude)
    if np.ptp(moving) <= _ROUNDING * magnitude:
        return x, 0, evaluations, current, "flat volume", 0.0
    jacobian, normal = domain.jacobian, domain.normal
    damping = _DAMPING_START
    for iteration in range(1, _MAX_ITERATIONS + 1):
        gradient = jacobian.T @ residual
        while True:
            lhs = normal + damping * np.diag(np.diag(normal))
            # lstsq: a zero column (no information) makes lhs singular
            step = np.linalg.lstsq(lhs, gradient, rcond=None)[0]
            step_vox = domain.step_voxels(step)
            if step_vox <= _STEP_TOL_VOX:
                return x, iteration, evaluations, current, "step below 1e-3 voxel", step_vox
            trial_x = _compose_inverse(x, step)
            trial_residual, trial = residual_and_cost(trial_x)
            if trial < current:
                break
            damping *= 10.0
            if damping > _DAMPING_MAX:
                return x, iteration, evaluations, current, "damping saturated", step_vox
        converged = current - trial <= _COST_RTOL * current
        x, residual, current = trial_x, trial_residual, trial
        damping = max(damping / 10.0, _DAMPING_START)
        if converged:
            return x, iteration, evaluations, current, "cost converged", step_vox
    return x, iteration, evaluations, current, "iteration cap", step_vox


def estimate_motion(vol: Volume4D, reference_index: int = 0, threads: int | None = None) -> list:
    """Rigid parameters aligning every volume to the reference volume.

    Each volume is one ``_register`` call: it minimizes the mean squared
    intensity difference between the cubic spline-resampled volume and
    the reference, scored over a fixed border-eroded domain, by
    inverse-compositional Levenberg-Marquardt from zero motion (Baker &
    Matthews 2004). The domain and the Jacobian, from the reference's
    spline gradient, are built once per series, so each iteration
    resamples the moving volume once. The reference volume gets exact
    identity parameters; a volume whose range is within rounding (flat or
    empty) keeps identity. One WARNING gives the rank of a reference's
    normal matrix below 6 (flat, or constant along an axis).

    Volumes are registered independently, up to ``threads`` at once
    (default: the usable CPUs); the resampling releases the GIL. Each
    registration runs the same arithmetic at any thread count, so the
    parameters do not depend on it. One DEBUG record per registered
    volume, in volume order, reports its iterations, cost evaluations
    (resamplings only: the zero-motion cost needs none), final cost, why
    the descent stopped and its last step in voxels (``_register``).
    """
    nt = vol.n_vols
    if not 0 <= reference_index < nt:
        raise ShapeError(f"reference index {reference_index} outside 0..{nt - 1}")
    if threads is None:
        threads = usable_cpus()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    domain = _ScoringDomain(vol.data[..., reference_index], vol.header.voxel_size_mm)
    if (rank := np.linalg.matrix_rank(domain.normal)) < 6:
        logger.warning("reference volume %d: normal matrix rank %d of 6, so not every "
                       "motion parameter is constrained", reference_index, rank)
    moving = [i for i in range(nt) if i != reference_index]
    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(moving)))) as pool:
        registered = list(pool.map(lambda i: _register(vol.data[..., i], domain), moving))

    estimates = [RigidMotion() for _ in range(nt)]
    for i, (params, *report) in zip(moving, registered):
        logger.debug("volume %d: %d iterations, %d cost evaluations, final cost %.6g, "
                     "stopped: %s, last step %.3g voxel", i, *report)
        estimates[i] = RigidMotion.from_params(params)
    return estimates


def apply_motion(vol: Volume4D, motion: list, in_place: bool = False) -> Volume4D:
    """Realign every volume by resampling through its estimated transform.

    Identity parameters leave a volume's data as it is (no resampling
    pass), so an already-still series is untouched. The result goes into a
    new array, or into vol.data itself when in_place (``output_array``):
    each volume is resampled on its own, into one volume of scratch, and
    only then written over its input. Each resampled volume is checked for
    finiteness as it is written: one that overflows float64 raises
    NumericError.
    """
    if len(motion) != vol.n_vols:
        raise ShapeError(f"{len(motion)} motion entries for {vol.n_vols} volumes")
    out = output_array(vol.header.dims, vol.data if in_place else None)
    for i, m in enumerate(motion):
        if np.any(m.params):
            out[..., i] = resample_rigid(vol.data[..., i], m, vol.header.voxel_size_mm)
            check_finite(out[..., i], "motion correction")
        elif out is not vol.data:
            out[..., i] = vol.data[..., i]
    return Volume4D._checked(vol.header, out)


def fwhm_to_sigma_vox(fwhm_mm: float, voxel_size_mm) -> np.ndarray:
    """Per-axis Gaussian sigma in voxels for a given FWHM in mm."""
    voxel = np.asarray(voxel_size_mm, dtype=np.float64)
    return fwhm_mm * FWHM_TO_SIGMA / voxel


def gaussian_kernel_1d(sigma_vox: float, max_radius: int | None = None) -> np.ndarray:
    """Unit-sum Gaussian taps truncated at 4 sigma (identity for tiny sigma).

    max_radius caps the taps on either side; along an axis of n voxels,
    taps beyond n - 1 never meet data, so a cap of n - 1 changes nothing.
    """
    radius = KERNEL_TRUNCATE_SIGMAS * sigma_vox
    if max_radius is not None:
        radius = min(radius, max_radius)
    radius = int(radius)
    if radius < 1:
        return np.array([1.0])
    taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma_vox) ** 2)
    return taps / taps.sum()


SMOOTH_TILE = 32


@functools.lru_cache(maxsize=8)
def _axis_taps(n: int, sigma_vox: float) -> tuple | None:
    """(radius, weights, mass) of the truncated Gaussian along an axis of
    n voxels, or None when it is the identity: weights[i, j] is the tap
    at distance |i - j| (an n x n read-only view of 2n - 1 floats) and
    mass[i] the sum of row i, its in-field mass.

    Summing the rows takes n**2 additions, so the result is kept per
    (n, sigma_vox), at 24 * n bytes an entry: the runs of a set, all of
    one shape, pay it once per axis.
    """
    kernel = gaussian_kernel_1d(sigma_vox, max_radius=n - 1)
    radius = kernel.size // 2
    if radius == 0:
        return None
    # tap weight by distance |i - j|, zero beyond the radius
    by_distance = np.zeros(n)
    by_distance[:radius + 1] = kernel[radius:]
    # reversed, window i of the mirrored taps starts at distance i: row i
    # is by_distance[|i - j|], a view
    weights = sliding_window_view(np.concatenate([by_distance[:0:-1], by_distance]), n)[::-1]
    # numpy sums a row pairwise, so rows with the same taps at other
    # positions can differ in the last bit of their mass
    mass = weights.sum(axis=1, keepdims=True)
    mass.flags.writeable = False
    return radius, weights, mass


def _axis_tiles(n: int, sigma_vox: float) -> tuple | None:
    """The smoothing along one axis as (weights, mass, windows), from
    _axis_taps; None when it is the identity. For each (rows, cols) window
    the output rows are weights[rows, cols] / mass[rows] @ the input cols.

    That operator holds those rows and columns of the n x n matrix of the
    truncated Gaussian, each row divided by its in-field mass, the sum of
    the whole row, so a tile's rows equal the whole operator's bit for
    bit. The output is cut into tiles of t = SMOOTH_TILE rows (read at
    each call), each reading the window of inputs within the kernel
    radius r of them, so the products skip the inputs beyond the kernel's
    band; an axis of at most t voxels is one tile, the whole n x n
    operator. No operator is built here: _smooth_chunks builds each as
    its tile is applied.
    """
    taps = _axis_taps(n, sigma_vox)
    if taps is None:
        return None
    radius, weights, mass = taps
    windows = [(slice(start, min(start + SMOOTH_TILE, n)),
                slice(max(0, start - radius), min(n, start + SMOOTH_TILE + radius)))
               for start in range(0, n, SMOOTH_TILE)]
    return weights, mass, windows


def _axis_smoothing_operator(n: int, sigma_vox: float) -> np.ndarray | None:
    """The whole n x n smoothing operator along one axis, each row divided
    by its mass as in every tile of _axis_tiles; None when it is the
    identity."""
    taps = _axis_taps(n, sigma_vox)
    return None if taps is None else taps[1] / taps[2]


@np.errstate(over="ignore", invalid="ignore")  # an overflow is one NumericError, below
def gaussian_smooth(vol: Volume4D, fwhm_mm: float, in_place: bool = False) -> Volume4D:
    """Separable 3-axis Gaussian smoothing with border renormalization.

    Each axis is a matrix product with a row-normalised operator, applied
    in tiles along long axes (see _axis_tiles), on the x-fastest data, so
    every output voxel is the Gaussian-weighted mean of the in-field
    voxels around it: outside-volume support is excluded rather than read
    as zero, and constant volumes stay constant all the way to the edges.
    This equals zero-padded convolution divided by the smoothed indicator
    of the field of view.

    The result goes into a new array, or into vol.data itself when
    in_place (``output_array``); with no axis to smooth, vol is returned
    as it is. Volumes are smoothed independently, a chunk of whole
    volumes (about 1 MB, see time_blocks) at a time, through at most two
    chunk-sized scratch buffers (_smooth_chunks); beyond the output, no
    run-sized array is allocated, and each tile's operator is built as it
    is applied and never kept, so one operator takes at most
    8 * t * min(n, t + 2r) bytes (t = SMOOTH_TILE) at any kernel radius r
    along an axis of n voxels. Each chunk's result is checked for
    finiteness while in cache: one that overflows float64 raises
    NumericError.
    """
    if not fwhm_mm > 0:  # NaN too
        raise ValueError("fwhm_mm must be positive")
    sigmas = fwhm_to_sigma_vox(fwhm_mm, vol.header.voxel_size_mm)
    dims = vol.header.dims
    passes = [(axis, tiles) for axis, sigma in enumerate(sigmas)
              if (tiles := _axis_tiles(dims[axis], sigma)) is not None]
    if not passes:
        return vol
    out = output_array(vol.header.dims, vol.data if in_place else None)
    _smooth_chunks(vol.data, passes, out)
    return Volume4D._checked(vol.header, out)


def _smooth_chunks(data: np.ndarray, passes: list, out: np.ndarray) -> None:
    """Apply the (axis, tiles) passes to data into out, which may be data
    itself, a chunk of volumes at a time; the scratch buffers are freed on
    return.

    Each tile's operator (see _axis_tiles) is built right before its
    product and dropped after it; rebuilding it for each chunk costs a few
    microseconds a tile.
    Within a chunk every pass but the last writes one of two chunk-sized
    scratch buffers, alternately, and the last writes the chunk's slab of
    out, so a pass never writes the array it reads. A single pass made in
    place would, so it writes the scratch, which is then copied into the
    slab. Each chunk's result is checked (check_finite) before it is left.
    """
    blocks = time_blocks(data.shape)
    last = len(passes) - 1
    copied = last == 0 and out is data  # the one pass writes the scratch
    scratch = [np.empty(data[..., blocks[0]].shape, order="F")
               for _ in range(1 if copied else min(2, last))]
    for block in blocks:
        src = data[..., block]
        slab = out[..., block]
        chunk_dims = src.shape
        for i, (axis, (weights, mass, windows)) in enumerate(passes):
            dst = slab if i == last and not copied else scratch[i % 2][..., :chunk_dims[3]]
            # batches of (before, n) x-fastest matrices, one per index of the later axes
            before, n = math.prod(chunk_dims[:axis]), chunk_dims[axis]
            after = math.prod(chunk_dims[axis + 1:])
            a = src.reshape((before, n, after), order="F").transpose(2, 0, 1)
            b = dst.reshape((before, n, after), order="F").transpose(2, 0, 1)
            if before == 1:  # x axis: one (after, n) product, not `after` one-row products
                a, b = a[:, 0], b[:, 0]
            for rows, cols in windows:
                np.matmul(a[..., cols], (weights[rows, cols] / mass[rows]).T, out=b[..., rows])
            src = dst
        check_finite(src, "smoothing")
        if src is not slab:
            slab[...] = src


def highpass_filter(vol: Volume4D, cutoff_hz: float) -> Volume4D:
    """Remove slow drift below the cutoff from every voxel series.

    Each series is residualized against the DCT drift basis plus the
    constant, then its original mean is restored so baseline intensity
    survives. Filtering is idempotent.
    """
    nt = vol.n_vols
    if nt < 4:
        raise InsufficientDataError("high-pass filtering needs at least 4 volumes")
    basis = dct_highpass_basis(nt, vol.header.tr_seconds, cutoff_hz)
    constant = np.full((nt, 1), 1.0 / np.sqrt(nt))
    q = np.hstack([constant, basis])

    series = voxel_series(vol)
    means = series.mean(axis=0)
    filtered = series - q @ (q.T @ series) + means
    return Volume4D(header=vol.header, data=fold_voxels(filtered, vol.spatial_dims))
