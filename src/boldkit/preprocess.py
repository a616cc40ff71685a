"""Temporal and spatial conditioning of 4-D series.

Slice-timing correction, rigid-body motion estimation/correction,
separable Gaussian smoothing, and DCT-based high-pass filtering. The
canonical order mirrors the analysis chain: slice timing, then motion,
then smoothing, with drift handled inside the GLM (or here, standalone).
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .config import usable_cpus
from .errors import InsufficientDataError, NumericError, ShapeError
from .task_design import dct_highpass_basis
from .volume_io import Volume4D, fold_voxels, voxel_series

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
KERNEL_TRUNCATE_SIGMAS = 4.0
# Slice timing switches from an nt x nt matrix product to an FFT above this
# many volumes: on a 2-vCPU x86 VM the matrix was faster up to about 1500.
_MAX_MATRIX_VOLS = 1024

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
    so R[m, t] = kernel[(t - m) mod 2*nt] + kernel[t + m + 1].
    """
    nt = kernel.size // 2
    k = np.arange(nt)
    return kernel[(k - k[:, np.newaxis]) % (2 * nt)] + kernel[k + k[:, np.newaxis] + 1]


def slice_timing_correct(vol: Volume4D, order: SliceOrder) -> Volume4D:
    """Shift every slice's series to the reference time within the TR.

    Each series is resampled by a Fourier phase shift (sinc
    interpolation), mirrored first so that its periodic extension has no
    jump at the ends. A phase shift passes every frequency at unit gain,
    so white noise stays white; linear interpolation between volumes
    would low-pass it, removing up to half its variance and giving lag-1
    autocorrelation up to 0.5, which inflates OLS t-values. The
    operation is linear in the data.

    Up to _MAX_MATRIX_VOLS volumes the shift is applied as an nt x nt
    matrix product per slice; longer series use a batched FFT per slice,
    which is O(nt log nt) per voxel instead of O(nt^2).
    """
    nx, ny, nz, nt = vol.header.dims
    if nz != len(order.acquisition_sequence):
        raise ShapeError(
            f"volume has {nz} slices but the order describes {len(order.acquisition_sequence)}"
        )
    if nt < 2:
        raise InsufficientDataError("slice timing correction needs at least 2 volumes")

    tr = vol.header.tr_seconds
    reference_s = order.reference_fraction * tr
    offsets = slice_offsets_s(order, tr)

    freqs = np.fft.rfftfreq(2 * nt)
    out = np.empty(vol.header.dims, order="F")
    for z in range(nz):
        shift_vols = (reference_s - offsets[z]) / tr
        # spectrum of the 2*nt-periodic kernel that advances a series by shift_vols
        phase = np.exp(2j * np.pi * freqs * shift_vols)
        # (nx*ny, nt) views of slice z, x-fastest
        series = vol.data[:, :, z, :].reshape(nx * ny, nt, order="F")
        shifted = out[:, :, z, :].reshape(nx * ny, nt, order="F")
        if nt <= _MAX_MATRIX_VOLS:
            np.matmul(series, _mirrored_shift_matrix(np.fft.irfft(phase, n=2 * nt)), out=shifted)
        else:
            spectrum = np.fft.rfft(np.concatenate([series, series[:, ::-1]], axis=1), axis=1)
            shifted[...] = np.fft.irfft(spectrum * phase, n=2 * nt, axis=1)[:, :nt]
    return Volume4D(header=vol.header, data=out)


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


def _rotation_derivatives(rotation_rad):
    """dR/drx, dR/dry, dR/drz of ``rotation_matrix`` (R = Rz Ry Rx)."""
    rx, ry, rz = rotation_rad
    mx = rotation_matrix([rx, 0.0, 0.0])
    my = rotation_matrix([0.0, ry, 0.0])
    mz = rotation_matrix([0.0, 0.0, rz])
    kx, ky, kz = _ROTATION_GENERATORS
    return mz @ my @ mx @ kx, mz @ my @ ky @ mx, kz @ mz @ my @ mx


def invert_rigid(motion: RigidMotion) -> RigidMotion:
    """Parameters of the inverse transform (same axis-order convention)."""
    rot = rotation_matrix(motion.rotation_rad)
    inv_rot = rot.T
    # Euler angles of the transposed matrix under the z@y@x composition
    ry = np.arcsin(-inv_rot[2, 0])
    rx = np.arctan2(inv_rot[2, 1], inv_rot[2, 2])
    rz = np.arctan2(inv_rot[1, 0], inv_rot[0, 0])
    return RigidMotion(
        translation_mm=-(inv_rot @ motion.translation_mm),
        rotation_rad=np.array([rx, ry, rz]),
    )


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
    data3d = np.asarray(data3d, dtype=np.float64)
    voxel = np.asarray(voxel_size_mm, dtype=np.float64)
    matrix, offset = _rigid_matrix_offset(data3d.shape, motion, voxel)
    return ndimage.affine_transform(
        data3d, matrix, offset=offset, order=1, mode="constant", cval=0.0, prefilter=False
    )


class _ScoringDomain:
    """The fixed central voxel set every volume of a series is scored on,
    with the reference's values there.

    Scoring a domain that depends on the parameters (an overlap mask)
    lets the optimizer trade alignment for mask placement and biases the
    minimum, so the domain is pinned once; eroding the border keeps its
    samples inside the field of view for the motion magnitudes being
    estimated. One domain serves all registrations of a series, which
    only read it.
    """

    ERODE_VOX = 3

    def __init__(self, reference, voxel):
        self.voxel = np.asarray(voxel, dtype=np.float64)
        self.shape = np.array(reference.shape)
        margins = [min(self.ERODE_VOX, max(0, (n - 1) // 3)) for n in reference.shape]
        domain = tuple(slice(m, n - m) for m, n in zip(margins, reference.shape))
        grids = np.meshgrid(
            *[np.arange(n, dtype=np.float64)[d] for n, d in zip(reference.shape, domain)],
            indexing="ij",
        )
        self.grid = np.stack([g.ravel() for g in grids], axis=0)
        center_mm = (self.shape - 1.0) / 2.0 * self.voxel
        self.offsets_mm = self.grid * self.voxel[:, np.newaxis] - center_mm[:, np.newaxis]
        self.reference_values = reference[domain].ravel()
        self.reference_magnitude = np.abs(self.reference_values).max(initial=0.0)


class _AlignmentCost:
    """Residuals between a spline-resampled volume and the reference over
    a scoring domain.

    The moving volume is spline-prefiltered once; each evaluation then
    samples it with cubic interpolation at the rigidly-mapped positions
    of the domain's voxels and returns the differences against the
    reference there, with their mean square as the cost.
    """

    ORDER = 3
    # differences below this many units in the last place of the data
    # are rounding, not signal
    ROUNDING_ULPS = 1000.0

    def __init__(self, moving, domain: _ScoringDomain):
        self.filtered = ndimage.spline_filter(moving, order=self.ORDER)
        self.domain = domain
        magnitude = max(np.abs(self.filtered).max(initial=0.0), domain.reference_magnitude)
        self.rounding = self.ROUNDING_ULPS * np.finfo(np.float64).eps * magnitude
        self.evaluations = 0

    def __call__(self, params):
        """Residual vector (sampled - reference) and its mean square."""
        self.evaluations += 1
        domain = self.domain
        motion = RigidMotion.from_params(params)
        matrix, offset = _rigid_matrix_offset(domain.shape, motion, domain.voxel)
        coords = matrix @ domain.grid
        coords += offset[:, np.newaxis]
        sampled = ndimage.map_coordinates(
            self.filtered, coords, order=self.ORDER, mode="constant", cval=0.0,
            prefilter=False,
        )
        residual = sampled - domain.reference_values
        cost = float(np.mean(residual * residual))
        if not np.isfinite(cost):
            raise NumericError("non-finite registration cost")
        return residual, cost

    def jacobian(self, params, residual):
        """Derivatives of the residuals, one column per parameter.

        A translation shifts every sample along one voxel axis, so forward
        differences in the three translations give the image gradient at
        the sampled positions; the rotation columns follow from it by the
        chain rule through dR/dangle. A probe that moves no sample beyond
        rounding carries no information and leaves its column zero.
        """
        jac = np.zeros((residual.size, 6))
        for axis in range(3):
            probe = params.copy()
            probe[axis] += _FD_STEP_MM
            delta = self(probe)[0] - residual
            if np.abs(delta).max() > self.rounding:
                jac[:, axis] = delta / _FD_STEP_MM
        for k, d_rot in enumerate(_rotation_derivatives(params[3:])):
            jac[:, 3 + k] = np.einsum("nj,jn->n", jac[:, :3], d_rot @ self.domain.offsets_mm)
        return jac


_FD_STEP_MM = 1e-4
# 1 mm of translation and 0.02 rad of rotation move the domain's samples
# by comparable distances, so the step tolerance scales the same way
_STEP_TOL = 1e-7 * np.array([1.0, 1.0, 1.0, 0.02, 0.02, 0.02])
_COST_RTOL = 1e-10
_MAX_ITERATIONS = 100
_DAMPING_START = 1e-3
_DAMPING_MAX = 1e10


def _levenberg_marquardt(cost):
    """Damped Gauss-Newton descent on ``cost`` from zero motion.

    Each iteration solves the Marquardt-scaled 6x6 normal equations for
    a step and accepts it only if the exact cost falls, raising the
    damping and re-solving otherwise. Stops when the step falls below
    the parameter tolerance, when an accepted step improves the cost by
    less than the relative tolerance, or when the damping saturates.
    Returns (params, cost, iterations).
    """
    x = np.zeros(6)
    residual, current = cost(x)
    damping = _DAMPING_START
    for iteration in range(1, _MAX_ITERATIONS + 1):
        jac = cost.jacobian(x, residual)
        gradient = jac.T @ residual
        normal = jac.T @ jac
        del jac  # so the next Jacobian does not coexist with this one
        while True:
            lhs = normal + damping * np.diag(np.diag(normal))
            # lstsq: a zero column (no information) makes lhs singular
            step = np.linalg.lstsq(lhs, -gradient, rcond=None)[0]
            if np.all(np.abs(step) <= _STEP_TOL):
                return x, current, iteration
            trial_residual, trial = cost(x + step)
            if trial < current:
                break
            damping *= 10.0
            if damping > _DAMPING_MAX:
                return x, current, iteration
        converged = current - trial <= _COST_RTOL * current
        x, residual, current = x + step, trial_residual, trial
        damping = max(damping / 10.0, _DAMPING_START)
        if converged:
            break
    return x, current, iteration


def estimate_motion(vol: Volume4D, reference_index: int = 0, threads: int | None = None) -> list:
    """Rigid parameters aligning every volume to the reference volume.

    Minimizes the mean squared intensity difference between the cubic
    spline-resampled volume and the reference, scored over a fixed
    border-eroded domain, by damped Gauss-Newton (Levenberg-Marquardt)
    least squares from zero motion; the Jacobian combines forward-difference
    image gradients with the analytic derivative of the rigid map.
    The reference volume gets exact identity parameters; a volume whose
    samples do not respond to motion (flat or empty) keeps identity.

    Volumes are registered independently, up to ``threads`` at once
    (default: the usable CPUs); the resampling releases the GIL. Each
    registration runs the same arithmetic at any thread count, so the
    parameters do not depend on it. One DEBUG record per registered
    volume, in volume order, reports its iterations, cost evaluations and
    final cost.
    """
    nt = vol.n_vols
    if not 0 <= reference_index < nt:
        raise ShapeError(f"reference index {reference_index} outside 0..{nt - 1}")
    if threads is None:
        threads = usable_cpus()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    domain = _ScoringDomain(vol.data[..., reference_index], vol.header.voxel_size_mm)
    moving = [i for i in range(nt) if i != reference_index]

    def register(i):
        cost = _AlignmentCost(vol.data[..., i], domain)
        return _levenberg_marquardt(cost), cost.evaluations

    with ThreadPoolExecutor(max_workers=max(1, min(threads, len(moving)))) as pool:
        registered = list(pool.map(register, moving))

    estimates = [RigidMotion() for _ in range(nt)]
    for i, ((params, final_cost, iterations), evaluations) in zip(moving, registered):
        logger.debug(
            "volume %d: %d iterations, %d cost evaluations, final cost %.6g",
            i, iterations, evaluations, final_cost,
        )
        estimates[i] = RigidMotion.from_params(params)
    return estimates


def apply_motion(vol: Volume4D, motion: list) -> Volume4D:
    """Realign every volume by resampling through its estimated transform.

    Identity parameters return the input data unchanged (no resampling
    pass), so an already-still series is untouched.
    """
    if len(motion) != vol.n_vols:
        raise ShapeError(f"{len(motion)} motion entries for {vol.n_vols} volumes")
    out = np.empty_like(vol.data)
    for i, m in enumerate(motion):
        if not np.any(m.params):
            out[..., i] = vol.data[..., i]
        else:
            out[..., i] = resample_rigid(vol.data[..., i], m, vol.header.voxel_size_mm)
    return Volume4D(header=vol.header, data=out)


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


def _axis_smoothing_operator(n: int, sigma_vox: float) -> np.ndarray | None:
    """n x n matrix of the truncated Gaussian along one axis, each row
    divided by its in-field mass; None when it is the identity."""
    kernel = gaussian_kernel_1d(sigma_vox, max_radius=n - 1)
    radius = kernel.size // 2
    if radius == 0:
        return None
    # tap weight by distance |i - j|, zero beyond the radius
    by_distance = np.zeros(n)
    by_distance[:radius + 1] = kernel[radius:]
    operator = by_distance[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
    return operator / operator.sum(axis=1, keepdims=True)


def gaussian_smooth(vol: Volume4D, fwhm_mm: float) -> Volume4D:
    """Separable 3-axis Gaussian smoothing with border renormalization.

    Each axis is one matrix product with a small row-normalised operator
    (see _axis_smoothing_operator) on the x-fastest data, so every output
    voxel is the Gaussian-weighted mean of the in-field voxels around it:
    outside-volume support is excluded rather than read as zero, and
    constant volumes stay constant all the way to the edges. This equals
    zero-padded convolution divided by the smoothed indicator of the
    field of view.
    """
    if fwhm_mm <= 0:
        raise ValueError("fwhm_mm must be positive")
    sigmas = fwhm_to_sigma_vox(fwhm_mm, vol.header.voxel_size_mm)
    dims = vol.header.dims

    data, spare = vol.data, None
    for axis, sigma in enumerate(sigmas):
        operator = _axis_smoothing_operator(dims[axis], sigma)
        if operator is None:
            continue
        out = np.empty(dims, order="F") if spare is None else spare
        # batches of (before, n) x-fastest matrices, one per index of the later axes
        before, n, after = math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:])
        src = data.reshape((before, n, after), order="F").transpose(2, 0, 1)
        dst = out.reshape((before, n, after), order="F").transpose(2, 0, 1)
        if before == 1:  # x axis: one (after, n) product, not `after` one-row products
            src, dst = src[:, 0], dst[:, 0]
        np.matmul(src, operator.T, out=dst)
        spare = None if data is vol.data else data
        data = out
    return Volume4D(header=vol.header, data=data)


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
