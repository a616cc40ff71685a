"""Task regressors and GLM design matrices.

A block paradigm becomes a microtime boxcar, is convolved with the
canonical double-gamma hemodynamic response, decimated to the volume
grid, and assembled with discrete-cosine drift columns and an intercept,
one drift block and one intercept per run when runs are stacked along
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, OutOfRangeError, ShapeError

DEFAULT_OVERSAMPLE = 16
DEFAULT_CUTOFF_HZ = 0.005
# Most microtime steps a sampled HRF kernel may span (8 MB of float64).
MAX_HRF_STEPS = 2**20

LABEL_TASK = "task"
LABEL_DRIFT = "drift"
LABEL_INTERCEPT = "intercept"


@dataclass(frozen=True)
class BlockDesign:
    """Block paradigm: stimulation intervals within one run.

    Onsets are strictly increasing, blocks do not overlap, and every
    block ends within the run.
    """

    onsets_s: tuple
    durations_s: tuple
    run_length_s: float

    def __post_init__(self):
        onsets = tuple(float(o) for o in self.onsets_s)
        durations = tuple(float(d) for d in self.durations_s)
        object.__setattr__(self, "onsets_s", onsets)
        object.__setattr__(self, "durations_s", durations)
        object.__setattr__(self, "run_length_s", float(self.run_length_s))
        if len(onsets) != len(durations):
            raise ShapeError("onsets and durations must have the same length")
        if self.run_length_s <= 0:
            raise ValueError("run_length_s must be positive")
        if any(o < 0 for o in onsets):
            raise ValueError("onsets must be non-negative")
        if any(d <= 0 for d in durations):
            raise ValueError("durations must be positive")
        if any(b >= a for a, b in zip(onsets[1:], onsets[:-1])):
            raise ValueError("onsets must be strictly increasing")
        for i, (o, d) in enumerate(zip(onsets, durations)):
            if o + d > self.run_length_s + 1e-9:
                raise ValueError(f"block {i} ends at {o + d} s, past run end {self.run_length_s} s")
            if i + 1 < len(onsets) and o + d > onsets[i + 1] + 1e-9:
                raise ValueError(f"block {i} overlaps block {i + 1}")


def alternating_block_design(block_s=30.0, run_length_s=300.0) -> BlockDesign:
    """Alternating task/rest blocks of equal length, task first.

    Only blocks that end within the run are emitted.
    """
    onsets = np.arange(0.0, run_length_s - block_s + 1e-9, 2.0 * block_s)
    return BlockDesign(
        onsets_s=tuple(onsets),
        durations_s=tuple(block_s for _ in onsets),
        run_length_s=run_length_s,
    )


@dataclass(frozen=True)
class HrfParams:
    """Double-gamma hemodynamic response parameters (seconds).

    The response is the gamma density at the peak delay minus the
    undershoot gamma density divided by the undershoot ratio.
    """

    peak_delay_s: float = 6.0
    undershoot_delay_s: float = 16.0
    peak_dispersion_s: float = 1.0
    undershoot_dispersion_s: float = 1.0
    undershoot_ratio: float = 6.0
    kernel_length_s: float = 32.0

    def __post_init__(self):
        if min(
            self.peak_delay_s,
            self.undershoot_delay_s,
            self.peak_dispersion_s,
            self.undershoot_dispersion_s,
            self.undershoot_ratio,
            self.kernel_length_s,
        ) <= 0:
            raise ValueError("all HRF parameters must be positive")
        if self.undershoot_delay_s <= self.peak_delay_s:
            raise ValueError("undershoot delay must exceed peak delay")
        if self.kernel_length_s < self.undershoot_delay_s:
            raise ValueError("kernel length must cover the undershoot delay")


DEFAULT_HRF = HrfParams()


@dataclass
class DesignMatrix:
    """N x P regression design with one label per column.

    Labels are drawn from {task, drift, intercept}; a design for runs
    stacked along time has one intercept column per run. Columns may be
    linearly dependent: ``fit_glm`` then takes the minimum-norm solution
    and reports the effective rank (``GlmFit.rank``).
    """

    values: np.ndarray
    column_labels: list

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError("design matrix must be 2-D")
        if self.values.shape[1] != len(self.column_labels):
            raise ShapeError("one label per design column required")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]

    def columns_labeled(self, label: str) -> np.ndarray:
        return np.array([i for i, lab in enumerate(self.column_labels) if lab == label])


def check_run_window(design: BlockDesign, tr_s: float, n_vols: int) -> None:
    """The runs a design can be sampled on: n_vols volumes at TR tr_s cover
    the run to within one TR, and every block ends within the volumes.
    Raises OutOfRangeError otherwise.
    """
    window_s = n_vols * tr_s
    if window_s < design.run_length_s - tr_s:
        raise OutOfRangeError(
            f"{n_vols} volumes at TR {tr_s} s cover {window_s} s, "
            f"short of the {design.run_length_s} s run"
        )
    for onset, duration in zip(design.onsets_s, design.durations_s):
        if onset + duration > window_s + 1e-9:
            raise OutOfRangeError(
                f"block at {onset} s extends past the {window_s} s sampled window"
            )


def boxcar(design: BlockDesign, tr_s: float, n_vols: int, oversample: int = 1) -> np.ndarray:
    """Sample the block paradigm on the microtime grid.

    Sample i sits at time i * tr_s / oversample and is 1 inside any block
    (half-open [onset, onset + duration)), 0 elsewhere.
    """
    if tr_s <= 0 or n_vols < 1 or oversample < 1:
        raise ValueError("tr_s, n_vols and oversample must be positive")
    check_run_window(design, tr_s, n_vols)
    t = np.arange(n_vols * oversample, dtype=np.float64) * (tr_s / oversample)
    box = np.zeros(t.shape, dtype=np.float64)
    for onset, duration in zip(design.onsets_s, design.durations_s):
        box[(t >= onset) & (t < onset + duration)] = 1.0
    return box


# Cephes lgam (S. L. Moshier): Stirling's series past 13, a rational
# approximation on [2, 3] below it, coefficients from the highest power down.
_LGAM_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
                  7.93650340457716943945e-4, -2.77777777730099687205e-3,
                  8.33333333333331927722e-2)
_LGAM_NUMERATOR = (-1.37825152569120859100e3, -3.88016315134637840924e4,
                   -3.31612992738871184744e5, -1.16237097492762307383e6,
                   -1.72173700820839662146e6, -8.53555664245765465627e5)
_LGAM_DENOMINATOR = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4,
                     -2.20528590553854454839e5, -1.13933444367982507207e6,
                     -2.53252307177582951285e6, -2.01889141433532773231e6)
_LOG_SQRT_2PI = 0.91893853320467274178


def _horner(x: float, coefficients) -> float:
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _log_gamma(x: float) -> float:
    """ln Gamma(x) for finite x > 0, operation for operation as Cephes lgam
    computes it, so it equals scipy.special.gammaln bit for bit (which
    math.lgamma does not: it differs in the last bit at 6, 16 and 6.67).
    """
    if x < 13.0:
        z, shift, u = 1.0, 0.0, x
        while u >= 3.0:
            shift -= 1.0
            u = x + shift
            z *= u
        while u < 2.0:
            z /= u
            shift += 1.0
            u = x + shift
        if u == 2.0:
            return math.log(z)
        x += shift - 2.0
        return math.log(z) + x * _horner(x, _LGAM_NUMERATOR) / _horner(x, _LGAM_DENOMINATOR)
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1.0e8:
        return q
    w = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * w - 2.7777777777777777777778e-3) * w
                    + 0.0833333333333333333333) / x
    return q + _horner(w, _LGAM_STIRLING) / x


def _gamma_pdf(t: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """Gamma density at t >= 0, in closed form through its logarithm.

    This is the evaluation scipy.stats.gamma.pdf performs, term for term
    and bit for bit, with no scipy import: this module is loaded by every
    CLI call, and scipy.special alone would add about 0.25 s to each. The
    logarithms are libm's (math.log, as scipy's xlogy uses), since numpy's
    own np.log differs from it in the last bit on some inputs, and ln
    Gamma(shape) is ``_log_gamma``.
    """
    x = t / scale
    a = shape - 1.0
    if a == 0.0:  # xlogy(0, x) is 0, also at x = 0
        log_term = np.zeros(x.shape)
    else:
        log_term = np.full(x.shape, -math.inf)
        positive = x > 0.0
        log_term[positive] = np.fromiter(map(math.log, x[positive].tolist()), np.float64,
                                         np.count_nonzero(positive))
        log_term *= a
    return np.exp(log_term - x - _log_gamma(shape)) / scale


def check_hrf_step(dt_s: float, params: HrfParams = DEFAULT_HRF) -> None:
    """The steps the HRF can be sampled at: no longer than the kernel, and
    no finer than MAX_HRF_STEPS steps per kernel. A design's step is its
    TR over the oversampling factor. Raises OutOfRangeError otherwise.
    """
    shortest = params.kernel_length_s / MAX_HRF_STEPS
    if not shortest <= dt_s <= params.kernel_length_s:  # also rejects NaN
        raise OutOfRangeError(
            f"HRF step {dt_s} s (a design's TR / {DEFAULT_OVERSAMPLE}) is outside "
            f"[{shortest}, {params.kernel_length_s}] s, the steps its kernel can be sampled at"
        )


def canonical_hrf(params: HrfParams = DEFAULT_HRF, dt_s: float = 0.1) -> np.ndarray:
    """Canonical double-gamma response sampled at 0, dt, ..., kernel length.

    The kernel is normalized to unit peak so a regression coefficient
    reads as peak response amplitude. dt_s must pass ``check_hrf_step``.
    """
    check_hrf_step(dt_s, params)
    t = np.arange(0.0, params.kernel_length_s + dt_s * 0.5, dt_s)
    peak = _gamma_pdf(t, params.peak_delay_s / params.peak_dispersion_s,
                      params.peak_dispersion_s)
    under = _gamma_pdf(t, params.undershoot_delay_s / params.undershoot_dispersion_s,
                       params.undershoot_dispersion_s)
    kernel = peak - under / params.undershoot_ratio
    if not np.all(np.isfinite(kernel)):
        raise NumericError("gamma density evaluation produced non-finite values")
    top = kernel.max()
    if top <= 0:
        raise NumericError("HRF kernel has no positive lobe")
    return kernel / top


def convolve_regressor(box: np.ndarray, kernel: np.ndarray, oversample: int) -> np.ndarray:
    """Convolve a microtime boxcar with the HRF and decimate to the TR grid.

    Linear convolution is truncated to the run, then every oversample-th
    sample is kept. Mean-centering is left to the design intercept.
    """
    box = np.asarray(box, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    if oversample < 1:
        raise ValueError("oversample must be a positive integer")
    if box.ndim != 1 or kernel.ndim != 1:
        raise ShapeError("boxcar and kernel must be 1-D")
    if box.size % oversample != 0:
        raise ShapeError(
            f"boxcar length {box.size} is not a whole number of volumes at oversample {oversample}"
        )
    full = np.convolve(box, kernel)[: box.size]
    return full[::oversample].copy()


def task_regressor(design: BlockDesign, tr_s: float, n_vols: int,
                   oversample: int = DEFAULT_OVERSAMPLE,
                   hrf: HrfParams = DEFAULT_HRF) -> np.ndarray:
    """Boxcar -> canonical HRF convolution -> TR grid, in one call."""
    box = boxcar(design, tr_s, n_vols, oversample)
    kernel = canonical_hrf(hrf, dt_s=tr_s / oversample)
    return convolve_regressor(box, kernel, oversample)


def check_cutoff(tr_s: float, cutoff_hz: float) -> None:
    """The drift cutoffs a run at TR tr_s can carry: positive and below
    its Nyquist frequency 1 / (2 * tr_s). Raises ValueError otherwise,
    first for a TR that is not finite and positive."""
    if not 0 < tr_s < math.inf:  # NaN too
        raise ValueError(f"tr_s must be finite and positive, got {tr_s}")
    if not cutoff_hz > 0:  # NaN too
        raise ValueError("cutoff_hz must be positive")
    if cutoff_hz >= 1.0 / (2.0 * tr_s):
        raise ValueError(f"cutoff {cutoff_hz} Hz at TR {tr_s} s is not below Nyquist")


def dct_highpass_basis(n_vols: int, tr_s: float, cutoff_hz: float) -> np.ndarray:
    """Discrete-cosine drift columns below the cutoff frequency.

    Returns K = floor(2 * n_vols * tr_s * cutoff_hz) unit-norm columns,
    column k being cos(pi * k * (2n + 1) / (2N)); K may be zero.
    cutoff_hz must pass ``check_cutoff``.
    """
    check_cutoff(tr_s, cutoff_hz)
    n = int(n_vols)
    k_max = int(np.floor(2.0 * n * tr_s * cutoff_hz))
    basis = np.empty((n, k_max), dtype=np.float64)
    grid = 2.0 * np.arange(n) + 1.0
    for k in range(1, k_max + 1):
        col = np.cos(np.pi * k * grid / (2.0 * n))
        basis[:, k - 1] = col / np.linalg.norm(col)
    return basis


def build_design_matrix(design: BlockDesign, tr_s: float, run_lengths,
                        cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> DesignMatrix:
    """Design for runs stacked along time, built in one preallocated matrix.

    Columns are one task column spanning all runs, then each run's DCT
    drift block, then one intercept per run; a run's drift and intercept
    columns are zero outside its own rows. A rank-deficient result is
    not rejected: fits fall back to the minimum-norm solution.
    """
    tasks = [task_regressor(design, tr_s, n) for n in run_lengths]
    drifts = [dct_highpass_basis(n, tr_s, cutoff_hz) for n in run_lengths]
    n_drift = sum(drift.shape[1] for drift in drifts)
    values = np.zeros((sum(run_lengths), 1 + n_drift + len(run_lengths)))
    row, col = 0, 1
    for r, (task, drift, n) in enumerate(zip(tasks, drifts, run_lengths)):
        values[row:row + n, 0] = task
        values[row:row + n, col:col + drift.shape[1]] = drift
        values[row:row + n, 1 + n_drift + r] = 1.0
        row, col = row + n, col + drift.shape[1]
    labels = [LABEL_TASK] + [LABEL_DRIFT] * n_drift + [LABEL_INTERCEPT] * len(run_lengths)
    return DesignMatrix(values=values, column_labels=labels)
