"""Mass-univariate OLS fitting and statistic maps (beta, t, p, z, r).

The design is factored once by SVD; every voxel shares the decomposition.
Rank-deficient designs get the minimum-norm solution with degrees of
freedom based on the effective rank.

``fit_glm`` and ``correlation_map`` stream over column blocks of the
(N, V) voxel matrix, each about 1 MB, so no (N, V) temporary (residuals,
centred series) is ever allocated. The block loop is serial: ``--threads``
does not apply to it, because worker threads contend with BLAS's own
threads and made the fit slower.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateRegressorError,
    DegreesOfFreedomError,
    InestimableContrastError,
    NumericError,
    ShapeError,
)
from .task_design import DesignMatrix
from .volume_io import Volume4D, block_width, fold_voxels, voxel_series

Z_CLAMP = 40.0
_RANK_RTOL = 1e-10
# A series has no noise when its residual (or centred) mean square is at most
# this fraction of its squared level: zero up to float rounding.
_NO_NOISE_RTOL = 1e-20


@dataclass
class GlmFit:
    """Per-voxel OLS estimates for one shared design.

    beta is (P, V), residual_variance is (V,) and dof = N - rank(X). The
    SVD factors of the design are kept so contrast variances reuse them;
    _y_scale (mean square of Y per voxel) anchors the zero-residual test
    that flags a voxel without noise (``StatMaps.degenerate``).
    """

    beta: np.ndarray
    residual_variance: np.ndarray
    dof: int
    design: DesignMatrix
    rank: int
    _vt: np.ndarray = field(repr=False, default=None)
    _singular_values: np.ndarray = field(repr=False, default=None)
    _y_scale: np.ndarray = field(repr=False, default=None)


@dataclass
class StatMaps:
    """t, one-sided p, and z per voxel for one contrast.

    ``degenerate`` flags the voxels with zero residual variance: the one
    rule for a voxel without noise. A constant series is one, since every
    design ``build_design_matrix`` makes has an intercept per run. Those
    voxels read the neutral t = 0, p = 0.5 (1 two-sided) and z = 0;
    ``analyze_volume`` leaves them out of FDR.
    """

    t: np.ndarray
    p: np.ndarray
    z: np.ndarray
    degenerate: np.ndarray
    dof: int


def fit_glm(Y: np.ndarray, X: DesignMatrix) -> GlmFit:
    """Least-squares fit of every column of Y on the design.

    Y is (N, V). Solved through the SVD of X (never the normal
    equations); residual variance divides by N - rank(X). Y is read in
    column blocks, so memory beyond the (P, V) outputs stays bounded.
    A series whose sum of squares overflows raises NumericError.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, np.newaxis]
    if Y.shape[0] != X.n_rows:
        raise ShapeError(f"Y has {Y.shape[0]} rows but design has {X.n_rows}")

    u, s, vt = np.linalg.svd(X.values, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * s[0])) if s.size else 0
    dof = Y.shape[0] - rank
    if dof < 1:
        raise DegreesOfFreedomError(
            f"{Y.shape[0]} time points with design rank {rank} leave no degrees of freedom"
        )

    u_r, s_r, vt_r = u[:, :rank], s[:rank], vt[:rank]
    n, v = Y.shape
    beta = np.empty((X.n_cols, v))
    residual_variance = np.empty(v)
    y_scale = np.empty(v)
    width = block_width(n)
    scratch = np.empty((n, min(width, v)))
    for start in range(0, v, width):
        cols = slice(start, start + width)
        block = Y[:, cols]
        block_beta = vt_r.T @ ((u_r.T @ block) / s_r[:, np.newaxis])
        beta[:, cols] = block_beta
        # X beta - Y: the negated residuals of this block only
        residuals = np.matmul(X.values, block_beta, out=scratch[:, :block.shape[1]])
        residuals -= block
        residual_variance[cols] = np.einsum("nv,nv->v", residuals, residuals)
        y_scale[cols] = np.einsum("nv,nv->v", block, block)
    if not np.isfinite(y_scale.max()):  # every residual sum is at most its series' sum
        raise NumericError("voxel values too large: a series' sum of squares overflows float64")
    residual_variance /= dof
    y_scale /= n

    return GlmFit(
        beta=beta,
        residual_variance=residual_variance,
        dof=dof,
        design=X,
        rank=rank,
        _vt=vt_r,
        _singular_values=s_r,
        _y_scale=y_scale,
    )


def _log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0, accurate to a few units in the last place
    of the result even where ln Gamma(a) and ln Gamma(a + b) are large.

    The difference ln Gamma(a) - ln Gamma(a + b) cancels for large a (by
    7e-12 at a = 16000 through math.lgamma), so it is taken from
    Stirling's series, after shifting a to at least 16 with
    Gamma(a) = Gamma(a + 1) / a.
    """
    shift = 0.0
    while a < 16.0:
        shift += math.log((a + b) / a)
        a += 1.0

    def series(z):  # Stirling's series of ln Gamma(z) past its leading terms
        w = 1.0 / (z * z)
        return (1 / 12 - (1 / 360 - (1 / 1260 - w / 1680) * w) * w) / z

    return (math.lgamma(b) + shift - b * math.log(a) - (a + b - 0.5) * math.log1p(b / a) + b
            + series(a) - series(a + b))


# Continued fraction of the incomplete beta function: relative step at which
# an element has converged, and the step count no element needs (at most 62
# were seen over dof 1 to 1e7 at any t).
_CF_EPS = 1e-15
_CF_MAX_STEPS = 200


def _beta_fraction(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """The continued fraction of I_x(a, b) (Press et al., Numerical Recipes,
    betacf) at every x, for x < (a + 1) / (a + b + 2) where it converges.

    Modified Lentz evaluation with the scalar coefficients of each step
    computed once for all elements. Elements are dropped from the working
    arrays once a quarter of them has converged, so late steps touch only
    the slow ones. Lentz's guard against a zero denominator is left out:
    for the arguments ``t_to_p`` passes, every factor d and c is positive.
    With b = 1/2 every partial numerator is negative (a Stieltjes
    fraction, whose denominators keep their sign for x in [0, 1)); on the
    swapped branch x < 1.5 / (a + 2.5). Over dof 1 to 131000 and t from 0
    to 1e4 the smallest factor seen was 3e-5.
    """
    out = np.empty(x.shape)
    where = np.arange(x.size)
    d = x * (-(a + b) / (a + 1.0))
    d += 1.0
    np.reciprocal(d, out=d)
    c = np.ones(x.shape)
    h = d.copy()
    step = np.empty(x.shape)
    for m in range(1, _CF_MAX_STEPS + 1):
        for coef in (m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))):
            d *= x
            d *= coef
            d += 1.0
            np.reciprocal(d, out=d)
            np.divide(x, c, out=c)
            c *= coef
            c += 1.0
            np.multiply(d, c, out=step)
            h *= step
        step -= 1.0
        done = np.abs(step, out=step) <= _CF_EPS
        n_done = np.count_nonzero(done)
        if n_done == where.size:
            break
        if 4 * n_done > where.size:
            out[where[done]] = h[done]
            keep = ~done
            where, x, c, d, h = where[keep], x[keep], c[keep], d[keep], h[keep]
            step = np.empty(x.shape)
    out[where] = h
    return out


def t_to_p(t, dof: int, two_sided: bool = False):
    """Upper-tail (or two-sided) t-distribution probability.

    P(T > |t|) = I_x(dof/2, 1/2) / 2 with x = dof / (dof + t^2), the
    regularized incomplete beta function, from its continued fraction on
    x or, past the switch point, on 1 - x through I_x(a, b) =
    1 - I_{1-x}(b, a). Against scipy.special.stdtr the relative error is
    at most 1e-10 wherever the probability exceeds 1e-300, for dof 1 to
    32000 (tests/test_glm.py measures it). t = 0 gives exactly 0.5
    (one-sided) and 1 (two-sided), t = +inf gives 0, t = -inf gives 1 and
    NaN gives NaN.
    """
    t = np.asarray(t, dtype=np.float64)
    a, b = 0.5 * dof, 0.5
    upper = np.full(t.shape, np.nan)  # P(T > |t|); NaN where t is NaN
    log_beta = _log_beta(a, b)
    r_switch = (b + 1.0) / (a + 1.0)  # x = (a + 1) / (a + b + 2)
    # r = inf past |t| ~ 1e154 gives p = 0, as stdtr does; log1p(1 / r) at
    # r = 0 is -inf, as it should be
    with np.errstate(over="ignore", divide="ignore"):
        r = t * t
        r /= dof  # x = 1 / (1 + r)
        far = r >= r_switch
        rf = r[far]
        front = np.exp(-a * np.log1p(rf) - b * np.log1p(1.0 / rf) - log_beta)
        upper[far] = front * _beta_fraction(1.0 / (1.0 + rf), a, b) / (2.0 * a)
        near = r < r_switch
        rn = r[near]
        front = np.exp(-a * np.log1p(rn) - b * np.log1p(1.0 / rn) - log_beta)
        upper[near] = 0.5 - front * _beta_fraction(rn / (1.0 + rn), b, a) / (2.0 * b)
    if two_sided:
        return np.minimum(2.0 * upper, 1.0)
    return np.where(t >= 0.0, upper, 1.0 - upper)


# Wichura's AS241 (PPND16), Appl. Statist. 37:477 (1988): rational
# approximations of the normal quantile near the median and in the tails,
# numerator and denominator coefficients from the highest power down.
_AS241_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.4952788528545610, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0),
)
_AS241_MIDDLE = (
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
     1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
     0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0),
)
_AS241_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
     0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0),
)


def _rational(coefficients, x):
    """Ratio of two polynomials of the same degree by Horner's rule."""
    top, bottom = coefficients
    numerator, denominator = x * top[0], x * bottom[0]
    for top_c, bottom_c in zip(top[1:-1], bottom[1:-1]):
        numerator += top_c
        numerator *= x
        denominator += bottom_c
        denominator *= x
    numerator += top[-1]
    denominator += bottom[-1]
    return np.divide(numerator, denominator, out=numerator)


def p_to_z(p):
    """Standard-normal quantile of 1 - p, clamped to |z| <= 40.

    Wichura's AS241 (relative error about 1e-16); p = 0.5 gives +0.0, p = 0
    gives +40 and p = 1 gives -40.
    """
    p = np.asarray(p, dtype=np.float64)
    p = np.clip(p, 0.0, 1.0)
    q = 0.5 - p
    z = np.empty(p.shape)
    central = np.abs(q) <= 0.425
    qc = q[central]
    z[central] = qc * _rational(_AS241_CENTRAL, 0.180625 - qc * qc)
    tail = ~central
    qt = q[tail]
    with np.errstate(divide="ignore"):
        r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))  # +inf at p = 0 or 1
    zt = r.copy()  # +inf (p = 0 or 1) and NaN pass through
    middle = r <= 5.0
    zt[middle] = _rational(_AS241_MIDDLE, r[middle] - 1.6)
    far = (r > 5.0) & (r < np.inf)
    zt[far] = _rational(_AS241_FAR, r[far] - 5.0)
    z[tail] = np.copysign(zt, qt)
    return np.clip(z, -Z_CLAMP, Z_CLAMP)


def t_contrast(fit: GlmFit, c, two_sided: bool = False) -> StatMaps:
    """t statistic of a contrast with its p and z maps.

    t = c'beta / sqrt(residual_variance * c'(X'X)^+ c). Zero-residual
    voxels are flagged degenerate and get t = 0, so their p and z are the
    neutral ones. A contrast outside the row space of a rank-deficient
    design is rejected as inestimable.
    """
    c = np.asarray(c, dtype=np.float64).ravel()
    if c.size != fit.design.n_cols:
        raise ShapeError(f"contrast length {c.size} != design columns {fit.design.n_cols}")
    if not np.any(c):
        raise ValueError("contrast must not be all zero")

    projected = fit._vt @ c
    if fit.rank < fit.design.n_cols:
        outside = c - fit._vt.T @ projected
        if np.linalg.norm(outside) > 1e-8 * np.linalg.norm(c):
            raise InestimableContrastError(
                "contrast involves a direction the rank-deficient design cannot estimate"
            )

    # c'(X'X)^+ c through the stored SVD factors
    variance_factor = float(np.sum((projected / fit._singular_values) ** 2))
    effect = c @ fit.beta

    # zero residual variance up to float rounding of an exact fit
    degenerate = fit.residual_variance <= _NO_NOISE_RTOL * fit._y_scale
    se = np.sqrt(fit.residual_variance * variance_factor)
    t = np.zeros(effect.shape)
    np.divide(effect, se, out=t, where=~degenerate)

    p = t_to_p(t, fit.dof, two_sided)
    z = np.sign(t) * p_to_z(p / 2.0) if two_sided else p_to_z(p)
    return StatMaps(t=t, p=p, z=z, degenerate=degenerate, dof=fit.dof)


def correlation_map(vol: Volume4D, regressor) -> np.ndarray:
    """Pearson correlation of every voxel series with a regressor, as a 3-D map.

    A series without variation (centred sum of squares at most
    _NO_NOISE_RTOL times nt * mean^2) reads r = 0, and a regressor without
    variation by that test is rejected. ``t_contrast`` uses the same
    tolerance on another quantity, the residual variance against the
    mean square, so a series the design fits exactly can still vary here.
    """
    regressor = np.asarray(regressor, dtype=np.float64).ravel()
    if regressor.size != vol.n_vols:
        raise ShapeError(f"regressor length {regressor.size} != {vol.n_vols} volumes")
    reg = regressor - regressor.mean()
    reg_norm = np.linalg.norm(reg)
    if reg_norm**2 <= _NO_NOISE_RTOL * regressor.size * regressor.mean() ** 2:
        raise DegenerateRegressorError("regressor is constant")

    series = voxel_series(vol)
    nt, v = series.shape
    r = np.zeros(v)
    width = block_width(nt)
    scratch = np.empty((nt, min(width, v)))
    for start in range(0, v, width):
        cols = slice(start, start + width)
        block = series[:, cols]
        means = block.mean(axis=0)
        centered = np.subtract(block, means, out=scratch[:, :block.shape[1]])
        sum_sq = np.einsum("tv,tv->v", centered, centered)
        varying = sum_sq > _NO_NOISE_RTOL * nt * means**2
        np.divide(reg @ centered, np.sqrt(sum_sq) * reg_norm, out=r[cols], where=varying)
    np.clip(r, -1.0, 1.0, out=r)
    return fold_voxels(r, vol.spatial_dims)
