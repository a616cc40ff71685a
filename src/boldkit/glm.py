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

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtr

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


def t_to_p(t, dof: int, two_sided: bool = False):
    """Upper-tail (or two-sided) t-distribution probability.

    Evaluated through the regularized incomplete beta function, which the
    Student CDF reduces to; accuracy is at machine-level for the tails
    used here.
    """
    t = np.asarray(t, dtype=np.float64)
    if two_sided:
        p = 2.0 * stdtr(dof, -np.abs(t))
    else:
        p = stdtr(dof, -t)
    return np.minimum(p, 1.0)


def p_to_z(p):
    """Standard-normal quantile of 1 - p, clamped to |z| <= 40."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore"):
        z = 0.0 - ndtri(np.clip(p, 0.0, 1.0))  # +0.0 at p = 0.5, where -ndtri gives -0.0
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
