"""Mass-univariate OLS fitting and statistic maps (beta, t, p, z, r).

The design is factored once by SVD; every voxel shares the decomposition.
Rank-deficient designs get the minimum-norm solution with degrees of
freedom based on the effective rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri, stdtr

from .errors import (
    DegenerateRegressorError,
    DegreesOfFreedomError,
    InestimableContrastError,
    ShapeError,
)
from .task_design import DesignMatrix
from .volume_io import Volume4D, fold_voxels, voxel_series

Z_CLAMP = 40.0
_RANK_RTOL = 1e-10


@dataclass
class GlmFit:
    """Per-voxel OLS estimates for one shared design.

    beta is (P, V), residual_variance is (V,), dof = N - rank(X). The SVD
    factors of the design are kept so contrast variances reuse them;
    _y_scale (mean square of Y per voxel) anchors the zero-residual test.
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

    Voxels with zero residual variance carry a t = +inf sentinel and are
    flagged in ``degenerate``; they are excluded from FDR input upstream.
    """

    t: np.ndarray
    p: np.ndarray
    z: np.ndarray
    degenerate: np.ndarray
    dof: int
    two_sided: bool = False


def fit_glm(Y: np.ndarray, X: DesignMatrix) -> GlmFit:
    """Least-squares fit of every column of Y on the design.

    Y is (N, V). Solved through the SVD of X (never the normal
    equations); residual variance divides by N - rank(X).
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
    beta = vt_r.T @ ((u_r.T @ Y) / s_r[:, np.newaxis])
    # X beta - Y: the negated residuals, in one (N, V) temporary
    residuals = X.values @ beta
    residuals -= Y
    residual_variance = np.einsum("nv,nv->v", residuals, residuals) / dof

    return GlmFit(
        beta=beta,
        residual_variance=residual_variance,
        dof=dof,
        design=X,
        rank=rank,
        _vt=vt_r,
        _singular_values=s_r,
        _y_scale=np.einsum("nv,nv->v", Y, Y) / Y.shape[0],
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
        z = -ndtri(np.clip(p, 0.0, 1.0))
    return np.clip(z, -Z_CLAMP, Z_CLAMP)


def t_contrast(fit: GlmFit, c, two_sided: bool = False) -> StatMaps:
    """t statistic of a contrast with its p and z maps.

    t = c'beta / sqrt(residual_variance * c'(X'X)^+ c). Zero-residual
    voxels get the +inf sentinel with p = 0, z clamped, and a degenerate
    flag. A contrast outside the row space of a rank-deficient design is
    rejected as inestimable.
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
    degenerate = fit.residual_variance <= 1e-20 * fit._y_scale
    se = np.sqrt(fit.residual_variance * variance_factor)
    t = np.full(effect.shape, np.inf)
    np.divide(effect, se, out=t, where=~degenerate)

    safe_t = np.where(degenerate, 0.0, t)
    p = np.where(degenerate, 0.0, t_to_p(safe_t, fit.dof, two_sided))
    if two_sided:
        z = np.sign(safe_t) * p_to_z(p / 2.0)
        z = np.where(degenerate, Z_CLAMP, z)
    else:
        z = np.where(degenerate, Z_CLAMP, p_to_z(p))
    return StatMaps(t=t, p=p, z=z, degenerate=degenerate, dof=fit.dof, two_sided=two_sided)


def correlation_map(vol: Volume4D, regressor) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of every voxel series with a regressor.

    Returns (r, constant_mask): 3-D maps where constant voxel series are
    flagged and assigned r = 0.
    """
    regressor = np.asarray(regressor, dtype=np.float64).ravel()
    if regressor.size != vol.n_vols:
        raise ShapeError(f"regressor length {regressor.size} != {vol.n_vols} volumes")
    reg = regressor - regressor.mean()
    reg_norm = np.linalg.norm(reg)
    if reg_norm == 0.0:
        raise DegenerateRegressorError("regressor is constant")

    series = voxel_series(vol)
    means = series.mean(axis=0)
    centered = series - means
    norms = np.sqrt(np.einsum("tv,tv->v", centered, centered))
    # Rounding can leave the mean of nt equal samples c off by up to
    # nt/2 * eps * |c|, so a constant series need not centre to a zero
    # norm; series whose norm is within twice sqrt(nt) times that bound
    # are tested exactly.
    nt = vol.n_vols
    small = np.flatnonzero(norms <= nt**1.5 * np.finfo(np.float64).eps * np.abs(means))
    constant = np.zeros(norms.shape, dtype=bool)
    constant[small] = series[:, small].max(axis=0) == series[:, small].min(axis=0)

    r = np.zeros(series.shape[1])
    valid = ~constant
    r[valid] = (reg @ centered)[valid] / (norms[valid] * reg_norm)
    np.clip(r, -1.0, 1.0, out=r)
    dims = vol.spatial_dims
    return fold_voxels(r, dims), fold_voxels(constant, dims)
