"""Mass-univariate OLS fitting and statistic maps (beta, t, p, z, r).

The design is factored once by SVD; every voxel shares the decomposition.
A rank-deficient design gets the minimum-norm solution with degrees of
freedom based on its effective rank.

``fit_runs`` fits every run of a set on the set's one design (the runs
of a set share their protocol, so their design and length), in one
stream over column blocks of the runs' (N, V) voxel matrices, each about
1 MB, so no (N, V) temporary (residuals) is ever allocated; ``fit_glm``
is its one-run case. The block loop is serial: ``--threads`` does not
apply to it, because worker threads contend with BLAS's own threads and
made the fit slower. It is the flows' only pass over the runs' series:
``run_fit``, ``average_fit`` and ``concatenated_fit`` build each duration
condition's fit from the per-run fits in O(rank^2 * V), and
``correlation_from_fit`` takes r from a fit's (P, V) outputs.
``correlation_map`` makes its own block pass over a volume and stays as
the reference for it.
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
    SVD factors of the design are kept so contrast variances and
    ``correlation_from_fit`` reuse them;
    _y_scale (mean square of Y per voxel) anchors the zero-residual test
    that flags a voxel without noise (``StatMaps.degenerate``).
    """

    beta: np.ndarray
    residual_variance: np.ndarray
    dof: int
    design: DesignMatrix
    rank: int
    _u: np.ndarray = field(repr=False, default=None)
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


@dataclass
class RunFits:
    """The per-run least-squares pieces of a set of runs (``fit_runs``).

    Every run is fitted on the one design, whose SVD factors
    (U_r, s_r, vt_r) and rank are factors. Each list holds one entry per
    run: beta (P, V), the residual sum of squares RSS_i and the series'
    sum of squares y_i'y_i (both (V,)). The run's projection
    c_i = U_r'y_i is s_r * (vt_r beta_i) (``_projection``). summed_rss is
    |sum_i e_i|^2 per voxel, the residual sum of the runs' mean, when
    there are two or more runs, and None for one.
    ``run_fit``, ``average_fit`` and ``concatenated_fit`` build each
    condition's GlmFit from these alone.
    """

    design: DesignMatrix
    factors: tuple
    beta: list
    rss: list
    sum_sq: list
    summed_rss: np.ndarray | None


def _factor(X: DesignMatrix):
    """(U_r, s_r, vt_r, rank): the SVD factors of the design that fits keep."""
    u, s, vt = np.linalg.svd(X.values, full_matrices=False)
    rank = int(np.sum(s > _RANK_RTOL * s[0])) if s.size else 0
    return u[:, :rank], s[:rank], vt[:rank], rank


def fit_runs(series: list, design: DesignMatrix) -> RunFits:
    """Least-squares fit of every run's series on the set's one design,
    in one loop over voxel blocks of every run.

    series[i] is run i's (N, V) voxel matrix, N the design's rows; every
    run has the same V. Each run's arithmetic is ``fit_glm``'s:
    beta = vt'(U'y / s) through the SVD of the design (never the normal
    equations), and the negated residuals X beta - y of one block at a
    time, so memory beyond the (P, V) outputs stays bounded. With two or
    more runs the loop also sums their residuals block by block and keeps
    |sum_i e_i|^2; it never forms that from the per-run sums, where a
    cross term could round it below zero.
    """
    series = [np.asarray(Y, dtype=np.float64) for Y in series]
    series = [Y[:, np.newaxis] if Y.ndim == 1 else Y for Y in series]
    v = series[0].shape[1]
    for Y in series:
        if Y.shape[0] != design.n_rows:
            raise ShapeError(f"Y has {Y.shape[0]} rows but design has {design.n_rows}")
        if Y.shape[1] != v:
            raise ShapeError(f"runs have {Y.shape[1]} and {v} voxels")

    factors = _factor(design)
    u_r, s_r, vt_r, _ = factors
    beta = [np.empty((design.n_cols, v)) for _ in series]
    rss = [np.empty(v) for _ in series]
    sum_sq = [np.empty(v) for _ in series]
    summing = len(series) > 1
    summed_rss = np.empty(v) if summing else None
    width = block_width(len(series) * design.n_rows)
    # run 0's negated residuals stay in scratch[0]; every other run's go
    # to scratch[1] and are added to them
    scratch = [np.empty((design.n_rows, min(width, v))) for _ in range(1 + summing)]
    for start in range(0, v, width):
        cols = slice(start, start + width)
        for i, Y in enumerate(series):
            block = Y[:, cols]
            block_beta = vt_r.T @ ((u_r.T @ block) / s_r[:, np.newaxis])
            beta[i][:, cols] = block_beta
            # X beta - Y: the negated residuals of this block only
            out = scratch[1 if i else 0][:, :block.shape[1]]
            residuals = np.matmul(design.values, block_beta, out=out)
            residuals -= block
            rss[i][cols] = np.einsum("nv,nv->v", residuals, residuals)
            sum_sq[i][cols] = np.einsum("nv,nv->v", block, block)
            if i:
                scratch[0][:, :block.shape[1]] += residuals
        if summing:
            total = scratch[0][:, :block.shape[1]]
            summed_rss[cols] = np.einsum("nv,nv->v", total, total)
    return RunFits(design=design, factors=factors, beta=beta, rss=rss, sum_sq=sum_sq,
                   summed_rss=summed_rss)


def _condition_fit(design: DesignMatrix, factors, beta, rss, sum_sq) -> GlmFit:
    """A GlmFit from its pieces: residual variance RSS / (N - rank), and
    _y_scale the series' sum of squares over N. A sum of squares that
    overflows raises NumericError; every residual sum is at most it."""
    u_r, s_r, vt_r, rank = factors
    n = design.n_rows
    dof = n - rank
    if dof < 1:
        raise DegreesOfFreedomError(
            f"{n} time points with design rank {rank} leave no degrees of freedom"
        )
    if not np.isfinite(sum_sq.max()):
        raise NumericError("voxel values too large: a series' sum of squares overflows float64")
    return GlmFit(
        beta=beta,
        residual_variance=rss / dof,
        dof=dof,
        design=design,
        rank=rank,
        _u=u_r,
        _vt=vt_r,
        _singular_values=s_r,
        _y_scale=sum_sq / n,
    )


def run_fit(fits: RunFits, i: int) -> GlmFit:
    """Run i's own fit, as ``fit_glm`` gives it."""
    return _condition_fit(fits.design, fits.factors, fits.beta[i], fits.rss[i], fits.sum_sq[i])


def _projection(factors, beta: np.ndarray) -> np.ndarray:
    """U_r'y = s_r * (vt_r beta) of the series a fit with these factors
    gave beta for."""
    _, s_r, vt_r, _ = factors
    projection = vt_r @ beta
    projection *= s_r[:, np.newaxis]
    return projection


def _sum_of_squares(projection: np.ndarray, rss: np.ndarray) -> np.ndarray:
    """y'y = |U'y|^2 + RSS for a series y with U'y = projection: two
    non-negative terms, so a large baseline does not cancel."""
    total = np.einsum("kv,kv->v", projection, projection)
    total += rss
    return total


def average_fit(fits: RunFits) -> GlmFit:
    """The fit of the runs' time-point mean, from their own fits.

    The n >= 2 runs share one design X (ValueError for one run), so the
    mean series has beta = mean beta_i, U'y = s * (vt beta) and residual
    sum |sum_i e_i|^2 / n^2 (``fit_runs``'s summed_rss).
    """
    n = len(fits.beta)
    if n < 2:
        raise ValueError("averaging needs two or more runs")
    beta = fits.beta[0] + fits.beta[1]
    for run_beta in fits.beta[2:]:
        beta += run_beta
    beta /= n
    rss = fits.summed_rss / n**2
    sum_sq = _sum_of_squares(_projection(fits.factors, beta), rss)
    return _condition_fit(fits.design, fits.factors, beta, rss, sum_sq)


def concatenated_fit(fits: RunFits, design: DesignMatrix) -> GlmFit:
    """The fit of the runs stacked along time on design, from their own fits.

    design has the stacked rows, and each run's rows must lie in the
    column space of the runs' design (ValueError otherwise), as
    ``build_design_matrix``'s do. With W = blockdiag(U_r, ..., U_r) and
    U_c the kept left singular vectors of design, span(U_c) lies in
    span(W), so with M = W'U_c and c the stacked projections c_i = U_r'y_i:
    - U_c'y = M'c, and beta follows from the SVD factors with
      ``fit_glm``'s minimum-norm rule;
    - RSS = sum_i RSS_i + |Q'c|^2, Q an orthonormal basis of the
      complement of M's columns: non-negative terms throughout.
    The cost is O(rank^2 * V), with no pass over the series; c is formed
    a block of voxels at a time, so only the outputs are (P, V).
    """
    u_r, _, _, r = fits.factors
    n_runs, n = len(fits.beta), fits.design.n_rows
    if design.n_rows != n_runs * n:
        raise ShapeError(f"design has {design.n_rows} rows but the runs {n_runs * n}")
    factors = _factor(design)
    u_c, s_c, vt_c, rank = factors
    w = np.zeros((design.n_rows, n_runs * r))
    for i in range(n_runs):
        w[i * n:(i + 1) * n, i * r:(i + 1) * r] = u_r
    m = w.T @ u_c
    if np.linalg.norm(u_c - w @ m) > 1e-8 * math.sqrt(max(rank, 1)):
        raise ValueError("the design has rows outside the column space of the runs' design")
    q = np.linalg.qr(m, mode="complete")[0][:, rank:].T
    v = fits.beta[0].shape[1]
    beta = np.empty((design.n_cols, v))
    rss = fits.rss[0].copy()
    for run_rss in fits.rss[1:]:
        rss += run_rss
    sum_sq = np.empty(v)
    width = block_width(max(1, n_runs * r))
    for start in range(0, v, width):
        cols = slice(start, start + width)
        c = np.vstack([_projection(fits.factors, run_beta[:, cols]) for run_beta in fits.beta])
        projected = m.T @ c  # U_c'y
        beta[:, cols] = vt_c.T @ (projected / s_c[:, np.newaxis])
        outside = q @ c
        rss[cols] += np.einsum("kv,kv->v", outside, outside)
        sum_sq[cols] = _sum_of_squares(projected, rss[cols])
    return _condition_fit(design, factors, beta, rss, sum_sq)


def fit_glm(Y: np.ndarray, X: DesignMatrix) -> GlmFit:
    """Least-squares fit of every column of Y on the design: the one-run
    case of ``fit_runs``.

    Y is (N, V). Solved through the SVD of X (never the normal
    equations); residual variance divides by N - rank(X). Y is read in
    column blocks, so memory beyond the (P, V) outputs stays bounded.
    A series whose sum of squares overflows raises NumericError.
    """
    return run_fit(fit_runs([Y], X), 0)


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


def _degenerate(fit: GlmFit) -> np.ndarray:
    """The voxels without noise (``StatMaps.degenerate``): zero residual
    variance up to float rounding of an exact fit."""
    return fit.residual_variance <= _NO_NOISE_RTOL * fit._y_scale


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

    degenerate = _degenerate(fit)
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


def correlation_from_fit(fit: GlmFit, column: int) -> np.ndarray:
    """Pearson correlation of every fitted series with one design column,
    as a (V,) vector, from the fit alone: no pass over the series.

    The constant must lie in the design's column space (every design
    ``build_design_matrix`` makes has an intercept per run), or ValueError
    is raised; a column without variation, by ``correlation_map``'s test,
    raises DegenerateRegressorError. With U the kept left singular vectors,
    U'y = s * (vt beta), and W an orthonormal basis of the directions of
    those coordinates orthogonal to U'1:
    - the centred series' sum of squares is RSS + |W U'y|^2, two
      non-negative terms, so a large baseline does not cancel;
    - the centred column g lies in the column space, so g'y = (W U'g)'(W U'y).
    The cost is O(rank * P * V). Degenerate voxels (``StatMaps.degenerate``)
    read r = 0, the one rule for a series without noise; a constant series
    is one.
    """
    regressor = fit.design.values[:, column]
    n = regressor.size
    reg = regressor - regressor.mean()
    reg_norm = np.linalg.norm(reg)
    if reg_norm**2 <= _NO_NOISE_RTOL * n * regressor.mean() ** 2:
        raise DegenerateRegressorError(f"design column {column} is constant")
    unit = np.full(n, 1.0 / math.sqrt(n))
    mean_axis = fit._u.T @ unit
    if np.linalg.norm(unit - fit._u @ mean_axis) > 1e-8:
        raise ValueError("the design has no intercept: the constant is outside its column space")

    # rows 1: of a complete orthonormal basis whose first vector is U'1 / sqrt(n)
    w = np.linalg.qr(mean_axis[:, np.newaxis], mode="complete")[0][:, 1:].T
    centred = ((w * fit._singular_values) @ fit._vt) @ fit.beta  # W U'y, (rank - 1, V)
    sum_sq = np.einsum("kv,kv->v", centred, centred)
    sum_sq += fit.residual_variance * fit.dof
    r = np.zeros(fit.beta.shape[1])
    np.divide((w @ (fit._u.T @ reg)) @ centred, np.sqrt(sum_sq) * reg_norm, out=r,
              where=~_degenerate(fit))
    return np.clip(r, -1.0, 1.0, out=r)
