"""Benjamini-Hochberg FDR control, cluster extraction, and cluster tables.

No file I/O: the flows write the tables through ``OutputTracker``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .glm import StatMaps

CLUSTER_COLUMNS = ["rank", "n_voxels", "peak_p", "peak_t", "peak_z", "cx", "cy", "cz"]

# Cluster neighborhoods, as (dx, dy, dz) offsets: voxels sharing a face (6),
# an edge (18), a corner (26).
_NEIGHBOURS = {
    connectivity: np.array([offset for offset in itertools.product((-1, 0, 1), repeat=3)
                            if 0 < np.abs(offset).sum() <= order])
    for connectivity, order in ((6, 1), (18, 2), (26, 3))
}
CONNECTIVITIES = tuple(_NEIGHBOURS)


@dataclass
class FdrResult:
    """Outcome of the BH procedure at level q.

    rejected[i] iff p[i] <= p_threshold; adjusted_p is the monotone
    step-up adjustment (min over larger p of m*p/rank, clamped to 1).
    """

    q: float
    p_threshold: float
    rejected: np.ndarray
    adjusted_p: np.ndarray

    @property
    def n_rejected(self) -> int:
        return int(self.rejected.sum())


def fdr_bh(p, q: float) -> FdrResult:
    """Benjamini-Hochberg step-up over a flat vector of p-values.

    The threshold is the largest sorted p(k) with p(k) <= k*q/m, or zero
    when no k qualifies. How the sort orders ties does not matter: the
    sorted values are the same, and tied p-values all get the adjusted
    value of the last of them, since a float division by a larger rank
    never gives more.
    """
    p = np.asarray(p, dtype=np.float64).ravel()
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    if p.size == 0:
        return FdrResult(q=q, p_threshold=0.0, rejected=np.zeros(0, bool), adjusted_p=np.zeros(0))
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("p-values must be finite and within [0, 1]")

    m = p.size
    order = np.argsort(p)
    sorted_p = p[order]
    ranks = np.arange(1, m + 1)

    passing = np.nonzero(sorted_p <= ranks * q / m)[0]
    threshold = float(sorted_p[passing[-1]]) if passing.size else 0.0
    rejected = p <= threshold if passing.size else np.zeros(m, dtype=bool)

    adjusted_sorted = np.minimum.accumulate((m * sorted_p / ranks)[::-1])[::-1]
    adjusted = np.empty(m, dtype=np.float64)
    adjusted[order] = np.minimum(adjusted_sorted, 1.0)

    return FdrResult(q=q, p_threshold=threshold, rejected=rejected, adjusted_p=adjusted)


@dataclass
class Cluster:
    """One connected suprathreshold component of a statistic map."""

    voxel_ids: np.ndarray  # (n, 3) integer coordinates
    n_voxels: int
    peak_t: float
    peak_z: float
    peak_p: float
    centroid_vox: tuple


def label_components(mask: np.ndarray, connectivity: int = 26) -> tuple:
    """Connected components of a 3-D boolean mask: (labels, n).

    labels is 0 off the mask and 1..n on it, numbered in the order of
    each component's first voxel in C order, as scipy.ndimage.label
    numbers them. The units are runs of voxels along the last axis. A run
    meets a run of a neighbouring row (x, y) exactly when the first voxel
    of one of the two lies beside a voxel of the other, or beside the
    voxel just past it where neighbours may differ in z. So each run start
    is tested against one voxel per neighbouring row, and runs are joined
    by union-find: every root is hooked to the smallest root it meets,
    then pointers are jumped to their roots, until no pair meets across
    two roots. A component's root is its smallest run, hence its first.
    """
    padded = np.zeros(tuple(n + 2 for n in mask.shape), dtype=bool)  # no neighbour wraps
    padded[1:-1, 1:-1, 1:-1] = mask
    flat = padded.reshape(-1)
    starts = np.flatnonzero(flat[1:] > flat[:-1]) + 1
    run_of = np.zeros(flat.size, dtype=np.intp)
    run_of[starts] = 1
    np.cumsum(run_of, out=run_of)  # the latest run at every voxel, 1-based
    past = np.zeros_like(flat)
    past[1:] = flat[:-1]
    stretched = np.where(flat | past, run_of, 0)  # each run and the voxel past its end
    run_of *= flat

    diagonal = {}  # neighbouring rows, and whether they meet along a z-diagonal
    for dx, dy, dz in _NEIGHBOURS[connectivity].tolist():
        if (dx, dy) != (0, 0):
            diagonal[dx, dy] = diagonal.get((dx, dy), False) or dz != 0
    sx, sy = padded.shape[1] * padded.shape[2], padded.shape[2]
    met = np.concatenate([(stretched if diag else run_of)[starts + dx * sx + dy * sy]
                          for (dx, dy), diag in diagonal.items()])
    pairs = np.flatnonzero(met)
    a, b = pairs % starts.size + 1, met[pairs]  # runs that meet

    parent = np.arange(starts.size + 1)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    while lo.size:
        np.minimum.at(parent, hi, lo)
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]  # each pair's roots stand for it from here on
        apart = lo != hi
        lo, hi = lo[apart], hi[apart]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    number = np.cumsum(parent == np.arange(starts.size + 1)) - 1  # the background is root 0
    labels = number[parent][run_of].reshape(padded.shape)[1:-1, 1:-1, 1:-1]
    return labels, int(number[-1])


def extract_clusters(rejected: np.ndarray, stats: StatMaps, connectivity: int = 26) -> list:
    """Connected components of the rejection mask with peak statistics.

    stats arrays must be 3-D and match the mask shape. Clusters come back
    sorted by size descending, ties broken by peak t descending.
    """
    if connectivity not in _NEIGHBOURS:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    rejected = np.asarray(rejected, dtype=bool)
    if rejected.ndim != 3:
        raise ShapeError("rejection mask must be 3-D")
    for name in ("t", "p", "z"):
        arr = getattr(stats, name)
        if arr.shape != rejected.shape:
            raise ShapeError(f"stat map '{name}' shape {arr.shape} != mask shape {rejected.shape}")

    labels, n_components = label_components(rejected, connectivity)
    # every component's voxels in C order, the components one after another
    flat = labels.reshape(-1)
    voxels = np.flatnonzero(flat)
    voxels = voxels[np.argsort(flat[voxels], kind="stable")]
    bounds = np.cumsum(np.bincount(flat[voxels], minlength=n_components + 1))
    members = np.array(np.unravel_index(voxels, labels.shape))
    clusters = []
    for component in range(n_components):
        coords = members[:, bounds[component]:bounds[component + 1]].T  # np.argwhere(labels == k)
        xs, ys, zs = coords.T
        t_vals = stats.t[xs, ys, zs]
        peak = int(np.argmax(t_vals))
        clusters.append(
            Cluster(
                voxel_ids=coords,
                n_voxels=coords.shape[0],
                peak_t=float(t_vals[peak]),
                peak_z=float(stats.z[xs[peak], ys[peak], zs[peak]]),
                peak_p=float(stats.p[xs[peak], ys[peak], zs[peak]]),
                centroid_vox=tuple(coords.mean(axis=0)),
            )
        )
    clusters.sort(key=lambda c: (-c.n_voxels, -c.peak_t))
    return clusters


def cluster_table(clusters) -> list:
    """Rows of {rank, n_voxels, peak_p, peak_t, peak_z, cx, cy, cz}."""
    rows = []
    for rank, cluster in enumerate(clusters, start=1):
        cx, cy, cz = cluster.centroid_vox
        rows.append(
            {
                "rank": rank,
                "n_voxels": cluster.n_voxels,
                "peak_p": cluster.peak_p,
                "peak_t": cluster.peak_t,
                "peak_z": cluster.peak_z,
                "cx": float(cx),
                "cy": float(cy),
                "cz": float(cz),
            }
        )
    return rows

