"""Benjamini-Hochberg FDR control, cluster extraction, and cluster tables.

No file I/O: the flows write the tables through ``OutputTracker``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ShapeError
from .glm import StatMaps

CLUSTER_COLUMNS = ["rank", "n_voxels", "peak_p", "peak_t", "peak_z", "cx", "cy", "cz"]

# Cluster neighborhoods: voxels sharing a face (6), an edge (18), a corner (26).
_STRUCTURES = {
    6: ndimage.generate_binary_structure(3, 1),
    18: ndimage.generate_binary_structure(3, 2),
    26: ndimage.generate_binary_structure(3, 3),
}
CONNECTIVITIES = tuple(_STRUCTURES)


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


def extract_clusters(rejected: np.ndarray, stats: StatMaps, connectivity: int = 26) -> list:
    """Connected components of the rejection mask with peak statistics.

    stats arrays must be 3-D and match the mask shape. Clusters come back
    sorted by size descending, ties broken by peak t descending.
    """
    if connectivity not in _STRUCTURES:
        raise ValueError(f"connectivity must be one of {CONNECTIVITIES}, got {connectivity}")
    rejected = np.asarray(rejected, dtype=bool)
    if rejected.ndim != 3:
        raise ShapeError("rejection mask must be 3-D")
    for name in ("t", "p", "z"):
        arr = getattr(stats, name)
        if arr.shape != rejected.shape:
            raise ShapeError(f"stat map '{name}' shape {arr.shape} != mask shape {rejected.shape}")

    labels, n_components = ndimage.label(rejected, structure=_STRUCTURES[connectivity])
    # every component's coordinates in one pass over the labels
    members = ndimage.value_indices(labels, ignore_value=0)
    clusters = []
    for component in range(1, n_components + 1):
        coords = np.transpose(members[component])  # as np.argwhere(labels == component)
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

