"""Independent reference implementations used to check the library.

Everything here is deliberately written along a different algorithmic
path than the code under test: normal equations instead of SVD,
quadrature instead of incomplete-beta, flood fill instead of labeling,
explicit loops instead of vectorized kernels, FFTs instead of matrix
products. build_raw_nifti assembles a NIfTI-1 file byte by byte, for
the tests that read files the writer cannot make. traced_peak measures
the memory a call allocates, for the tests that bound it.
"""

import math
import struct
import tracemalloc

import numpy as np
from scipy.integrate import quad


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def build_raw_nifti(dims, payload: bytes, datatype: int, bitpix: int,
                    scl_slope=0.0, scl_inter=0.0, byteorder="<",
                    sizeof_hdr=348, magic=b"n+1\x00", tr=3.0) -> bytes:
    """Hand-assemble a NIfTI-1 file, independent of write_nifti."""
    end = byteorder
    header = bytearray(348)
    struct.pack_into(end + "i", header, 0, sizeof_hdr)
    dim = [4] + list(dims) + [1] * (7 - len(dims))
    struct.pack_into(end + "8h", header, 40, *dim)
    struct.pack_into(end + "h", header, 70, datatype)
    struct.pack_into(end + "h", header, 72, bitpix)
    pixdim = [1.0, 3.3, 3.3, 4.8, tr, 0, 0, 0]
    struct.pack_into(end + "8f", header, 76, *pixdim)
    struct.pack_into(end + "f", header, 108, 352.0)  # vox_offset
    struct.pack_into(end + "f", header, 112, scl_slope)
    struct.pack_into(end + "f", header, 116, scl_inter)
    struct.pack_into("4s", header, 344, magic)
    return bytes(header) + b"\x00" * 4 + payload


def normal_equations_beta(X, Y):
    """OLS coefficients through the normal equations."""
    return np.linalg.solve(X.T @ X, X.T @ Y)


def t_stat_normal_equations(X, Y, c):
    """t statistic per voxel from the textbook formula."""
    n = X.shape[0]
    beta = normal_equations_beta(X, Y)
    resid = Y - X @ beta
    dof = n - X.shape[1]
    sigma2 = (resid**2).sum(axis=0) / dof
    var_factor = float(c @ np.linalg.solve(X.T @ X, c))
    return (c @ beta) / np.sqrt(sigma2 * var_factor), dof


def t_density(x, dof):
    log_norm = (
        math.lgamma((dof + 1) / 2.0)
        - math.lgamma(dof / 2.0)
        - 0.5 * math.log(dof * math.pi)
    )
    return math.exp(log_norm - ((dof + 1) / 2.0) * math.log1p(x * x / dof))


def p_upper_tail_quadrature(t, dof):
    """P(T_dof > t) by adaptive quadrature of the density.

    epsabs of zero forces relative convergence, which keeps the oracle
    meaningful far into the tail where p underflows any absolute target.
    """
    if t >= 0:
        value, _ = quad(t_density, t, np.inf, args=(dof,), epsabs=0.0, epsrel=1e-12)
        return value
    value, _ = quad(t_density, -np.inf, t, args=(dof,), epsabs=0.0, epsrel=1e-12)
    return 1.0 - value


def bh_reject_bruteforce(p, q):
    """BH rejection set by scanning every k explicitly."""
    p = np.asarray(p, dtype=float)
    m = p.size
    sorted_p = np.sort(p)
    threshold = 0.0
    any_pass = False
    for k in range(1, m + 1):
        if sorted_p[k - 1] <= k * q / m:
            threshold = sorted_p[k - 1]
            any_pass = True
    if not any_pass:
        return np.zeros(m, dtype=bool)
    return p <= threshold


def neighbor_offsets(connectivity):
    offsets = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if dx == dy == dz == 0:
                    continue
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and manhattan > 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offsets.append((dx, dy, dz))
    return offsets


def flood_fill_components(mask, connectivity):
    """Connected components as a list of frozensets of coordinates."""
    mask = np.asarray(mask, dtype=bool)
    offsets = neighbor_offsets(connectivity)
    seen = np.zeros_like(mask)
    components = []
    for start in map(tuple, np.argwhere(mask)):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = set()
        while stack:
            voxel = stack.pop()
            component.add(voxel)
            for off in offsets:
                nb = tuple(v + o for v, o in zip(voxel, off))
                if all(0 <= c < d for c, d in zip(nb, mask.shape)) and mask[nb] and not seen[nb]:
                    seen[nb] = True
                    stack.append(nb)
        components.append(frozenset(component))
    return components


def direct_convolution(box, kernel):
    """O(N*K) direct linear convolution truncated to len(box)."""
    n, k = len(box), len(kernel)
    out = np.zeros(n)
    for i in range(n):
        for j in range(k):
            if i - j >= 0:
                out[i] += box[i - j] * kernel[j]
    return out


def roi_series_walk(data4d, mask):
    """(nt, n_voxels) ROI matrix by explicit x-fastest iteration."""
    nx, ny, nz, nt = data4d.shape
    columns = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if mask[x, y, z]:
                    columns.append(data4d[x, y, z, :])
    return np.array(columns).T.reshape(nt, -1)


def gaussian_kernel_3d(sigmas, radii):
    """Full 3-D unit-sum kernel as the outer product of axis kernels."""
    axes = []
    for sigma, radius in zip(sigmas, radii):
        if radius < 1:
            axes.append(np.array([1.0]))
            continue
        taps = np.exp(-0.5 * (np.arange(-radius, radius + 1) / sigma) ** 2)
        axes.append(taps / taps.sum())
    kernel = axes[0][:, None, None] * axes[1][None, :, None] * axes[2][None, None, :]
    return kernel / kernel.sum()


def smooth_zero_padded(data4d, sigmas):
    """3-D Gaussian smoothing as the full kernel applied with zero padding,
    divided by the same kernel applied to the field-of-view indicator.

    Every volume is a direct sum over all kernel offsets of the 3-D
    kernel (no separable passes, no matrices); the indicator division
    renormalises the weights near the borders.
    """
    data4d = np.asarray(data4d, dtype=float)
    radii = [int(np.floor(4.0 * s)) for s in sigmas]
    kernel = gaussian_kernel_3d(sigmas, radii)
    rx, ry, rz = [(k - 1) // 2 for k in kernel.shape]
    nx, ny, nz, nt = data4d.shape
    padded = np.zeros((nx + 2 * rx, ny + 2 * ry, nz + 2 * rz, nt))
    padded[rx:rx + nx, ry:ry + ny, rz:rz + nz] = data4d
    indicator = np.zeros(padded.shape[:3])
    indicator[rx:rx + nx, ry:ry + ny, rz:rz + nz] = 1.0

    out = np.zeros(data4d.shape)
    support = np.zeros((nx, ny, nz))
    for a, b, c in np.ndindex(kernel.shape):
        weight = kernel[a, b, c]
        out += weight * padded[a:a + nx, b:b + ny, c:c + nz]
        support += weight * indicator[a:a + nx, b:b + ny, c:c + nz]
    return out / support[..., None]


def lsd_voxel_loop(map3d, roi, radius_vox):
    """Local standard deviation by slicing each ROI voxel's clipped
    (2r+1)^3 block out of the map, one voxel at a time."""
    r = int(radius_vox)
    nx, ny, nz = map3d.shape
    deviations = []
    for x, y, z in np.argwhere(roi):
        block = map3d[
            max(0, x - r): min(nx, x + r + 1),
            max(0, y - r): min(ny, y + r + 1),
            max(0, z - r): min(nz, z + r + 1),
        ]
        deviations.append(block.std())
    return float(np.mean(deviations))


def slice_timing_fft(data4d, offsets_s, reference_s, tr_s):
    """Slice timing by the mirrored FFT: each slice's series is mirrored to
    2*nt samples, its spectrum is multiplied by the phase that advances it
    by (reference_s - offset) / tr_s volumes, and the first nt samples of
    the inverse transform are kept."""
    data4d = np.asarray(data4d, dtype=float)
    nt = data4d.shape[3]
    freqs = np.fft.rfftfreq(2 * nt)
    out = np.empty(data4d.shape)
    for z, offset in enumerate(offsets_s):
        phase = np.exp(2j * np.pi * freqs * (reference_s - offset) / tr_s)
        series = data4d[:, :, z, :]
        spectrum = np.fft.rfft(np.concatenate([series, series[..., ::-1]], axis=-1), axis=-1)
        out[:, :, z, :] = np.fft.irfft(spectrum * phase, n=2 * nt, axis=-1)[..., :nt]
    return out
