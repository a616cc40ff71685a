"""NIfTI-1 volume I/O and ROI series extraction.

Single-file NIfTI-1 (.nii, optionally gzip-compressed) is the only format.
Reading accepts both byte orders and the scalar datatypes used for EPI
series; writing always emits little-endian float32 with scl_slope=1.
Orientation fields (qform/sform) are carried through untouched and never
interpreted.

In memory a volume is a float64 array of shape (nx, ny, nz, nt) stored
x-fastest (Fortran order), as on disk. ``Volume4D`` enforces that layout,
and every stage works on views of it: ``voxel_series`` gives the
(nt, V) time-by-voxel matrix without a copy and ``fold_voxels`` folds a
per-voxel result back onto the grid. The same x-fastest order is the
canonical scan order used when flattening masks.
"""

from __future__ import annotations

import gzip
import math
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyMaskError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"
MAX_VOX_OFFSET = 2**31
# Deflate expands at most 1032-fold, which bounds what a gzip file can hold.
MAX_DEFLATE_RATIO = 1032

# NIfTI-1 datatype codes accepted on read.
DTYPE_CODES = {
    2: np.uint8,
    4: np.int16,
    8: np.int32,
    16: np.float32,
    64: np.float64,
}
FLOAT32_CODE = 16

_HEADER_FIELDS = [
    ("sizeof_hdr", "i4"),
    ("data_type", "S10"),
    ("db_name", "S18"),
    ("extents", "i4"),
    ("session_error", "i2"),
    ("regular", "S1"),
    ("dim_info", "u1"),
    ("dim", "i2", (8,)),
    ("intent_p1", "f4"),
    ("intent_p2", "f4"),
    ("intent_p3", "f4"),
    ("intent_code", "i2"),
    ("datatype", "i2"),
    ("bitpix", "i2"),
    ("slice_start", "i2"),
    ("pixdim", "f4", (8,)),
    ("vox_offset", "f4"),
    ("scl_slope", "f4"),
    ("scl_inter", "f4"),
    ("slice_end", "i2"),
    ("slice_code", "u1"),
    ("xyzt_units", "u1"),
    ("cal_max", "f4"),
    ("cal_min", "f4"),
    ("slice_duration", "f4"),
    ("toffset", "f4"),
    ("glmax", "i4"),
    ("glmin", "i4"),
    ("descrip", "S80"),
    ("aux_file", "S24"),
    ("qform_code", "i2"),
    ("sform_code", "i2"),
    ("quatern_b", "f4"),
    ("quatern_c", "f4"),
    ("quatern_d", "f4"),
    ("qoffset_x", "f4"),
    ("qoffset_y", "f4"),
    ("qoffset_z", "f4"),
    ("srow_x", "f4", (4,)),
    ("srow_y", "f4", (4,)),
    ("srow_z", "f4", (4,)),
    ("intent_name", "S16"),
    ("magic", "S4"),
]

# Orientation fields passed through verbatim between read and write.
_ORIENTATION_FIELDS = (
    "qform_code",
    "sform_code",
    "quatern_b",
    "quatern_c",
    "quatern_d",
    "qoffset_x",
    "qoffset_y",
    "qoffset_z",
    "srow_x",
    "srow_y",
    "srow_z",
)


def _header_dtype(byteorder: str) -> np.dtype:
    return np.dtype(_HEADER_FIELDS).newbyteorder(byteorder)


@dataclass
class VolumeHeader:
    """Geometry and scaling metadata of a 4-D volume.

    dims are (nx, ny, nz, nt), voxel_size_mm covers the three spatial axes
    (slice gap folded into the z pitch), tr_seconds is the volume
    repetition time. orientation holds raw qform/sform header fields for
    verbatim pass-through.
    """

    dims: tuple[int, int, int, int]
    voxel_size_mm: tuple[float, float, float] = (3.3, 3.3, 4.8)
    tr_seconds: float = 3.0
    datatype_code: int = FLOAT32_CODE
    scl_slope: float = 1.0
    scl_inter: float = 0.0
    magic: bytes = MAGIC_SINGLE
    orientation: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 4 or any(d < 1 for d in self.dims):
            raise ShapeError(f"dims must be four positive integers, got {self.dims}")
        self.voxel_size_mm = tuple(float(v) for v in self.voxel_size_mm)
        if not all(0 < v < math.inf for v in self.voxel_size_mm):
            raise ShapeError(f"voxel sizes must be positive and finite, got {self.voxel_size_mm}")
        if self.dims[3] > 1 and not 0 < self.tr_seconds < math.inf:
            raise FormatError(
                f"tr_seconds must be positive and finite for a time series, got {self.tr_seconds}"
            )


@dataclass
class Volume4D:
    """A 4-D scalar field with its acquisition geometry.

    data has shape header.dims, dtype float64 and x-fastest (Fortran)
    layout; values are finite. Instances are treated as immutable once
    built and are safe to share.
    """

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asfortranarray(self.data, dtype=np.float64)
        if self.data.shape != self.header.dims:
            raise ShapeError(
                f"data shape {self.data.shape} does not match header dims {self.header.dims}"
            )
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume data contains non-finite values")

    @property
    def n_vols(self) -> int:
        return self.header.dims[3]

    @property
    def spatial_dims(self) -> tuple[int, int, int]:
        return self.header.dims[:3]


def voxel_series(vol: Volume4D) -> np.ndarray:
    """The (nt, V) time-by-voxel matrix of a volume, voxels in x-fastest
    scan order; a view of vol.data, not a copy."""
    return vol.data.reshape(-1, vol.n_vols, order="F").T


def fold_voxels(values: np.ndarray, spatial_dims) -> np.ndarray:
    """Fold the voxel axis of a per-voxel array back onto the grid.

    The inverse of ``voxel_series``: a (V,) map becomes (nx, ny, nz) and
    an (nt, V) matrix becomes (nx, ny, nz, nt), x-fastest.
    """
    return values.T.reshape(tuple(spatial_dims) + values.shape[:-1], order="F")


def make_volume(data, voxel_size_mm=(3.3, 3.3, 4.8), tr_seconds=3.0) -> Volume4D:
    """Wrap a 3-D or 4-D array as a Volume4D (3-D gets a singleton time axis)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3:
        data = data[..., np.newaxis]
    if data.ndim != 4:
        raise ShapeError(f"expected 3-D or 4-D data, got ndim={data.ndim}")
    header = VolumeHeader(dims=data.shape, voxel_size_mm=voxel_size_mm, tr_seconds=tr_seconds)
    return Volume4D(header=header, data=data)


def _open_for_read(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == GZIP_MAGIC:
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_nifti(path) -> Volume4D:
    """Read a single-file NIfTI-1 volume, applying intensity scaling.

    Stored values become raw * scl_slope + scl_inter (a slope of zero is
    treated as one). Both byte orders are accepted; gzip compression is
    detected from the leading two bytes regardless of file name.

    Raises FormatError for a malformed header or gzip stream,
    UnsupportedDatatypeError for datatypes outside the supported set, and
    TruncatedFileError when the data section is short, or longer than the
    file could hold (checked before reading it).
    """
    max_bytes = os.path.getsize(path)
    with _open_for_read(path) as fh:
        if isinstance(fh, gzip.GzipFile):
            max_bytes *= MAX_DEFLATE_RATIO
        try:
            raw_header = fh.read(HEADER_SIZE)
            if len(raw_header) < HEADER_SIZE:
                raise FormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

            header = np.frombuffer(raw_header, dtype=_header_dtype("<"), count=1)[0]
            byteorder = "<"
            if header["sizeof_hdr"] != HEADER_SIZE:
                header = np.frombuffer(raw_header, dtype=_header_dtype(">"), count=1)[0]
                byteorder = ">"
                if header["sizeof_hdr"] != HEADER_SIZE:
                    raise FormatError(
                        f"{path}: sizeof_hdr is not {HEADER_SIZE} in either byte order"
                    )

            # numpy strips trailing NULs from S fields, so compare without them
            magic = bytes(header["magic"])
            if magic != MAGIC_SINGLE.rstrip(b"\x00"):
                raise FormatError(f"{path}: magic {magic!r} is not single-file NIfTI-1 ('n+1\\0')")

            ndim = int(header["dim"][0])
            if not 1 <= ndim <= 7:
                raise FormatError(f"{path}: dim[0]={ndim} outside 1..7")
            shape = [max(1, int(d)) for d in header["dim"][1 : ndim + 1]]
            if any(d > 1 for d in shape[4:]):
                raise FormatError(
                    f"{path}: volumes with more than 4 non-singleton dims unsupported"
                )
            shape = (shape + [1, 1, 1, 1])[:4]

            code = int(header["datatype"])
            if code not in DTYPE_CODES:
                raise UnsupportedDatatypeError(code)
            dtype = np.dtype(DTYPE_CODES[code]).newbyteorder(byteorder)

            n_values = math.prod(shape)
            n_bytes = n_values * dtype.itemsize
            offset = float(header["vox_offset"])
            if not HEADER_SIZE <= offset < MAX_VOX_OFFSET:  # also rejects NaN
                raise FormatError(f"{path}: vox_offset {offset} outside [{HEADER_SIZE}, 2**31)")
            offset = int(offset)
            if offset + n_bytes > max_bytes:
                raise TruncatedFileError(
                    f"{path}: expected {n_bytes} data bytes at offset {offset}, "
                    "more than the file can hold"
                )
            fh.seek(offset)
            payload = fh.read(n_bytes)
            if len(payload) < n_bytes:
                raise TruncatedFileError(
                    f"{path}: expected {n_bytes} data bytes, got {len(payload)}"
                )
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise FormatError(f"{path}: corrupt gzip stream ({exc})") from exc

    raw = np.frombuffer(payload, dtype=dtype, count=n_values)
    data = raw.reshape(shape, order="F").astype(np.float64)

    slope = float(header["scl_slope"])
    inter = float(header["scl_inter"])
    if slope == 0.0:
        slope = 1.0
    if slope != 1.0 or inter != 0.0:
        data = data * slope + inter
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: data contains non-finite values after scaling")

    orientation = {name: np.array(header[name]).tolist() for name in _ORIENTATION_FIELDS}
    vox = tuple(float(v) for v in header["pixdim"][1:4])
    tr = float(header["pixdim"][4])
    if shape[3] == 1 and not 0 < tr < math.inf:
        tr = 1.0  # single volume: TR is meaningless, keep header constructible

    vol_header = VolumeHeader(
        dims=tuple(shape),
        voxel_size_mm=vox,
        tr_seconds=tr,
        datatype_code=code,
        scl_slope=float(header["scl_slope"]),
        scl_inter=inter,
        magic=MAGIC_SINGLE,
        orientation=orientation,
    )
    return Volume4D(header=vol_header, data=data)


def write_nifti(vol: Volume4D, path) -> None:
    """Write a volume as single-file little-endian float32 NIfTI-1.

    The data section starts at byte 352 (348-byte header plus a zeroed
    4-byte extension flag); scl_slope/scl_inter are written as 1/0. A
    ``.gz`` suffix selects gzip compression at level 1, the fastest, since
    float32 noise barely compresses at any level (mtime pinned to zero so
    identical volumes produce identical bytes).
    """
    header = np.zeros((), dtype=_header_dtype("<"))
    header["sizeof_hdr"] = HEADER_SIZE
    header["dim"][0] = 4
    header["dim"][1:5] = vol.header.dims
    header["dim"][5:] = 1
    header["datatype"] = FLOAT32_CODE
    header["bitpix"] = 32
    header["pixdim"][0] = 1.0
    header["pixdim"][1:4] = vol.header.voxel_size_mm
    header["pixdim"][4] = vol.header.tr_seconds
    header["vox_offset"] = VOX_OFFSET
    header["scl_slope"] = 1.0
    header["scl_inter"] = 0.0
    header["xyzt_units"] = 2 | 8  # mm, seconds
    header["descrip"] = b"boldkit"
    header["magic"] = MAGIC_SINGLE
    for name, value in vol.header.orientation.items():
        if name in _ORIENTATION_FIELDS:
            header[name] = value

    payload = vol.data.astype(np.float32).tobytes(order="F")
    blob = header.tobytes() + b"\x00\x00\x00\x00" + payload

    path = str(path)
    if path.endswith(".gz"):
        # pin mtime and drop the FNAME field so equal volumes give equal bytes
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0,
                               compresslevel=1) as fh:
                fh.write(blob)
    else:
        with open(path, "wb") as fh:
            fh.write(blob)


def extract_roi_series(vol: Volume4D, mask: np.ndarray) -> np.ndarray:
    """Time series of every masked voxel as an (nt, n_voxels) matrix.

    Column j belongs to the j-th masked voxel in canonical scan order, so
    the column layout is deterministic across calls and platforms.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != vol.spatial_dims:
        raise ShapeError(
            f"mask shape {mask.shape} does not match volume spatial dims {vol.spatial_dims}"
        )
    if not mask.any():
        raise EmptyMaskError("ROI mask selects no voxels")
    return voxel_series(vol)[:, mask.reshape(-1, order="F")]
