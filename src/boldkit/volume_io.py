"""NIfTI-1 volume I/O and ROI series extraction.

Single-file NIfTI-1 (.nii, optionally gzip-compressed) is the only format.
Reading accepts both byte orders and the scalar datatypes used for EPI
series; writing always emits little-endian float32 with scl_slope=1.
Orientation fields (qform/sform) are carried through untouched and never
interpreted.

A gzip file is read by one reader: its header is parsed once, from a
``GzipFile`` (zlib) stream. The system libdeflate, loaded through ctypes
on the first gzip read, then inflates the whole file in a single call
straight into a buffer of the size the header promises, about twice as
fast as zlib. When the library is missing, or the file is not one
well-formed member of that size, the same stream reads the data section
and raises every read error, so the data and errors never depend on the
inflater. Writing always uses zlib.

In memory a volume is a float64 array of shape (nx, ny, nz, nt) stored
x-fastest (Fortran order), as on disk. ``Volume4D`` enforces that layout,
and every stage works on views of it: ``voxel_series`` gives the
(nt, V) time-by-voxel matrix without a copy and ``fold_voxels`` folds a
per-voxel result back onto the grid. The same x-fastest order is the
canonical scan order used when flattening masks.
"""

from __future__ import annotations

import functools
import gzip
import io
import logging
import math
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DataError,
    EmptyMaskError,
    FormatError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)

HEADER_SIZE = 348
VOX_OFFSET = 352
MAGIC_SINGLE = b"n+1\x00"
GZIP_MAGIC = b"\x1f\x8b"
MAX_VOX_OFFSET = 2**31
# Largest value a float32 header field (pixdim) can hold.
FLOAT32_MAX = float(np.finfo(np.float32).max)
# Longest axis the int16 dim field can hold.
MAX_DIM = int(np.iinfo(np.int16).max)
# Deflate expands at most 1032-fold, which bounds what a gzip file can hold.
MAX_DEFLATE_RATIO = 1032
# Bytes read at a time past the data section of a gzip stream.
_DRAIN_CHUNK = 1 << 20
# Names the system libdeflate is loaded by (Linux, macOS), and its
# LIBDEFLATE_SUCCESS result code.
_LIBDEFLATE_NAMES = ("libdeflate.so.0", "libdeflate.0.dylib")
_LIBDEFLATE_SUCCESS = 0
# Byte budget of one block in the blocked passes over a volume.
_BLOCK_BYTES = 1 << 20

logger = logging.getLogger(__name__)

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
    """Geometry metadata of a 4-D volume.

    dims are (nx, ny, nz, nt) (``spatial_dims`` and ``n_vols`` split
    them), so a header alone gives the grid of a volume or a map;
    voxel_size_mm covers the three spatial axes
    (slice gap folded into the z pitch), tr_seconds is the volume
    repetition time. datatype_code is the voxel datatype of the file the
    volume was read from (float32, as written, for one built in memory).
    orientation holds raw qform/sform header fields for verbatim
    pass-through.
    """

    dims: tuple[int, int, int, int]
    voxel_size_mm: tuple[float, float, float] = (3.3, 3.3, 4.8)
    tr_seconds: float = 3.0
    datatype_code: int = FLOAT32_CODE
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

    @property
    def n_vols(self) -> int:
        return self.dims[3]

    @property
    def spatial_dims(self) -> tuple[int, int, int]:
        return self.dims[:3]


@dataclass
class Volume4D:
    """A 4-D scalar field with its acquisition geometry.

    data has shape header.dims, dtype float64 and x-fastest (Fortran)
    layout; values are finite when the volume is built. ``Volume4D(...)``
    and ``make_volume`` check data from outside the library, a block of
    about 1 MB at a time. Each library stage that writes run data
    (``read_nifti``, ``generate_phantom``, the ``preprocess`` stages,
    ``average_runs``) checks every block as it writes it and builds its
    result with ``Volume4D._checked``, without a second pass;
    ``concatenate_runs`` joins volumes already checked into a new array.
    The in-place ``preprocess`` stages (``in_place=True``) overwrite the
    data they are given, so a volume is not immutable: the flows
    preprocess each run inside its own array (``pipeline.preprocess_runs``).
    """

    header: VolumeHeader
    data: np.ndarray

    def __post_init__(self):
        self._check_layout()
        if not all(all_finite(self.data[..., block]) for block in time_blocks(self.header.dims)):
            raise ValueError("volume data contains non-finite values")

    @classmethod
    def _checked(cls, header: VolumeHeader, data: np.ndarray) -> "Volume4D":
        """A volume of data that is already known to be finite: the stage
        that wrote it checked every block (check_finite), or it holds only
        data of checked volumes. Built with the layout check, without the
        finiteness pass; for the library's own stages only."""
        vol = cls.__new__(cls)
        vol.header, vol.data = header, data
        vol._check_layout()
        return vol

    def _check_layout(self) -> None:
        self.data = np.asfortranarray(self.data, dtype=np.float64)
        if self.data.shape != self.header.dims:
            raise ShapeError(
                f"data shape {self.data.shape} does not match header dims {self.header.dims}"
            )

    @property
    def n_vols(self) -> int:
        return self.header.n_vols

    @property
    def spatial_dims(self) -> tuple[int, int, int]:
        return self.header.spatial_dims


def voxel_series(vol: Volume4D) -> np.ndarray:
    """The (nt, V) time-by-voxel matrix of a volume, voxels in x-fastest
    scan order; a view of vol.data, not a copy."""
    return vol.data.reshape(-1, vol.n_vols, order="F").T


def block_width(n_rows: int) -> int:
    """Columns of an (n_rows, V) float64 matrix per block: a fixed ~1 MB
    byte budget, so a block of voxel series or of whole volumes stays
    cache-sized and a blocked pass's scratch stays small."""
    return max(1, _BLOCK_BYTES // (8 * n_rows))


def time_blocks(dims) -> list:
    """Slices of the time axis that cut an x-fastest volume of these dims
    into consecutive blocks of whole volumes of about 1 MB (block_width)."""
    step = block_width(math.prod(dims[:3]))
    return [slice(start, start + step) for start in range(0, dims[3], step)]


def all_finite(values: np.ndarray) -> bool:
    """Whether every value is finite. NaN and +-inf each show in the min
    or the max, so no temporary of the values' size is made."""
    return bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def check_finite(block: np.ndarray, stage: str) -> None:
    """Raise NumericError naming the stage unless every value of a block
    it has just written is finite; called while the block is in cache."""
    if not all_finite(block):
        raise NumericError(f"{stage} overflows float64: its result holds non-finite values")


def fold_voxels(values: np.ndarray, spatial_dims) -> np.ndarray:
    """Fold the voxel axis of a per-voxel array back onto the grid.

    The inverse of ``voxel_series``: a (V,) map becomes (nx, ny, nz) and
    an (nt, V) matrix becomes (nx, ny, nz, nt), x-fastest.
    """
    return values.T.reshape(tuple(spatial_dims) + values.shape[:-1], order="F")


def output_array(dims, out: np.ndarray | None = None) -> np.ndarray:
    """The array every stage writes a volume of these dims into: a new
    x-fastest float64 array, or out, checked to be one of that shape and
    writable (ShapeError for another shape, ValueError otherwise)."""
    if out is None:
        return np.empty(tuple(dims), order="F")
    if out.shape != tuple(dims):
        raise ShapeError(f"data of shape {tuple(dims)} cannot fill an array of shape {out.shape}")
    if not (out.dtype == np.float64 and out.flags.f_contiguous and out.flags.writeable):
        raise ValueError("an output array must be writable x-fastest float64 data")
    return out


def make_volume(data, voxel_size_mm=(3.3, 3.3, 4.8), tr_seconds=3.0) -> Volume4D:
    """Wrap a 3-D or 4-D array as a Volume4D (3-D gets a singleton time axis)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3:
        data = data[..., np.newaxis]
    if data.ndim != 4:
        raise ShapeError(f"expected 3-D or 4-D data, got ndim={data.ndim}")
    header = VolumeHeader(dims=data.shape, voxel_size_mm=voxel_size_mm, tr_seconds=tr_seconds)
    return Volume4D(header=header, data=data)


class _Layout(NamedTuple):
    """What a checked header says about the data section."""

    header: np.void
    shape: tuple
    code: int
    dtype: np.dtype
    offset: int
    n_bytes: int


def _parse_header(path, raw_header: bytes, max_bytes: int) -> _Layout:
    """Parse and check the 348-byte header; the data section it promises
    must fit in max_bytes."""
    if len(raw_header) < HEADER_SIZE:
        raise FormatError(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

    header = np.frombuffer(raw_header, dtype=_header_dtype("<"), count=1)[0]
    byteorder = "<"
    if header["sizeof_hdr"] != HEADER_SIZE:
        header = np.frombuffer(raw_header, dtype=_header_dtype(">"), count=1)[0]
        byteorder = ">"
        if header["sizeof_hdr"] != HEADER_SIZE:
            raise FormatError(f"{path}: sizeof_hdr is not {HEADER_SIZE} in either byte order")

    # numpy strips trailing NULs from S fields, so compare without them
    magic = bytes(header["magic"])
    if magic != MAGIC_SINGLE.rstrip(b"\x00"):
        raise FormatError(f"{path}: magic {magic!r} is not single-file NIfTI-1 ('n+1\\0')")

    ndim = int(header["dim"][0])
    if not 1 <= ndim <= 7:
        raise FormatError(f"{path}: dim[0]={ndim} outside 1..7")
    shape = [max(1, int(d)) for d in header["dim"][1 : ndim + 1]]
    if any(d > 1 for d in shape[4:]):
        raise FormatError(f"{path}: volumes with more than 4 non-singleton dims unsupported")
    shape = tuple((shape + [1, 1, 1, 1])[:4])

    code = int(header["datatype"])
    if code not in DTYPE_CODES:
        raise UnsupportedDatatypeError(code)
    dtype = np.dtype(DTYPE_CODES[code]).newbyteorder(byteorder)

    for name in ("scl_slope", "scl_inter"):
        if not math.isfinite(header[name]):
            raise FormatError(f"{path}: {name} {float(header[name])} is not finite")

    n_bytes = math.prod(shape) * dtype.itemsize
    offset = float(header["vox_offset"])
    if not HEADER_SIZE <= offset < MAX_VOX_OFFSET:  # also rejects NaN
        raise FormatError(f"{path}: vox_offset {offset} outside [{HEADER_SIZE}, 2**31)")
    offset = int(offset)
    if offset + n_bytes > max_bytes:
        raise TruncatedFileError(
            f"{path}: expected {n_bytes} data bytes at offset {offset}, "
            "more than the file can hold"
        )
    return _Layout(header, shape, code, dtype, offset, n_bytes)


def _read_gzip(path, blob: bytes) -> tuple[_Layout, object, str]:
    """Header, data section and inflater name of the gzip file ``blob``.

    The header is parsed once, from a ``GzipFile`` (zlib) stream, which
    reads any number of members. When libdeflate loads and ISIZE matches
    the size the header promises, the whole file is inflated in one call
    into a buffer of exactly that size; otherwise, or when that call
    fails, the same stream reads on, checks every member's CRC-32 and
    ISIZE, and raises the read error.
    """
    with gzip.GzipFile(fileobj=io.BytesIO(blob), mode="rb") as fh:
        try:
            layout = _parse_header(path, fh.read(HEADER_SIZE), len(blob) * MAX_DEFLATE_RATIO)
            size = layout.offset + layout.n_bytes
            # ISIZE, the last four bytes, is the member's length mod 2**32: a
            # mismatch rules libdeflate out before the buffer is allocated
            if ((inflate := _libdeflate()) is not None
                    and int.from_bytes(blob[-4:], "little") == size % 2**32):
                buffer = np.empty(size, dtype=np.uint8)
                if inflate(blob, buffer):
                    return layout, buffer[layout.offset:], "libdeflate"
                del buffer
            fh.seek(layout.offset)
            payload = fh.read(layout.n_bytes)
            if len(payload) < layout.n_bytes:
                raise TruncatedFileError(
                    f"{path}: expected {layout.n_bytes} data bytes, got {len(payload)}"
                )
            # GzipFile checks a member's CRC-32 and ISIZE only once it reads
            # past the member's end, so the rest of the stream is drained
            while fh.read(_DRAIN_CHUNK):
                pass
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise FormatError(f"{path}: corrupt gzip stream ({exc})") from exc
    return layout, payload, "zlib"


@functools.cache
def _libdeflate():
    """The system libdeflate's one-shot gzip inflater, or None when the
    library or one of its symbols is missing.

    Returns ``inflate(blob, out) -> bool``, which inflates the gzip file
    ``blob`` into the uint8 array ``out`` with a decompressor of its own
    (so concurrent calls are safe; ctypes releases the GIL during the
    call). It is True only if the stream passes libdeflate's CRC-32 and
    ISIZE checks, is one member that uses every input byte, and fills
    ``out`` exactly. Loaded on the first gzip read, not at import.
    """
    import ctypes

    for name in _LIBDEFLATE_NAMES:
        try:
            lib = ctypes.CDLL(name)
            alloc = lib.libdeflate_alloc_decompressor
            gzip_decompress = lib.libdeflate_gzip_decompress_ex
            free = lib.libdeflate_free_decompressor
        except (OSError, AttributeError):
            continue
        break
    else:
        return None
    size_p = ctypes.POINTER(ctypes.c_size_t)
    alloc.argtypes, alloc.restype = [], ctypes.c_void_p
    free.argtypes, free.restype = [ctypes.c_void_p], None
    gzip_decompress.argtypes = [ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t,
                                ctypes.c_void_p, ctypes.c_size_t, size_p, size_p]
    gzip_decompress.restype = ctypes.c_int

    def inflate(blob: bytes, out: np.ndarray) -> bool:
        if not (out.flags.c_contiguous and out.flags.writeable):
            raise ValueError("libdeflate inflates into a writable contiguous array only")
        decompressor = alloc()
        if not decompressor:
            return False
        used_in, used_out = ctypes.c_size_t(), ctypes.c_size_t()
        try:
            result = gzip_decompress(decompressor, blob, len(blob), out.ctypes.data, out.nbytes,
                                     ctypes.byref(used_in), ctypes.byref(used_out))
        finally:
            free(decompressor)
        return (result == _LIBDEFLATE_SUCCESS and used_in.value == len(blob)
                and used_out.value == out.nbytes)

    return inflate


def _volume_header(layout: _Layout) -> VolumeHeader:
    """The VolumeHeader of a checked file header."""
    header = layout.header
    orientation = {name: np.array(header[name]).tolist() for name in _ORIENTATION_FIELDS}
    vox = tuple(float(v) for v in header["pixdim"][1:4])
    tr = float(header["pixdim"][4])
    if layout.shape[3] == 1 and not 0 < tr < math.inf:
        tr = 1.0  # single volume: TR is meaningless, keep header constructible
    return VolumeHeader(
        dims=layout.shape,
        voxel_size_mm=vox,
        tr_seconds=tr,
        datatype_code=layout.code,
        orientation=orientation,
    )


def read_nifti_header(path) -> VolumeHeader:
    """The header ``read_nifti(path)`` would give, from the file's first
    bytes: a gzip file has only its first 348 bytes inflated. The header
    is checked as a read checks it, against the file's size, but the data
    section is not read, so a file whose header reads may still fail to.
    Raises what ``read_nifti`` raises for the same fault in the header.
    """
    try:
        with open(path, "rb") as fh:
            file_bytes = os.fstat(fh.fileno()).st_size
            if fh.read(2) != GZIP_MAGIC:
                fh.seek(0)
                return _volume_header(_parse_header(path, fh.read(HEADER_SIZE), file_bytes))
            fh.seek(0)
            try:
                with gzip.GzipFile(fileobj=fh, mode="rb") as stream:
                    raw_header = stream.read(HEADER_SIZE)
            except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
                raise FormatError(f"{path}: corrupt gzip stream ({exc})") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    return _volume_header(_parse_header(path, raw_header, file_bytes * MAX_DEFLATE_RATIO))


def read_nifti(path) -> Volume4D:
    """Read a single-file NIfTI-1 volume, applying intensity scaling.

    Stored values become raw * scl_slope + scl_inter (a slope of zero is
    treated as one). Both byte orders are accepted; gzip compression is
    detected from the leading two bytes regardless of file name. The
    header is parsed once; a gzip file's data section is inflated by the
    system libdeflate when it loads and the file is one well-formed
    member, and by zlib otherwise, with identical data and errors either
    way. The file is read once, whole; a plain file's data section is a
    view of those bytes, and a gzip file's compressed bytes are freed
    before the float64 conversion. The data are converted, scaled and
    checked for finiteness a block of about 1 MB at a time into a new
    x-fastest array (``output_array``), the result's data.
    One DEBUG record per read names the inflater, the file and raw bytes
    and the seconds taken.

    Raises DataError when the path cannot be opened (missing, a
    directory, unreadable), FormatError for a malformed header (such as
    a non-finite scl_slope) or gzip stream or non-finite data, UnsupportedDatatypeError
    for datatypes outside the supported set, TruncatedFileError when
    the data section is short, or longer than the file could hold
    (checked before inflating it).
    """
    start = time.perf_counter()
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc
    file_bytes = len(blob)
    if blob[:2] != GZIP_MAGIC:
        inflater = "none"
        layout = _parse_header(path, blob[:HEADER_SIZE], file_bytes)
        payload = memoryview(blob)[layout.offset:layout.offset + layout.n_bytes]
    else:
        layout, payload, inflater = _read_gzip(path, blob)
    del blob  # a plain file's payload is a view of it; compressed bytes are freed
    header, shape = layout.header, layout.shape

    raw = np.frombuffer(payload, dtype=layout.dtype, count=math.prod(shape))
    raw = raw.reshape(shape, order="F")
    data = output_array(shape)
    vol_header = _volume_header(layout)

    slope = float(header["scl_slope"])
    inter = float(header["scl_inter"])
    if slope == 0.0:
        slope = 1.0
    # each block is converted, scaled and checked while it is in cache;
    # an overflow of the scaling is the FormatError below
    with np.errstate(over="ignore", invalid="ignore"):
        for block in time_blocks(shape):
            values = data[..., block]
            values[...] = raw[..., block]
            if slope != 1.0 or inter != 0.0:
                values *= slope
                values += inter
            if not all_finite(values):
                raise FormatError(f"{path}: data contains non-finite values after scaling")
    del payload, raw
    vol = Volume4D._checked(vol_header, data)
    logger.debug("read %s: %s, %d file bytes -> %d raw bytes in %.3f s", path, inflater,
                 file_bytes, layout.offset + layout.n_bytes, time.perf_counter() - start)
    return vol


def write_nifti(vol: Volume4D, path) -> None:
    """Write a volume as single-file little-endian float32 NIfTI-1.

    The data section starts at byte 352 (348-byte header plus a zeroed
    4-byte extension flag); scl_slope/scl_inter are written as 1/0. A
    ``.gz`` suffix selects gzip compression at level 1, the fastest, since
    float32 noise barely compresses at any level (mtime pinned to zero so
    identical volumes produce identical bytes). Raises ValueError, before
    the path is opened, when a dim exceeds MAX_DIM or a voxel size or the
    TR does not fit float32, and NumericError when a voxel value does not:
    the data are cast a block of volumes at a time (time_blocks), each
    block checked while in cache.
    """
    if max(vol.header.dims) > MAX_DIM:
        raise ValueError(f"dims {vol.header.dims} exceed {MAX_DIM}, the NIfTI header's limit")
    pixdim = vol.header.voxel_size_mm + (vol.header.tr_seconds,)
    if not all(abs(v) <= FLOAT32_MAX for v in pixdim):  # also rejects NaN
        raise ValueError(f"voxel sizes and TR {pixdim} do not all fit float32")
    header = np.zeros((), dtype=_header_dtype("<"))
    header["sizeof_hdr"] = HEADER_SIZE
    header["dim"][0] = 4
    header["dim"][1:5] = vol.header.dims
    header["dim"][5:] = 1
    header["datatype"] = FLOAT32_CODE
    header["bitpix"] = 32
    header["pixdim"][0] = 1.0
    header["pixdim"][1:5] = pixdim
    header["vox_offset"] = VOX_OFFSET
    header["scl_slope"] = 1.0
    header["scl_inter"] = 0.0
    header["xyzt_units"] = 2 | 8  # mm, seconds
    header["descrip"] = b"boldkit"
    header["magic"] = MAGIC_SINGLE
    for name, value in vol.header.orientation.items():
        if name in _ORIENTATION_FIELDS:
            header[name] = value

    payload = np.empty(vol.header.dims, dtype=np.float32, order="F")
    for block in time_blocks(vol.header.dims):
        with np.errstate(over="ignore"):  # an overflow is one NumericError, below
            payload[..., block] = vol.data[..., block]
        if not all_finite(payload[..., block]):
            raise NumericError(f"cannot write {path}: voxel values beyond the float32 range")
    # the header, then the payload's memory in file order: no bytes copy of it
    pieces = (header.tobytes() + b"\x00\x00\x00\x00", payload.reshape(-1, order="F"))

    path = str(path)
    if path.endswith(".gz"):
        # pin mtime and drop the FNAME field so equal volumes give equal bytes
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0,
                               compresslevel=1) as fh:
                for piece in pieces:
                    fh.write(piece)
    else:
        with open(path, "wb") as fh:
            for piece in pieces:
                fh.write(piece)


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
