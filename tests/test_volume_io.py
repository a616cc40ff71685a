"""NIfTI-1 reading, writing, scaling, and ROI extraction."""

import ctypes
import gzip
import logging
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from boldkit.errors import (
    DataError,
    EmptyMaskError,
    FormatError,
    ShapeError,
    TruncatedFileError,
    UnsupportedDatatypeError,
)
from boldkit import pipeline, volume_io
from boldkit.config import validate_config
from boldkit.duration import RunSet, average_runs, concatenate_runs, single_run_design
from boldkit.preprocess import gaussian_smooth, interleaved_order, slice_timing_correct
from boldkit.task_design import BlockDesign
from boldkit.volume_io import (
    MAX_DIM,
    Volume4D,
    VolumeHeader,
    extract_roi_series,
    fold_voxels,
    make_volume,
    read_nifti,
    read_nifti_header,
    voxel_series,
    write_nifti,
)

from oracles import build_raw_nifti, roi_series_walk, traced_peak


def random_volume(rng, dims=(5, 4, 3, 6)):
    data = rng.standard_normal(dims).astype(np.float32).astype(np.float64)
    return make_volume(data, voxel_size_mm=(3.3, 3.3, 4.8), tr_seconds=3.0)


LIBDEFLATE_MISSING = "the system libdeflate (libdeflate.so.0) is not installed"


@pytest.fixture
def zlib_only(monkeypatch):
    """Make libdeflate unavailable, so every gzip read takes the zlib path."""
    monkeypatch.setattr(volume_io, "_libdeflate", lambda: None)


@pytest.fixture(params=["libdeflate", "zlib"])
def inflater(request):
    """Run a test once per gzip inflater; the libdeflate run is skipped
    where the library is absent."""
    if request.param == "zlib":
        request.getfixturevalue("zlib_only")
    elif volume_io._libdeflate() is None:
        pytest.skip(LIBDEFLATE_MISSING)
    return request.param


def read_outcome(path):
    """What read_nifti makes of a file: its data and header, or the class
    and message of the DataError it raises."""
    try:
        vol = read_nifti(path)
    except DataError as exc:
        return type(exc), str(exc)
    return vol.data.tobytes(order="F"), vol.header


class TestRead:
    def test_hand_built_float32_file(self, tmp_path):
        values = np.arange(128, dtype=np.float32)
        blob = build_raw_nifti((4, 4, 4, 2), values.tobytes(), datatype=16, bitpix=32)
        path = tmp_path / "hand.nii"
        path.write_bytes(blob)

        vol = read_nifti(path)
        assert vol.header.dims == (4, 4, 4, 2)
        assert vol.data.size == 128
        # x varies fastest on disk
        assert vol.data[1, 0, 0, 0] == 1.0
        assert vol.data[0, 1, 0, 0] == 4.0
        assert vol.data[0, 0, 0, 1] == 64.0

    def test_scl_slope_and_inter_applied(self, tmp_path):
        raw = np.array([5, -3, 0, 7], dtype=np.int16)
        blob = build_raw_nifti((4, 1, 1, 1), raw.tobytes(), datatype=4, bitpix=16,
                               scl_slope=2.0, scl_inter=1.0)
        path = tmp_path / "scaled.nii"
        path.write_bytes(blob)

        vol = read_nifti(path)
        np.testing.assert_array_equal(vol.data.ravel(order="F"), [11.0, -5.0, 1.0, 15.0])

    def test_zero_slope_treated_as_one(self, tmp_path):
        raw = np.array([5], dtype=np.int16)
        blob = build_raw_nifti((1, 1, 1, 1), raw.tobytes(), datatype=4, bitpix=16,
                               scl_slope=0.0, scl_inter=2.0)
        path = tmp_path / "zslope.nii"
        path.write_bytes(blob)
        assert read_nifti(path).data.ravel()[0] == 7.0

    @pytest.mark.parametrize("field, value", [("scl_slope", float("inf")),
                                              ("scl_inter", float("nan"))])
    def test_non_finite_scaling_rejected_before_scaling(self, tmp_path, field, value):
        blob = build_raw_nifti((2, 2, 1, 1), b"\x00" * 16, datatype=16, bitpix=32, **{field: value})
        path = tmp_path / "scaling.nii"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match=field):
                read_nifti(path)

    @pytest.mark.parametrize("case", ["scaling overflows", "nan", "inf"])
    def test_non_finite_data_after_scaling_is_a_format_error(self, tmp_path, case):
        # the bad value sits in the last volume, several blocks in
        dims = (64, 64, 4, 40)
        values = np.ones(dims, dtype="<f8")
        slope = 1.0
        if case == "scaling overflows":
            values[..., -1] = 1e300
            slope = 1e30
        else:
            values[-1, -1, -1, -1] = float(case)
        blob = build_raw_nifti(dims, values.tobytes(order="F"), datatype=64, bitpix=64,
                               scl_slope=slope)
        path = tmp_path / "bad.nii"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="non-finite values after scaling"):
                read_nifti(path)

    def test_big_endian_file(self, tmp_path):
        values = np.arange(8, dtype=">f4")
        blob = build_raw_nifti((2, 2, 2, 1), values.tobytes(), datatype=16, bitpix=32,
                               byteorder=">")
        path = tmp_path / "big.nii"
        path.write_bytes(blob)
        vol = read_nifti(path)
        np.testing.assert_array_equal(vol.data.ravel(order="F"), np.arange(8.0))

    def test_gzip_detected_by_magic_bytes_not_extension(self, tmp_path):
        values = np.zeros(4, dtype=np.float32)
        blob = build_raw_nifti((4, 1, 1, 1), values.tobytes(), datatype=16, bitpix=32)
        path = tmp_path / "sneaky.nii"  # gzipped content, plain extension
        path.write_bytes(gzip.compress(blob))
        vol = read_nifti(path)
        assert vol.data.shape == (4, 1, 1, 1)

    def test_reading_twice_is_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        vol = random_volume(rng)
        path = tmp_path / "det.nii"
        write_nifti(vol, path)
        first = read_nifti(path)
        second = read_nifti(path)
        assert np.array_equal(first.data, second.data)
        assert first.header == second.header

    def test_wrong_sizeof_hdr_rejected(self, tmp_path):
        blob = build_raw_nifti((1, 1, 1, 1), b"\x00" * 4, datatype=16, bitpix=32,
                               sizeof_hdr=340)
        path = tmp_path / "bad.nii"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_nifti(path)

    def test_two_file_magic_rejected(self, tmp_path):
        blob = build_raw_nifti((1, 1, 1, 1), b"\x00" * 4, datatype=16, bitpix=32,
                               magic=b"ni1\x00")
        path = tmp_path / "pair.nii"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_nifti(path)

    def test_unsupported_datatype_names_the_code(self, tmp_path):
        blob = build_raw_nifti((1, 1, 1, 1), b"\x00" * 8, datatype=32, bitpix=64)
        path = tmp_path / "cplx.nii"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedDatatypeError, match="32"):
            read_nifti(path)

    def test_truncated_data_section(self, tmp_path):
        values = np.zeros(10, dtype=np.float32)  # header promises 16
        blob = build_raw_nifti((4, 4, 1, 1), values.tobytes(), datatype=16, bitpix=32)
        path = tmp_path / "short.nii"
        path.write_bytes(blob)
        with pytest.raises(TruncatedFileError):
            read_nifti(path)

    @pytest.mark.parametrize("offset", [float("nan"), float("inf"), -float("inf"), 1e30, 2.0**31])
    def test_implausible_vox_offset_rejected(self, tmp_path, offset):
        blob = bytearray(build_raw_nifti((1, 1, 1, 1), b"\x00" * 4, datatype=16, bitpix=32))
        struct.pack_into("<f", blob, 108, offset)
        path = tmp_path / "offset.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=r"vox_offset \S+ outside"):
            read_nifti(path)

    @pytest.mark.parametrize("pixdim_index", [1, 4])  # a voxel size; the TR
    def test_non_finite_pixdim_rejected(self, tmp_path, pixdim_index):
        blob = bytearray(build_raw_nifti((1, 1, 1, 2), b"\x00" * 8, datatype=16, bitpix=32))
        struct.pack_into("<f", blob, 76 + 4 * pixdim_index, float("nan"))
        path = tmp_path / "pixdim.nii"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="positive and finite"):
            read_nifti(path)

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_payload_larger_than_file_can_hold_rejected(self, tmp_path, gzipped):
        # 32767^4 float64 values: far more bytes than any file here holds
        blob = build_raw_nifti((32767, 32767, 32767, 32767), b"\x00" * 8,
                               datatype=64, bitpix=64)
        path = tmp_path / "huge.nii"
        path.write_bytes(gzip.compress(blob, mtime=0) if gzipped else blob)
        with pytest.raises(TruncatedFileError):
            read_nifti(path)

    def test_corrupt_gzip_stream_is_format_error(self, tmp_path):
        vol = random_volume(np.random.default_rng(3))
        path = tmp_path / "vol.nii.gz"
        write_nifti(vol, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:10] + bytes(b ^ 0x5A for b in blob[10:40]) + blob[40:])
        with pytest.raises(FormatError):
            read_nifti(path)
        # the corrupt bytes lie within the header's share of the stream
        with pytest.raises(FormatError, match="corrupt gzip stream"):
            read_nifti_header(path)

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_file_shorter_than_the_header(self, tmp_path, gzipped):
        blob = build_raw_nifti((1, 1, 1, 1), b"\x00" * 4, datatype=16, bitpix=32)[:200]
        path = tmp_path / "short.nii"
        path.write_bytes(gzip.compress(blob, mtime=0) if gzipped else blob)
        for read in (read_nifti, read_nifti_header):
            with pytest.raises(FormatError, match="file shorter than the 348-byte header"):
                read(path)

    def test_missing_path_is_a_data_error(self, tmp_path):
        for read in (read_nifti, read_nifti_header):
            with pytest.raises(DataError, match="cannot read"):
                read(tmp_path / "missing.nii")

    def test_one_volume_without_a_tr_reads_with_tr_one(self, tmp_path):
        blob = build_raw_nifti((2, 1, 1, 1), b"\x00" * 8, datatype=16, bitpix=32, tr=0.0)
        path = tmp_path / "one.nii"
        path.write_bytes(blob)
        assert read_nifti(path).header.tr_seconds == 1.0
        assert read_nifti_header(path).tr_seconds == 1.0


    @pytest.mark.parametrize("name, raw, datatype, bitpix, slope, inter", [
        ("float32.nii.gz", np.arange(120, dtype=np.float32) - 60.5, 16, 32, 0.0, 0.0),
        ("scaled-int16.nii", np.arange(120, dtype=np.int16) - 60, 4, 16, 2.5, -3.0),
    ])
    def test_read_into_an_output_array(self, tmp_path, name, raw, datatype, bitpix,
                                       slope, inter):
        blob = build_raw_nifti((5, 4, 3, 2), raw.tobytes(), datatype=datatype, bitpix=bitpix,
                               scl_slope=slope, scl_inter=inter)
        path = tmp_path / name
        path.write_bytes(gzip.compress(blob, mtime=0) if name.endswith(".gz") else blob)
        expected = read_nifti(path)
        assert read_nifti_header(path) == expected.header

        stack = np.full((5, 4, 3, 6), -1.0, order="F")
        slab = stack[..., 3:5]
        vol = read_nifti(path, out=slab)
        assert vol.data is slab and vol.header == expected.header
        assert np.array_equal(slab, expected.data)
        assert (stack[..., :3] == -1.0).all() and (stack[..., 5:] == -1.0).all()
        with pytest.raises(ShapeError):
            read_nifti(path, out=stack[..., :3])


@pytest.mark.usefixtures("zlib_only")
class TestReadZlib(TestRead):
    """Every read case again with gzip files inflated by zlib."""


class TestGzipInflaters:
    """libdeflate and zlib give the same data, or the same error, on the
    same gzip file; libdeflate takes only single well-formed members."""

    BLOB = build_raw_nifti((4, 3, 2, 5), np.arange(120, dtype=np.float32).tobytes(),
                           datatype=16, bitpix=32)

    def test_libdeflate_loads_where_installed(self):
        # the fast-path tests are skipped only where this finds no library
        found = False
        for name in volume_io._LIBDEFLATE_NAMES:
            try:
                lib = ctypes.CDLL(name)
                found = all(hasattr(lib, symbol) for symbol in (
                    "libdeflate_alloc_decompressor", "libdeflate_gzip_decompress_ex",
                    "libdeflate_free_decompressor"))
            except OSError:
                continue
            break
        assert (volume_io._libdeflate() is not None) == found

    def test_missing_library_or_symbol_gives_none(self, monkeypatch):
        # libc loads but has no libdeflate symbols; the second name loads nothing
        monkeypatch.setattr(volume_io, "_LIBDEFLATE_NAMES", ("libc.so.6", "libnosuchlib.so.0"))
        assert volume_io._libdeflate.__wrapped__() is None

    def test_import_does_not_load_libdeflate(self):
        code = ("import boldkit.cli, boldkit.volume_io as v; "
                "assert v._libdeflate.cache_info().currsize == 0")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    @pytest.mark.parametrize("gzipped", [False, True])
    def test_one_debug_record_per_read(self, tmp_path, caplog, inflater, gzipped):
        path = tmp_path / "run.nii"
        path.write_bytes(gzip.compress(self.BLOB, mtime=0) if gzipped else self.BLOB)
        with caplog.at_level(logging.DEBUG, logger="boldkit.volume_io"):
            read_nifti(path)
        used = inflater if gzipped else "none"
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG
        assert record.getMessage().startswith(
            f"read {path}: {used}, {path.stat().st_size} file bytes -> {len(self.BLOB)} raw bytes in ")

    def mangled(self, case):
        member = gzip.compress(self.BLOB, mtime=0)
        if case == "one member":
            return member
        if case == "two members":
            return gzip.compress(self.BLOB[:200], mtime=0) + gzip.compress(self.BLOB[200:], mtime=0)
        if case == "trailing bytes":
            return member + b"\x00\x00junk"
        if case == "cut in payload":
            return member[: len(member) - 200]
        if case == "corrupt body":  # the deflate data, trailer intact
            body = bytearray(member)
            body[len(body) // 2: len(body) // 2 + 16] = b"\xff" * 16
            return bytes(body)
        if case == "flipped crc":
            crc = bytearray(member)
            crc[-8] ^= 0x01  # the CRC-32 precedes the 4-byte ISIZE
            return bytes(crc)
        if case == "wrong isize":
            isize = bytearray(member)
            isize[-4] ^= 0x01
            return bytes(isize)
        raise AssertionError(case)

    @pytest.mark.parametrize("case", ["one member", "two members", "trailing bytes",
                                      "cut in payload", "corrupt body", "flipped crc",
                                      "wrong isize"])
    def test_streams_read_alike(self, tmp_path, monkeypatch, case):
        path = tmp_path / "odd.nii.gz"
        path.write_bytes(self.mangled(case))
        fast = read_outcome(path)
        monkeypatch.setattr(volume_io, "_libdeflate", lambda: None)
        reference = read_outcome(path)
        assert fast == reference
        if case in ("one member", "two members"):
            np.testing.assert_array_equal(np.frombuffer(reference[0]), np.arange(120.0))
        if case in ("cut in payload", "corrupt body", "flipped crc", "wrong isize"):
            assert issubclass(reference[0], FormatError)

    @pytest.mark.parametrize("case", ["one member", "two members", "trailing bytes",
                                      "cut in payload", "corrupt body", "flipped crc",
                                      "wrong isize"])
    def test_header_parsed_at_most_once(self, tmp_path, monkeypatch, case):
        path = tmp_path / "odd.nii.gz"
        path.write_bytes(self.mangled(case))
        parse, calls = volume_io._parse_header, []

        def counting_parse(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(volume_io, "_parse_header", counting_parse)
        read_outcome(path)
        assert len(calls) <= 1

    def test_read_holds_no_more_than_payload_and_result(self, tmp_path, inflater):
        # float32 on disk: the float64 result is twice the payload. Neither
        # the compressed bytes (during the conversion) nor the payload
        # (during the finiteness pass) may be held beside both.
        vol = random_volume(np.random.default_rng(12), dims=(32, 32, 16, 20))
        path = tmp_path / "run.nii.gz"
        write_nifti(vol, path)
        payload = 4 * vol.data.size
        read_nifti(path)  # let one-time loading happen outside the trace
        tracemalloc.start()
        try:
            read_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= payload + 2 * payload + 64 * 1024


_VALID_HEADER = build_raw_nifti((3, 2, 2, 4), np.arange(48, dtype=np.float32).tobytes(),
                                datatype=16, bitpix=32)

_SPECIAL_FLOATS = st.sampled_from([0.0, -1.0, 1e-30, 1e30, 2.0**31, float("nan"),
                                   float("inf"), -float("inf")])

# Byte positions of the float32 fields pixdim, vox_offset, scl_slope and
# scl_inter, and of the int16 fields dim, datatype and bitpix.
_FLOAT_FIELDS = st.sampled_from(list(range(76, 120, 4)))
_INT16_FIELDS = st.sampled_from(list(range(40, 56, 2)) + [70, 72])

# One mutation of the 352-byte header prefix: a raw byte anywhere, or an
# extreme value written into one of the numeric fields the reader uses.
_MUTATION = st.one_of(
    st.tuples(st.just("B"), st.integers(0, 351), st.integers(0, 255)),
    st.tuples(st.just("<f"), _FLOAT_FIELDS, _SPECIAL_FLOATS),
    st.tuples(st.just("<h"), _INT16_FIELDS,
              st.sampled_from([-32768, -1, 0, 1, 2, 7, 8, 16, 64, 32767])),
)


class TestMalformedHeaders:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=st.lists(_MUTATION, min_size=1, max_size=6), gzipped=st.booleans())
    def test_header_read_alone_matches_a_whole_read(self, tmp_path, mutations, gzipped):
        # a header that does not read is a data error, and one that does is
        # the header of a whole read that succeeds (compared by repr, as a
        # mutated orientation field may be NaN)
        blob = bytearray(_VALID_HEADER)
        for fmt, pos, value in mutations:
            struct.pack_into(fmt, blob, pos, value)
        path = tmp_path / "mutated.nii"
        path.write_bytes(gzip.compress(bytes(blob), mtime=0) if gzipped else bytes(blob))
        try:
            header = read_nifti_header(path)
        except DataError:
            return
        data, whole = read_outcome(path)
        if isinstance(data, bytes):
            assert repr(whole) == repr(header)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(mutations=st.lists(_MUTATION, min_size=1, max_size=6))
    def test_mutated_header_reads_or_raises_data_error(self, tmp_path, mutations):
        blob = bytearray(_VALID_HEADER)
        for fmt, pos, value in mutations:
            struct.pack_into(fmt, blob, pos, value)
        path = tmp_path / "mutated.nii"
        path.write_bytes(bytes(blob))
        try:
            vol = read_nifti(path)
        except DataError:
            return
        assert isinstance(vol, Volume4D)


class TestWrite:
    def test_first_four_bytes_are_348(self, tmp_path):
        vol = make_volume(np.zeros((2, 2, 2, 1)))
        path = tmp_path / "hdr.nii"
        write_nifti(vol, path)
        assert struct.unpack("<i", path.read_bytes()[:4])[0] == 348

    def test_zero_volume_data_section(self, tmp_path):
        vol = make_volume(np.zeros((2, 2, 2, 1)))
        path = tmp_path / "zeros.nii"
        write_nifti(vol, path)
        blob = path.read_bytes()
        assert len(blob) == 352 + 32
        assert blob[352:] == b"\x00" * 32

    def test_round_trip_bit_exact_float32(self, tmp_path):
        rng = np.random.default_rng(42)
        for trial in range(5):
            vol = random_volume(rng)
            path = tmp_path / f"rt{trial}.nii"
            write_nifti(vol, path)
            back = read_nifti(path)
            assert np.array_equal(back.data, vol.data)

    def test_round_trip_geometry(self, tmp_path):
        vol = make_volume(np.zeros((3, 3, 3, 4)), voxel_size_mm=(3.3, 3.3, 4.8),
                          tr_seconds=3.0)
        path = tmp_path / "geo.nii.gz"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.header.dims == (3, 3, 3, 4)
        np.testing.assert_allclose(back.header.voxel_size_mm, (3.3, 3.3, 4.8), rtol=1e-6)
        np.testing.assert_allclose(back.header.tr_seconds, 3.0, rtol=1e-6)

    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        vol = random_volume(rng)
        path = tmp_path / "comp.nii.gz"
        write_nifti(vol, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert np.array_equal(read_nifti(path).data, vol.data)

    def test_gzip_writes_are_byte_stable(self, tmp_path):
        vol = make_volume(np.ones((2, 2, 2, 2)))
        a, b = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
        write_nifti(vol, a)
        write_nifti(vol, b)
        assert a.read_bytes() == b.read_bytes()

    def test_orientation_fields_pass_through(self, tmp_path):
        vol = make_volume(np.zeros((2, 2, 2, 1)))
        vol.header.orientation = {"sform_code": 1, "srow_x": [3.3, 0, 0, -10.0]}
        path = tmp_path / "orient.nii"
        write_nifti(vol, path)
        back = read_nifti(path)
        assert back.header.orientation["sform_code"] == 1
        np.testing.assert_allclose(back.header.orientation["srow_x"], [3.3, 0, 0, -10.0],
                                   rtol=1e-6)

    @pytest.mark.parametrize("voxel_size_mm, tr_seconds", [
        ((3.3, 1e300, 4.8), 3.0), ((3.3, 3.3, 4.8), 1e39), ((3.3, 3.3, 4.8), float("nan")),
    ])
    def test_header_values_past_float32_rejected_before_writing(self, tmp_path,
                                                                voxel_size_mm, tr_seconds):
        vol = make_volume(np.ones((2, 2, 2)), voxel_size_mm=voxel_size_mm, tr_seconds=tr_seconds)
        path = tmp_path / "big.nii.gz"
        with pytest.raises(ValueError, match="fit float32"):
            write_nifti(vol, path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["long.nii", "long.nii.gz"])
    def test_dims_past_int16_rejected_before_writing(self, tmp_path, name):
        vol = make_volume(np.zeros((MAX_DIM + 1, 1, 1, 1)))
        path = tmp_path / name
        with pytest.raises(ValueError, match="exceed 32767"):
            write_nifti(vol, path)
        assert not path.exists()

    def test_unwritable_path_raises_oserror(self, tmp_path):
        vol = make_volume(np.zeros((2, 2, 2, 1)))
        with pytest.raises(OSError):
            write_nifti(vol, tmp_path / "no" / "such" / "dir" / "x.nii")


@pytest.mark.usefixtures("zlib_only")
class TestWriteZlib(TestWrite):
    """Every write/read round trip again with gzip files inflated by zlib."""


class TestVolumeInvariants:
    def test_shape_mismatch_rejected(self):
        header = VolumeHeader(dims=(2, 2, 2, 2))
        with pytest.raises(ShapeError):
            Volume4D(header=header, data=np.zeros((2, 2, 2, 3)))

    def test_non_finite_rejected(self):
        data = np.zeros((2, 2, 2, 1))
        data[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            make_volume(data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_each_non_finite_value_rejected_beside_finite_extremes(self, value):
        data = np.zeros((3, 3, 2, 2))
        data[0, 0, 0, 0], data[2, 2, 1, 1] = -1e308, 1e308
        data[1, 2, 0, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            make_volume(data)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_the_constructor_checks_every_block(self, value):
        # a non-finite value in the last volume, several blocks in
        dims = (64, 64, 4, 40)
        assert volume_io.block_width(64 * 64 * 4) < dims[3]
        data = np.zeros(dims, order="F")
        data[63, 63, 3, 39] = value
        with pytest.raises(ValueError, match="non-finite"):
            Volume4D(header=VolumeHeader(dims=dims), data=data)

    def test_finiteness_check_allocates_no_run_sized_temporary(self):
        data = np.asfortranarray(np.random.default_rng(4).standard_normal((32, 32, 16, 20)))
        header = VolumeHeader(dims=data.shape)
        # a boolean mask of the run would take data.nbytes / 8
        assert traced_peak(Volume4D, header, data) < data.nbytes / 64

    def test_bad_dims_rejected(self):
        with pytest.raises(ShapeError):
            VolumeHeader(dims=(0, 2, 2, 2))
        with pytest.raises(ShapeError):
            VolumeHeader(dims=(2, 2, 2, 2), voxel_size_mm=(0.0, 3.3, 4.8))


class TestRoiSeries:
    def test_single_voxel(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng, dims=(3, 3, 2, 5))
        mask = np.zeros((3, 3, 2), dtype=bool)
        mask[1, 2, 0] = True
        series = extract_roi_series(vol, mask)
        assert series.shape == (5, 1)
        np.testing.assert_array_equal(series[:, 0], vol.data[1, 2, 0, :])

    def test_full_mask_counts(self):
        rng = np.random.default_rng(4)
        vol = random_volume(rng, dims=(2, 2, 1, 3))
        series = extract_roi_series(vol, np.ones((2, 2, 1), dtype=bool))
        assert series.shape == (3, 4)

    def test_matches_index_walk_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            vol = random_volume(rng, dims=(4, 3, 3, 4))
            mask = rng.random((4, 3, 3)) < 0.4
            if not mask.any():
                mask[0, 0, 0] = True
            np.testing.assert_array_equal(
                extract_roi_series(vol, mask), roi_series_walk(vol.data, mask)
            )

    def test_empty_mask(self):
        vol = make_volume(np.zeros((2, 2, 2, 2)))
        with pytest.raises(EmptyMaskError):
            extract_roi_series(vol, np.zeros((2, 2, 2), dtype=bool))

    def test_dim_mismatch(self):
        vol = make_volume(np.zeros((2, 2, 2, 2)))
        with pytest.raises(ShapeError):
            extract_roi_series(vol, np.ones((3, 2, 2), dtype=bool))


class TestLayout:
    """4-D data stays x-fastest from read to GLM, so no stage pays for a
    transposing copy."""

    def test_stage_outputs_are_x_fastest(self, tmp_path):
        rng = np.random.default_rng(6)
        path = tmp_path / "run.nii.gz"
        write_nifti(random_volume(rng, dims=(6, 5, 4, 8)), path)
        vol = read_nifti(path)
        timed = slice_timing_correct(vol, interleaved_order(4))
        smoothed = gaussian_smooth(timed, 8.0)
        design = BlockDesign(onsets_s=(0.0,), durations_s=(6.0,), run_length_s=24.0)
        runset = RunSet(runs=[smoothed, timed], design=design)
        concatenated, _ = concatenate_runs(runset)
        for stage in (vol, timed, smoothed, concatenated, average_runs(runset)):
            assert stage.data.flags.f_contiguous

    def test_c_ordered_input_is_stored_x_fastest(self):
        data = np.arange(24.0).reshape(2, 3, 2, 2)
        vol = make_volume(data)
        assert vol.data.flags.f_contiguous
        np.testing.assert_array_equal(vol.data, data)

    def test_voxel_series_is_a_view_in_scan_order(self):
        rng = np.random.default_rng(7)
        vol = random_volume(rng, dims=(4, 3, 2, 5))
        series = voxel_series(vol)
        assert series.shape == (5, 24)
        assert np.shares_memory(series, vol.data)
        np.testing.assert_array_equal(series, roi_series_walk(vol.data, np.ones((4, 3, 2), bool)))
        np.testing.assert_array_equal(fold_voxels(series, (4, 3, 2)), vol.data)
        np.testing.assert_array_equal(fold_voxels(series[2], (4, 3, 2)), vol.data[..., 2])

    def test_analyze_volume_fits_a_view_of_the_data(self, monkeypatch):
        original = pipeline.fit_glm
        fitted = []

        def recording_fit(Y, design):
            fitted.append(Y)
            return original(Y, design)

        monkeypatch.setattr(pipeline, "fit_glm", recording_fit)
        vol = random_volume(np.random.default_rng(8), dims=(6, 5, 4, 20))
        design = BlockDesign(onsets_s=(0.0, 30.0), durations_s=(15.0, 15.0), run_length_s=60.0)
        cfg = validate_config({})
        pipeline.analyze_volume(vol, single_run_design(design, 3.0, 20), cfg)
        assert np.shares_memory(fitted[0], vol.data)


@pytest.mark.usefixtures("zlib_only")
class TestLayoutZlib(TestLayout):
    """The layout checks again with gzip files inflated by zlib."""
