import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergelimits.errors import ConfigError, FormatError
from mergelimits.tensorio import (
    RngStream,
    read_matrix,
    read_pvec,
    write_matrix,
    write_pvec,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


def test_pvec_roundtrip_single_zero(tmp_path):
    path = tmp_path / "v.mmpv"
    write_pvec(np.array([0.0]), path)
    # 4 magic + 4 version + 8 dim + 8 payload
    assert path.stat().st_size == 24
    assert read_pvec(path).tolist() == [0.0]


def test_pvec_roundtrip_two_values(tmp_path):
    path = tmp_path / "v.mmpv"
    v = np.array([1.5, -2.25])
    write_pvec(v, path)
    out = read_pvec(path)
    assert out.tobytes() == v.tobytes()


def test_pvec_roundtrip_large_seeded(tmp_path):
    v = RngStream(7, 0).generator().normal(size=10**6)
    path = tmp_path / "big.mmpv"
    write_pvec(v, path)
    assert read_pvec(path).tobytes() == v.tobytes()
    # Same stream regenerated -> identical file checksum.
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    write_pvec(RngStream(7, 0).generator().normal(size=10**6), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=64))
def test_pvec_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("pv") / "v.mmpv"
    v = np.array(values)
    write_pvec(v, path)
    assert read_pvec(path).tobytes() == v.tobytes()


def test_matrix_roundtrips(tmp_path):
    path = tmp_path / "m.mmmx"
    write_matrix(np.array([[3.0]]), path)
    assert read_matrix(path).tolist() == [[3.0]]

    m = np.arange(6, dtype=float).reshape(2, 3)
    write_matrix(m, path)
    out = read_matrix(path)
    assert out.shape == (2, 3)
    assert np.array_equal(out.T.T, m)

    g = RngStream(11, 0).generator().normal(size=(200, 16))
    write_matrix(g, path)
    assert read_matrix(path).tobytes() == g.tobytes()


@pytest.mark.parametrize("reader, writer, shape", [(read_pvec, write_pvec, (120_000,)),
                                                   (read_matrix, write_matrix, (300, 400))])
def test_read_holds_one_payload_buffer(tmp_path, reader, writer, shape):
    # The payload is read into the returned array, not first into a bytes
    # object, so the traced peak stays near one payload (a copy would be 2x).
    path = tmp_path / "big.bin"
    a = RngStream(3, 0).generator().normal(size=shape)
    writer(a, path)
    tracemalloc.start()
    try:
        out = reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.tobytes() == a.tobytes()
    assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
    assert peak < 1.25 * a.nbytes


def test_write_holds_no_payload_copy(tmp_path):
    # The file is written from the array's own buffer; the only traced
    # allocation left is the 1-byte-per-value finiteness mask.
    a = RngStream(3, 1).generator().normal(size=(1000, 1000))
    tracemalloc.start()
    try:
        write_matrix(a, tmp_path / "big.mmmx")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * a.nbytes
    assert read_matrix(tmp_path / "big.mmmx").tobytes() == a.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32))
def test_matrix_roundtrip_property(tmp_path_factory, rows, cols, seed):
    path = tmp_path_factory.mktemp("mx") / "m.mmmx"
    m = RngStream(seed, 0).generator().normal(size=(rows, cols))
    write_matrix(m, path)
    assert read_matrix(path).tobytes() == m.tobytes()


@pytest.mark.parametrize(
    "array, writer, magic",
    [
        (np.array([1.5, -0.0, 2.0**-1074]), write_pvec, b"MMPV"),
        (np.arange(6.0).reshape(2, 3), write_matrix, b"MMMX"),
        (np.asfortranarray(np.arange(6.0).reshape(2, 3)), write_matrix, b"MMMX"),
        (np.arange(6.0).reshape(3, 2).astype(">f8"), write_matrix, b"MMMX"),
    ],
    ids=["vector", "c-order", "fortran-order", "big-endian"],
)
def test_written_bytes_follow_layout(tmp_path, array, writer, magic):
    # magic | u32 version | one u64 per axis | row-major little-endian float64
    path = tmp_path / "out.bin"
    writer(array, path)
    header = magic + struct.pack(f"<I{array.ndim}Q", 1, *array.shape)
    payload = np.asarray(array, dtype="<f8").tobytes(order="C")
    assert path.read_bytes() == header + payload


@pytest.mark.parametrize("reader, magic, ndim", [(read_pvec, b"MMPV", 1), (read_matrix, b"MMMX", 2)])
def test_truncated_header_reports_bytes_present(tmp_path, reader, magic, ndim):
    header = magic + struct.pack(f"<I{ndim}Q", 1, *[1] * ndim)
    path = tmp_path / "short.bin"
    for n in range(len(header)):
        path.write_bytes(header[:n])
        with pytest.raises(FormatError) as exc:
            reader(path)
        assert exc.value.offset == n


def test_bad_magic_reports_offset(tmp_path):
    path = tmp_path / "bad.mmpv"
    path.write_bytes(b"XXXX" + b"\x00" * 20)
    with pytest.raises(FormatError) as exc:
        read_pvec(path)
    assert exc.value.offset == 0


def test_truncated_payload(tmp_path):
    path = tmp_path / "trunc.mmpv"
    write_pvec(np.array([1.0, 2.0]), path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_pvec(path)


@pytest.mark.parametrize("dim", [2**62, 2**40, 3], ids=["2^62", "2^40", "one-over"])
def test_pvec_overdeclared_dim_rejected(tmp_path, dim):
    # The size check runs before any read, so the claimed payload is never allocated.
    path = tmp_path / "over.mmpv"
    path.write_bytes(b"MMPV" + struct.pack("<IQ", 1, dim) + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        read_pvec(path)
    assert exc.value.offset == 32


@pytest.mark.parametrize(
    "rows,cols", [(2**62, 1), (2**32, 2**32), (1, 3)], ids=["2^62", "2^64-cells", "one-over"]
)
def test_matrix_overdeclared_shape_rejected(tmp_path, rows, cols):
    path = tmp_path / "over.mmmx"
    path.write_bytes(b"MMMX" + struct.pack("<IQQ", 1, rows, cols) + b"\x00" * 16)
    with pytest.raises(FormatError) as exc:
        read_matrix(path)
    assert exc.value.offset == 40


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "v2.mmpv"
    payload = b"MMPV" + struct.pack("<I", 99) + struct.pack("<Q", 1) + b"\x00" * 8
    path.write_bytes(payload)
    with pytest.raises(FormatError) as exc:
        read_pvec(path)
    assert exc.value.offset == 4


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "extra.mmpv"
    write_pvec(np.array([1.0]), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError):
        read_pvec(path)


def test_substreams_independent():
    s = RngStream(5, 0)
    a = s.substream(0).generator().normal(size=100)
    b = s.substream(1).generator().normal(size=100)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.5


# Philox would key 1.5 or True as seed 1 and "7" as 7: the stream drawn
# would not be the one the record names.
@pytest.mark.parametrize(
    "seed, stream_id",
    [(1.5, 0), (True, 0), ("7", 0), (0, 2.5), (-1, 0), (0, 2**64)],
    ids=["float-seed", "bool-seed", "str-seed", "float-stream", "negative", "past-u64"],
)
def test_non_u64_seed_or_stream_rejected(seed, stream_id):
    with pytest.raises(ConfigError, match="u64 integer"):
        RngStream(seed, stream_id)


def test_numpy_integer_seed_draws_its_stream():
    s = RngStream(np.int64(3), np.uint64(1))
    a = s.generator().normal(size=4)
    assert np.array_equal(a, RngStream(3, 1).generator().normal(size=4))
