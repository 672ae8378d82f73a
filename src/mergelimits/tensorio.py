"""Vector and matrix validation, deterministic random streams, binary file formats.

Parameter vectors (expert deltas included) and dense matrices are plain
float64 numpy arrays; the helpers here validate them and move them
to/from one binary container:

    magic | u32 version (=1) | one u64 per axis | row-major float64 (LE)

MMPV is the one-axis case (magic "MMPV", dim), MMMX the two-axis one
(magic "MMMX", rows, cols). Readers check the payload size a header
declares against the file size before reading it. Roundtrips are
bit-exact.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, FormatError, NumericError

PVEC_MAGIC = b"MMPV"
MATRIX_MAGIC = b"MMMX"
FORMAT_VERSION = 1


def as_pvec(values, dim: int | None = None) -> np.ndarray:
    """Validate and return a parameter vector (1-D float64, finite)."""
    v = np.ascontiguousarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ConfigError(f"parameter vector must be 1-D, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ConfigError(f"expected dim {dim}, got {v.shape[0]}")
    if not np.all(np.isfinite(v)):
        raise NumericError("parameter vector contains non-finite entries")
    return v


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and return a dense matrix (2-D float64, finite)."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ConfigError(f"matrix must be 2-D, got shape {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ConfigError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ConfigError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m)):
        raise NumericError("matrix contains non-finite entries")
    return m


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream_id) fully determines the draws.

    Distinct stream_ids are statistically independent (Philox keyed on both
    words), so Monte-Carlo loops can fan out over substreams without changing
    results.
    """

    seed: int
    stream_id: int

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            # Philox would key 1.5 or True as 1 and "7" as 7: a stream its record misnames.
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) or not 0 <= v < 2**64:
                raise ConfigError(f"{name} must be a u64 integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def substream(self, offset: int) -> "RngStream":
        """Derived independent stream, for splitting work across workers."""
        return RngStream(self.seed, (self.stream_id + 1 + offset) % 2**64)


# A block holds at most 2¹⁶ normals (512 KiB), or one row when a row is longer.
_BLOCK_NORMALS = 1 << 16


def normal_blocks(gen: np.random.Generator, n: int, cols: int) -> Iterator[tuple[int, np.ndarray]]:
    """n rows of cols standard normals from gen, as (index of the first row,
    row block). Consecutive draws from one generator equal one large draw, so
    the blocks hold the bits of gen.normal(size=(n, cols)) in O(cols) memory."""
    rows = max(1, _BLOCK_NORMALS // cols)
    for start in range(0, n, rows):
        yield start, gen.normal(size=(min(rows, n - start), cols))


def _read_exact(f, n: int, offset: int, what: str) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}", offset + len(buf))
    return buf


def _write(a: np.ndarray, magic: bytes, path) -> None:
    with open(path, "wb") as f:
        f.write(magic + struct.pack(f"<I{a.ndim}Q", FORMAT_VERSION, *a.shape))
        f.write(np.ascontiguousarray(a, dtype="<f8").data)


def _read(path, magic: bytes, ndim: int) -> np.ndarray:
    """Read one container, checking each header field at its byte offset.

    The payload size the header declares is compared with the file's size
    before the payload is read, so a false header can neither ask for a
    huge buffer nor overflow the read call.
    """
    name = magic.decode()
    header = 8 + 8 * ndim
    with open(path, "rb") as f:
        found = _read_exact(f, 4, 0, "magic")
        if found != magic:
            raise FormatError(f"bad magic {found!r}, expected {magic!r}", 0)
        (version,) = struct.unpack("<I", _read_exact(f, 4, 4, "version"))
        if version != FORMAT_VERSION:
            raise FormatError(f"unsupported {name} version {version}", 4)
        shape = struct.unpack(f"<{ndim}Q", _read_exact(f, 8 * ndim, 8, "shape"))
        payload = 8 * math.prod(shape)
        size = os.fstat(f.fileno()).st_size
        if size < header + payload:
            raise FormatError(
                f"truncated file: header declares {payload} payload bytes, file holds {size - header}",
                size,
            )
        if size > header + payload:
            raise FormatError("trailing bytes after payload", header + payload)
        try:
            a = np.empty(shape, dtype="<f8")
        except ValueError as e:  # an empty payload under a side numpy cannot index
            raise FormatError(f"unsupported {name} shape {shape}: {e}", 8) from e
        # The payload goes straight into the array: no bytes copy of it is
        # made, so reading holds one payload-sized buffer, not two.
        got = f.readinto(a)
        if got != payload:
            raise FormatError("truncated file while reading payload", header + got)
    return a.astype(np.float64, copy=False)


def write_pvec(v: np.ndarray, path) -> None:
    _write(as_pvec(v), PVEC_MAGIC, path)


def read_pvec(path) -> np.ndarray:
    return _read(path, PVEC_MAGIC, 1)


def write_matrix(m: np.ndarray, path) -> None:
    _write(as_matrix(m), MATRIX_MAGIC, path)


def read_matrix(path) -> np.ndarray:
    return _read(path, MATRIX_MAGIC, 2)
