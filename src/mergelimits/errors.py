"""Exception hierarchy and the real-number field check shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, NumericError -> 3,
file/format problems -> 4.
"""

import math
import numbers

import numpy as np

# Largest size any float64 array can take: its byte count must fit numpy's
# index type. Sizes past it raise ValueError/OverflowError, not MemoryError.
MAX_SIZE = np.iinfo(np.intp).max // 8


class MergeLimitsError(Exception):
    """Base class for all package errors."""


class ConfigError(MergeLimitsError):
    """Invalid argument, parameter set, or experiment configuration."""


class NumericError(MergeLimitsError):
    """Non-finite values or failed numeric procedure."""


class FormatError(MergeLimitsError):
    """Malformed binary file (bad magic, truncation, size mismatch)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def require_size(rows: int, cols: int, what: str) -> None:
    """Raise ConfigError if a rows x cols float64 array is past numpy's range."""
    if int(rows) * int(cols) > MAX_SIZE:
        raise ConfigError(f"{what}: {rows} x {cols} exceeds the largest array size {MAX_SIZE}")


def require_real(obj, *names: str) -> None:
    """Raise ConfigError unless each named attribute is a finite real number.

    bool is rejected although it is an Integral: a JSON `true` is not a
    value. So are NaN, infinities and integers too large for a float.
    """
    for name in names:
        v = getattr(obj, name)
        try:
            ok = not isinstance(v, bool) and isinstance(v, numbers.Real) and math.isfinite(v)
        except OverflowError:
            ok = False
        if not ok:
            raise ConfigError(f"{name} must be a finite real number, got {v!r}")
