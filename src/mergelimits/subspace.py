"""Spectral diagnostics of expert ensembles.

PCA explained variance of stacked expert deltas, principal angles between
expert subspaces, and singular-value tail statistics binned into log bands
[e^-(k+1), e^-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .tensorio import LowRankDelta, as_matrix

# Singular values at or below this are treated as exact zeros.
_ZERO_SV = 1e-30

N_LOG_BANDS = 13  # k = 0..12, plus overflow [1, inf) and underflow (0, e^-13)


@dataclass(frozen=True)
class SpectrumReport:
    """Singular values, explained-variance fractions, log-band counts, numerical rank.

    counts_per_log_band has N_LOG_BANDS + 2 entries: index 0 is the overflow
    band [e^0, inf), index 1 + k is [e^-(k+1), e^-k) for k = 0..12, and the
    last index collects everything below e^-13 (zeros included).
    """

    singular_values: np.ndarray
    explained_fractions: np.ndarray
    counts_per_log_band: np.ndarray
    degenerate: bool = False
    rank: int = 0

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=np.float64)
        fr = np.asarray(self.explained_fractions, dtype=np.float64)
        object.__setattr__(self, "singular_values", sv)
        object.__setattr__(self, "explained_fractions", fr)
        object.__setattr__(
            self, "counts_per_log_band", np.asarray(self.counts_per_log_band, dtype=np.int64)
        )
        if np.any(np.diff(sv) > 0):
            raise ConfigError("singular values must be descending")
        if not self.degenerate and abs(fr.sum() - 1.0) > 1e-10:
            raise ConfigError(f"explained fractions sum to {fr.sum()}, expected 1")

    @property
    def band_fractions(self) -> np.ndarray:
        total = self.counts_per_log_band.sum()
        if total == 0:
            return np.zeros_like(self.counts_per_log_band, dtype=np.float64)
        return self.counts_per_log_band / total


# Negated band edges -e^0 < -e^-1 < ... < -e^-13. Searching -s with
# side="left" counts the edges e^-k with s < e^-k, which is the band index.
_NEG_BAND_EDGES = -np.array([math.exp(-k) for k in range(N_LOG_BANDS + 1)])


def band_counts(singular_values: np.ndarray) -> np.ndarray:
    """Histogram of singular values over the log bands described above.

    Half-open convention: a value exactly equal to e^-k lands in band k-1,
    i.e. in [e^-k, e^-(k-1)).
    """
    sv = np.asarray(singular_values, dtype=np.float64)
    idx = np.searchsorted(_NEG_BAND_EDGES, -sv, side="left")
    return np.bincount(idx, minlength=N_LOG_BANDS + 2).astype(np.int64)


def spectrum_report(singular_values: np.ndarray, shape=None) -> SpectrumReport:
    """Report on the singular values of a matrix of shape (rows, cols), square
    if omitted. rank counts the values above numpy.linalg.matrix_rank's
    tolerance sigma_max * max(rows, cols) * eps, so round-off does not count."""
    sv = np.sort(np.asarray(singular_values, dtype=np.float64))[::-1]
    side = max(shape) if shape is not None else sv.size
    rank = int(np.sum(sv > sv[0] * side * np.finfo(np.float64).eps)) if sv.size else 0
    power = sv * sv
    total = power.sum()
    if total <= 0:
        return SpectrumReport(sv, np.zeros_like(sv), band_counts(sv), True, rank)
    return SpectrumReport(sv, power / total, band_counts(sv), False, rank)


def pca_explained(stacked_deltas: np.ndarray, center: bool = True) -> SpectrumReport:
    """Explained-variance spectrum of stacked experts (rows) by SVD.

    Rows are experts, columns flattened parameters. By default the mean
    expert is subtracted first; pass center=False to skip.
    """
    m = as_matrix(stacked_deltas)
    if center:
        m = m - m.mean(axis=0, keepdims=True)
    sv = np.linalg.svd(m, compute_uv=False)
    sv = np.where(sv > _ZERO_SV, sv, 0.0)
    return spectrum_report(sv, m.shape)


def components_for_threshold(report: SpectrumReport, frac: float) -> int:
    """Smallest component count whose cumulative explained fraction >= frac."""
    if not 0 < frac <= 1:
        raise ConfigError(f"frac must be in (0, 1], got {frac}")
    if report.degenerate:
        raise ConfigError("degenerate (all-zero) spectrum has no components")
    cum = np.cumsum(report.explained_fractions)
    # Tolerate float round-off at frac = 1.
    hits = np.nonzero(cum >= frac - 1e-12)[0]
    return int(hits[0]) + 1


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Principal angles between column spans, ascending, in degrees."""
    a = as_matrix(basis_a)
    b = as_matrix(basis_b)
    if a.shape[1] == 0 or b.shape[1] == 0:
        raise ConfigError("empty basis")
    if a.shape[0] != b.shape[0]:
        raise ConfigError(f"ambient dims disagree: {a.shape[0]} vs {b.shape[0]}")
    for m in (a, b):
        if np.max(np.abs(m.T @ m - np.eye(m.shape[1]))) > 1e-8:
            raise ConfigError("basis columns are not orthonormal")
    # Re-orthonormalize to kill drift below the rejection threshold.
    a, _ = np.linalg.qr(a)
    b, _ = np.linalg.qr(b)
    cosines = np.clip(np.linalg.svd(a.T @ b, compute_uv=False), -1.0, 1.0)
    return np.degrees(np.sort(np.arccos(cosines)))


def sv_tail_stats(delta) -> SpectrumReport:
    """Log-band singular-value statistics of a delta matrix.

    Accepts any dense matrix, or a LowRankDelta, which is never densified:
    with left = Q_l·R_l and rightᵀ = Q_r·R_r, the singular values of
    scale·left·right are those of the r×r core scale·R_l·R_rᵀ (Halko,
    Martinsson, Tropp 2011), padded with zeros to min(shape).
    """
    if isinstance(delta, LowRankDelta):
        r_l = np.linalg.qr(delta.left, mode="r")
        r_r = np.linalg.qr(delta.right.T, mode="r")
        sv = np.zeros(min(delta.shape))
        sv[: delta.rank] = np.linalg.svd(delta.scale * (r_l @ r_r.T), compute_uv=False)
        shape = delta.shape
    else:
        m = as_matrix(delta)
        sv = np.linalg.svd(m, compute_uv=False)
        shape = m.shape
    if np.all(sv <= _ZERO_SV):
        raise ConfigError("degenerate (all-zero) matrix")
    return spectrum_report(sv, shape)
