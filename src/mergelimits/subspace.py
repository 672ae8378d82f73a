"""Spectral diagnostics of expert ensembles.

PCA explained variance of stacked expert deltas, principal angles between
expert subspaces, and singular-value tail statistics binned into log bands
[e^-(k+1), e^-k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .tensorio import RngStream, as_matrix

# Singular values at or below this are treated as exact zeros.
_ZERO_SV = 1e-30

# Fixed Gaussian test matrices of the randomized range finder. The certified
# result does not depend on the draw beyond round-off, so no seed is exposed.
_SKETCH_STREAM = RngStream(0, 200)
_SKETCH_START = 16
_RESIDUAL_ROWS = 256

N_LOG_BANDS = 13  # k = 0..12, plus overflow [1, inf) and underflow (0, e^-13)


@dataclass(frozen=True)
class SpectrumReport:
    """Singular values, explained-variance fractions, log-band counts, numerical rank.

    counts_per_log_band has N_LOG_BANDS + 2 entries: index 0 is the overflow
    band [e^0, inf), index 1 + k is [e^-(k+1), e^-k) for k = 0..12, and the
    last index collects everything below e^-13 (zeros included).

    A certified report lists only the rank values; the tail_count values it
    drops are all at most tail_bound, below the rank tolerance and e^-13,
    and are counted in the last band. A full SVD has tail_count 0.
    """

    singular_values: np.ndarray
    explained_fractions: np.ndarray
    counts_per_log_band: np.ndarray
    degenerate: bool
    rank: int
    tail_count: int = 0
    tail_bound: float = 0.0

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
        if not self.degenerate and not abs(fr.sum() - 1.0) <= 1e-10:
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


def spectrum_report(singular_values: np.ndarray, shape) -> SpectrumReport:
    """Report on the singular values of a matrix of shape (rows, cols). rank
    counts the values above numpy.linalg.matrix_rank's tolerance
    sigma_max * max(rows, cols) * eps, so round-off does not count."""
    sv = np.sort(np.asarray(singular_values, dtype=np.float64))[::-1]
    rank = int(np.sum(sv > sv[0] * max(shape) * np.finfo(np.float64).eps)) if sv.size else 0
    with np.errstate(over="ignore"):
        power = sv * sv
    total = power.sum()
    if not math.isfinite(total):
        raise NumericError(f"sum of squared singular values overflows ({total})")
    if total <= 0:
        return SpectrumReport(sv, np.zeros_like(sv), band_counts(sv), True, rank)
    return SpectrumReport(sv, power / total, band_counts(sv), False, rank)


def _sketch_spectrum(m: np.ndarray, k: int) -> SpectrumReport | None:
    """Certified spectrum of m from a rank-k range sketch, or None.

    Randomized range finder with one power step (Halko, Martinsson, Tropp
    2011): Q = qr(M·Mᵀ·M·Ω), B = QᵀM, s = svd(B). With ρ = ‖M − QB‖_F,
    s_i ≤ σ_i(M) ≤ s_i + ρ (QB projects M; Weyl). The rank tolerance
    σ₁·max(shape)·eps lies in [τ_lo, τ_hi] for σ₁ in [s₁, s₁ + ρ], so
    r = #{s_i > τ_hi} is the exact rank when every σ_i with i > r, at most
    s_{r+1} + ρ, is at or below τ_lo. The report is certified only if that
    holds, that bound is below e^-13, no kept s_i is within ρ of a band
    edge and τ_lo is above the exact-zero cutoff, so rank and band counts
    equal those of the exact spectrum.
    """
    omega = _SKETCH_STREAM.generator().normal(size=(m.shape[1], k))
    with np.errstate(over="ignore", invalid="ignore"):
        y = m @ (m.T @ (m @ omega))
    if not np.all(np.isfinite(y)):
        return None  # σ³ overflowed; the full SVD scales internally
    q, _ = np.linalg.qr(y)
    b = q.T @ m
    s = np.linalg.svd(b, compute_uv=False)
    # Residual by row blocks, each computed in one reused buffer: never a
    # second m-sized array, and one block-sized one.
    sq = 0.0
    buf = np.empty((min(_RESIDUAL_ROWS, m.shape[0]), m.shape[1]))
    for i in range(0, m.shape[0], _RESIDUAL_ROWS):
        rows = m[i : i + _RESIDUAL_ROWS]
        block = np.matmul(q[i : i + _RESIDUAL_ROWS], b, out=buf[: len(rows)])
        np.subtract(rows, block, out=block)
        sq += float(np.vdot(block, block))
    rho = math.sqrt(sq)
    scale = max(m.shape) * np.finfo(np.float64).eps
    tau_lo, tau_hi = s[0] * scale, (s[0] + rho) * scale
    r = int(np.sum(s > tau_hi))
    if not (1 <= r < k and tau_lo > _ZERO_SV):
        return None
    kept, bound = s[:r], float(s[r] + rho)
    near_edge = np.any(np.abs(kept[:, None] + _NEG_BAND_EDGES) <= rho)
    if bound > tau_lo or bound >= math.exp(-N_LOG_BANDS) or near_edge:
        return None
    counts = band_counts(kept)
    tail = min(m.shape) - r
    counts[-1] += tail
    return SpectrumReport(kept, kept * kept / np.vdot(m, m), counts, False, r, tail, bound)


def pca_explained(stacked_deltas: np.ndarray) -> SpectrumReport:
    """Explained-variance spectrum of stacked experts (rows).

    Rows are experts, columns flattened parameters, taken as given (a caller
    centers them first). A low-rank stack gets a certified report (see
    _sketch_spectrum): the rank values only, each over the exact squared
    Frobenius norm, plus tail_count and tail_bound for the round-off values
    left out. Otherwise every singular value of a full SVD is listed. The
    sketch tries k = 16, 32, ... columns while k <= min(shape) / 4;
    all-zero, full-rank and small inputs get the full SVD.
    """
    m = as_matrix(stacked_deltas)
    if m.shape[0] == 0:
        raise ConfigError("no experts: the stacked matrix has zero rows")
    if m.shape[1] == 0:
        raise ConfigError("no parameters: the stacked matrix has zero columns")
    k = _SKETCH_START
    while k <= min(m.shape) / 4:
        rep = _sketch_spectrum(m, k)
        if rep is not None:
            return rep
        k *= 2
    sv = np.linalg.svd(m, compute_uv=False)
    return spectrum_report(np.where(sv > _ZERO_SV, sv, 0.0), m.shape)


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


def sv_tail_stats(delta: np.ndarray) -> SpectrumReport:
    """Log-band singular-value statistics of a dense delta matrix: the
    uncentered pca_explained spectrum (certified sketch or full SVD)."""
    rep = pca_explained(delta)
    if np.all(rep.singular_values <= _ZERO_SV):
        raise ConfigError("degenerate (all-zero) matrix")
    return rep
