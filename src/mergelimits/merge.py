"""Linear expert merging and the correlation-aware variance law.

Covers the convex combination of expert parameter vectors, the merged
variance under a general correlation structure, its equicorrelated closed
form sigma^2 * (rho + (1 - rho)/n), the limiting value sigma^2 * rho, the
merge-count upper bound floor(sigma^2 * (1 - rho) / delta), and stopping
rules on a variance trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .tensorio import as_matrix, as_pvec

_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class MergeWeights:
    """Convex weights over experts: alphas >= 0, sum to 1 within 1e-12."""

    alphas: np.ndarray

    def __post_init__(self):
        a = as_pvec(self.alphas)
        object.__setattr__(self, "alphas", a)
        if a.size == 0:
            raise ConfigError("weights must be non-empty")
        if np.any(a < -_SIMPLEX_TOL):
            raise ConfigError(f"negative merge weight: min is {a.min()}")
        if abs(a.sum() - 1.0) > _SIMPLEX_TOL:
            raise ConfigError(f"weights sum to {a.sum()}, expected 1")

    @staticmethod
    def uniform(n: int) -> "MergeWeights":
        return MergeWeights(np.full(n, 1.0 / n))

    def __len__(self) -> int:
        return self.alphas.size


@dataclass(frozen=True)
class CorrelationSpec:
    """Per-expert standard deviations and the pairwise correlation matrix."""

    sigmas: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        s = as_pvec(self.sigmas)
        r = as_matrix(self.rho)
        object.__setattr__(self, "sigmas", s)
        object.__setattr__(self, "rho", r)
        n = s.size
        if np.any(s <= 0):
            raise ConfigError("all sigmas must be > 0")
        if r.shape != (n, n):
            raise ConfigError(f"rho must be {n}x{n}, got {r.shape}")
        if not np.allclose(r, r.T, atol=1e-12):
            raise ConfigError("rho must be symmetric")
        if not np.allclose(np.diag(r), 1.0, atol=1e-12):
            raise ConfigError("rho must have unit diagonal")
        if np.any(np.abs(r) > 1 + 1e-12):
            raise ConfigError("correlations must lie in [-1, 1]")
        if n > 1 and np.linalg.eigvalsh(r).min() < -1e-8:
            raise ConfigError("rho is not positive semidefinite")


def merge_linear(experts, w: MergeWeights) -> np.ndarray:
    """Componentwise convex combination sum_i alpha_i * theta_i.

    experts is an (n, D) stack, one expert per row, or a sequence of n
    length-D vectors, validated once as a matrix. A float64 stack, or a
    row prefix of one, is merged by one gemv without a copy.
    """
    try:
        stack = as_matrix(experts)
    except ValueError as e:  # vectors of unequal length stack to no array
        raise ConfigError("experts must share one dimension") from e
    if stack.shape[0] != len(w):
        raise ConfigError(f"{stack.shape[0]} experts but {len(w)} weights")
    return w.alphas @ stack


def merged_variance(spec: CorrelationSpec, w: MergeWeights) -> float:
    """Variance of the merged parameter distribution under the given spec.

    Equals sum_i alpha_i^2 sigma_i^2 + sum_{i!=j} alpha_i alpha_j rho_ij
    sigma_i sigma_j, i.e. the quadratic form of the covariance matrix.
    """
    if len(w) != spec.sigmas.size:
        raise ConfigError(f"{spec.sigmas.size} experts in spec but {len(w)} weights")
    cov = spec.rho * np.outer(spec.sigmas, spec.sigmas)
    return float(w.alphas @ cov @ w.alphas)


def merged_variance_equicorrelated(sigma2: float, rho: float, n: int) -> float:
    """Uniform-weight merged variance sigma^2 * (rho + (1 - rho)/n)."""
    if not sigma2 > 0:
        raise ConfigError(f"sigma2 must be > 0, got {sigma2}")
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    lo = -1.0 / (n - 1) if n > 1 else -1.0
    if not (lo - 1e-12 <= rho <= 1.0 + 1e-12):
        raise ConfigError(f"rho={rho} outside PSD-feasible range [{lo}, 1] for n={n}")
    return sigma2 * (rho + (1.0 - rho) / n)


def variance_limit(sigma2: float, rho: float) -> float:
    """Limit of the equicorrelated merged variance as n -> infinity."""
    return sigma2 * rho


def n_max(sigma2: float, rho: float, delta: float) -> int:
    """Largest n such that each merged expert still cuts variance by >= delta.

    floor(sigma2 * (1 - rho) / delta); 0 means the requested margin is
    unattainable. A tiny relative slack keeps exact boundaries (e.g.
    0.5 / 0.1) from flooring one short.
    """
    if not sigma2 > 0:
        raise ConfigError(f"sigma2 must be > 0, got {sigma2}")
    if not delta > 0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    if not 0 <= rho <= 1:
        raise ConfigError(f"rho must be in [0, 1], got {rho}")
    x = sigma2 * (1.0 - rho) / delta * (1.0 + 1e-12) + 1e-12
    if not math.isfinite(x):
        raise ConfigError(f"sigma2 * (1 - rho) / delta is not finite for {sigma2}, {rho}, {delta}")
    return int(math.floor(x))


def termination_check(
    variance_trace: Sequence[float], delta: float, limit: Optional[float] = None
) -> Optional[int]:
    """First trace index at which merging should stop, or None.

    Without a limit, successive gain: the first i >= 1 with
    trace[i-1] - trace[i] < delta. With one, distance to that limit: the
    first i with trace[i] - limit < delta.
    """
    if not delta > 0:
        raise ConfigError(f"delta must be > 0, got {delta}")
    trace = np.asarray(variance_trace, dtype=np.float64)
    if trace.size == 0:
        raise ConfigError("variance trace must be non-empty")
    if limit is None:
        hits = np.nonzero(trace[:-1] - trace[1:] < delta)[0] + 1
    else:
        hits = np.nonzero(trace - float(limit) < delta)[0]
    return int(hits[0]) if hits.size else None
