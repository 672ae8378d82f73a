"""Linear expert merging and the equicorrelated variance law.

Covers the convex combination of expert parameter vectors, the uniform-weight
merged variance sigma^2 * (rho + (1 - rho)/n) of equicorrelated experts, the
limiting value sigma^2 * rho, the merge-count upper bound
floor(sigma^2 * (1 - rho) / delta), and stopping rules on a variance trace.
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
