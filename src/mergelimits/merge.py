"""Linear expert merging and the correlation-aware variance law.

Covers the convex combination of expert parameter vectors, the merged
variance under a general correlation structure, its equicorrelated closed
form sigma^2 * (rho + (1 - rho)/n), the limiting value sigma^2 * rho, the
merge-count upper bound floor(sigma^2 * (1 - rho) / delta), stopping
rules on a variance trace, and merge-weight optimization on the
probability simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError
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

    @staticmethod
    def equicorrelated(sigma2: float, rho: float, n: int) -> "CorrelationSpec":
        if n < 1:
            raise ConfigError("n must be >= 1")
        if n > 1 and not (-1.0 / (n - 1) - 1e-12 <= rho <= 1.0 + 1e-12):
            raise ConfigError(f"rho={rho} infeasible for n={n}")
        r = np.full((n, n), float(rho))
        np.fill_diagonal(r, 1.0)
        return CorrelationSpec(np.full(n, math.sqrt(sigma2)), r)


def merge_linear(experts: Sequence[np.ndarray], w: MergeWeights) -> np.ndarray:
    """Componentwise convex combination sum_i alpha_i * theta_i."""
    if len(experts) != len(w):
        raise ConfigError(f"{len(experts)} experts but {len(w)} weights")
    vecs = [as_pvec(e) for e in experts]
    if len({v.size for v in vecs}) != 1:
        raise ConfigError("experts must share one dimension")
    return w.alphas @ np.stack(vecs)


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
    x = sigma2 * (1.0 - rho) / delta
    return int(math.floor(x * (1.0 + 1e-12) + 1e-12))


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


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sorted-threshold)."""
    v = np.asarray(v, dtype=np.float64)
    # Stable sort so ties break toward the lower index.
    u = np.sort(v, kind="stable")[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    k = idx[cond][-1]
    tau = css[k - 1] / k
    out = np.maximum(v - tau, 0.0)
    return out / out.sum()


def optimize_weights(
    experts: Sequence[np.ndarray],
    objective: Callable[[np.ndarray], float],
    iters: int = 200,
    step: float = 0.1,
) -> MergeWeights:
    """Projected gradient descent for merge weights on the simplex.

    The objective receives the merged parameter vector. Gradients are
    estimated by central finite differences in weight space; steps that do
    not improve the objective are rejected (so the accepted objective is
    non-increasing).
    """
    if iters < 1:
        raise ConfigError(f"iters must be >= 1, got {iters}")
    if not step > 0:
        raise ConfigError(f"step must be > 0, got {step}")
    n = len(experts)
    if n == 1:
        return MergeWeights(np.array([1.0]))
    mat = np.stack([as_pvec(e) for e in experts])

    def f(alphas: np.ndarray) -> float:
        val = float(objective(alphas @ mat))
        if not math.isfinite(val):
            raise NumericError("objective returned a non-finite value")
        return val

    alphas = np.full(n, 1.0 / n)
    best = f(alphas)
    h = 1e-6
    lr = step
    for _ in range(iters):
        grad = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            grad[i] = (f(project_simplex(alphas + e)) - f(project_simplex(alphas - e))) / (2 * h)
        cand = project_simplex(alphas - lr * grad)
        val = f(cand)
        if val <= best:
            alphas, best = cand, val
        else:
            lr *= 0.5
            if lr < 1e-12:
                break
    return MergeWeights(alphas)
