"""Heavy-tailed reparameterization of merged parameters.

Two-step transform: subtract an independent Gaussian, then amplify each
component with the odd map T(x) = sign(x) |x|^gamma (1 + alpha e^{-beta|x|}).
Includes the exact change-of-variables density for the pure-power case
(alpha = 0), tail diagnostics (excess kurtosis, Hill exponent, KS distance),
and an output-dispersion coverage proxy on a tiny reference network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericError, require_real
from .tensorio import RngStream, as_matrix, as_pvec, gaussian_sample

@dataclass(frozen=True)
class RHTParams:
    """Parameters of the reparameterization.

    gamma in (0, 1) is the power; alpha >= 0 and beta > 0 shape the
    near-zero boost (alpha = 0 is the pure-power baseline); sigma_g_ratio
    scales the subtracted Gaussian relative to the input's empirical std.
    T must be strictly increasing, which holds exactly when
    alpha <= gamma e^(1 + gamma), whatever beta is.
    """

    gamma: float = 0.5
    alpha: float = 0.5
    beta: float = 1.0
    sigma_g_ratio: float = 0.1

    def __post_init__(self):
        require_real(self, "gamma", "alpha", "beta", "sigma_g_ratio")
        if not 0 < self.gamma < 1:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        if not self.alpha >= 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if not self.beta > 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if not self.sigma_g_ratio >= 0:
            raise ConfigError(f"sigma_g_ratio must be >= 0, got {self.sigma_g_ratio}")
        # For x > 0 and u = beta x, T'(x) = x^(gamma-1) (gamma + alpha e^-u (gamma - u)).
        # e^-u (gamma - u) is smallest at u = 1 + gamma, where it is -e^-(1+gamma),
        # so T' >= 0 with at most one zero iff alpha <= gamma e^(1+gamma).
        if not self.alpha <= self.gamma * math.exp(1.0 + self.gamma):
            raise ConfigError(
                f"T is not strictly increasing for gamma={self.gamma}, "
                f"alpha={self.alpha}, beta={self.beta}"
            )


def _map_positive(x, gamma: float, alpha: float, beta: float):
    return x**gamma * (1.0 + alpha * np.exp(-beta * x))


def gaussian_difference(w: np.ndarray, mu: float, sigma_g: float, stream: RngStream) -> np.ndarray:
    """w - g with g ~ N(mu, sigma_g^2 I); centers w and widens its spread."""
    w = as_pvec(w)
    return w - gaussian_sample(stream, w.size, mu, sigma_g)


def rht_map(x, p: RHTParams):
    """Componentwise T; odd by construction, T(0) = 0."""
    x = np.asarray(x, dtype=np.float64)
    out = np.sign(x) * _map_positive(np.abs(x), p.gamma, p.alpha, p.beta)
    return float(out) if out.ndim == 0 else out


def rht_inverse(y: float, p: RHTParams) -> float:
    """Solve T(x) = y for the validated (strictly increasing) T."""
    from scipy import optimize
    if y == 0:
        return 0.0
    ay = abs(y)
    # T(x) is between x^gamma and (1 + alpha) x^gamma, which brackets the root.
    lo = (ay / (1.0 + p.alpha)) ** (1.0 / p.gamma)
    hi = ay ** (1.0 / p.gamma)
    f = lambda t: _map_positive(t, p.gamma, p.alpha, p.beta) - ay
    # Widen defensively; bisection then requires a strict sign change.
    lo *= 1 - 1e-12
    hi *= 1 + 1e-12
    root = optimize.brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16)
    return math.copysign(root, y)


def apply_rht(w: np.ndarray, p: RHTParams, stream: RngStream) -> np.ndarray:
    """Full pipeline: estimate (mu, sigma) from w, difference, then map."""
    w = as_pvec(w)
    mu = float(w.mean())
    sigma = float(w.std())
    diffed = gaussian_difference(w, mu, p.sigma_g_ratio * sigma, stream)
    out = rht_map(diffed, p)
    bad = np.nonzero(~np.isfinite(out))[0]
    if bad.size:
        raise NumericError(f"non-finite output at index {bad[0]}")
    return out


def rht_density(y, sigma2_total: float, p: RHTParams):
    """Exact pushforward density of T(N(0, sigma2_total)) for alpha = 0.

    Proportional to |y|^(1/gamma - 1) exp(-|y|^(2/gamma) / (2 sigma2_total)).
    Substituting x = |y|^(1/gamma) turns the normalizer into gamma times a
    Gaussian integral, so Z = gamma sqrt(2 pi sigma2_total) exactly.
    """
    if p.alpha != 0:
        raise ConfigError("analytic density requires the pure-power case alpha = 0")
    if not sigma2_total > 0:
        raise ConfigError(f"sigma2_total must be > 0, got {sigma2_total}")
    g = p.gamma
    t = np.abs(np.asarray(y, dtype=np.float64))
    z = g * math.sqrt(2.0 * math.pi * sigma2_total)
    out = t ** (1.0 / g - 1.0) * np.exp(-t ** (2.0 / g) / (2.0 * sigma2_total)) / z
    return float(out) if out.ndim == 0 else out


def rht_cdf(y, sigma2_total: float, p: RHTParams):
    """CDF of the alpha = 0 pushforward: Phi(sign(y) |y|^(1/gamma) / sigma)."""
    from scipy import stats
    if p.alpha != 0:
        raise ConfigError("analytic CDF requires the pure-power case alpha = 0")
    y = np.asarray(y, dtype=np.float64)
    x = np.sign(y) * np.abs(y) ** (1.0 / p.gamma)
    out = stats.norm.cdf(x, scale=math.sqrt(sigma2_total))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TailReport:
    excess_kurtosis: float
    hill_exponent: float
    hill_stderr: float
    ks_distance: Optional[float] = None

    def __post_init__(self):
        if self.ks_distance is not None and not 0 <= self.ks_distance <= 1:
            raise ConfigError(f"ks_distance must be in [0, 1], got {self.ks_distance}")


def hill_estimator(samples: np.ndarray, tail_fraction: float) -> tuple[float, float]:
    """Hill tail-exponent estimate over the top tail_fraction of |samples|."""
    x = np.sort(np.abs(np.asarray(samples, dtype=np.float64)))
    k = int(math.floor(tail_fraction * x.size))
    if k < 10:
        raise ConfigError(f"too few tail points ({k}); need at least 10")
    top = x[-k:]
    threshold = x[-k - 1] if x.size > k else top[0]
    if threshold <= 0:
        raise ConfigError("tail threshold is not positive")
    logs = np.log(top / threshold)
    mean_log = float(logs.mean())
    if mean_log <= 0:
        raise NumericError("degenerate tail: all top order statistics equal")
    hill = 1.0 / mean_log
    return hill, hill / math.sqrt(k)


def tail_diagnostics(
    samples: np.ndarray,
    tail_fraction: float = 0.05,
    cdf: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> TailReport:
    """Excess kurtosis, Hill exponent, and optional KS distance vs a CDF."""
    from scipy import stats
    x = as_pvec(samples)
    if x.size < 10_000:
        raise ConfigError(f"need >= 10^4 samples, got {x.size}")
    if not 0 < tail_fraction <= 0.2:
        raise ConfigError(f"tail_fraction must be in (0, 0.2], got {tail_fraction}")
    kurt = float(stats.kurtosis(x, fisher=True))
    hill, hill_se = hill_estimator(x, tail_fraction)
    ks = None
    if cdf is not None:
        ks = float(stats.kstest(x, cdf).statistic)
    return TailReport(kurt, hill, hill_se, ks)


@dataclass(frozen=True)
class TinyNetSpec:
    """Small tanh MLP plus a fixed input grid in the unit square."""

    widths: tuple[int, ...] = (2, 8, 1)
    grid_side: int = 8

    def __post_init__(self):
        if len(self.widths) < 2 or any(w < 1 for w in self.widths):
            raise ConfigError(f"bad layer widths {self.widths}")
        if self.grid_side < 1:
            raise ConfigError("grid must be non-empty")
        if self.widths[0] != 2:
            raise ConfigError("input width must be 2 (points of the unit square)")

    @property
    def param_count(self) -> int:
        return sum(
            self.widths[i] * self.widths[i + 1] + self.widths[i + 1]
            for i in range(len(self.widths) - 1)
        )

    def grid(self) -> np.ndarray:
        side = np.linspace(0.0, 1.0, self.grid_side)
        xx, yy = np.meshgrid(side, side, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def forward(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Outputs for each row of an (n, param_count) stack, shape
        (n, n_inputs). A stacked matmul runs each row's own 2-D product, so a
        row's outputs equal those of that vector alone."""
        p = as_matrix(params, cols=self.param_count)
        h, pos = inputs, 0
        for i in range(len(self.widths) - 1):
            n_in, n_out = self.widths[i], self.widths[i + 1]
            w = p[:, pos : pos + n_in * n_out].reshape(-1, n_in, n_out)
            pos += n_in * n_out
            b = p[:, None, pos : pos + n_out]
            pos += n_out
            h = h @ w + b
            if i < len(self.widths) - 2:
                h = np.tanh(h)
        return h[:, :, 0]


def coverage_proxy(
    net: TinyNetSpec,
    param_sampler: str,
    n_samples: int,
    stream: RngStream,
    rht_params: RHTParams | None = None,
) -> tuple[float, float]:
    """Output dispersion of the network over random parameter draws.

    Returns (mean over grid inputs of the output variance across parameter
    samples, mean output range max - min per input). param_sampler is
    "gaussian" or "rht"; the rht sampler pushes the same Gaussian draws
    through the reparameterization, so the two tags are directly comparable
    at a shared seed.
    """
    if n_samples < 1000:
        raise ConfigError(f"need >= 1000 samples, got {n_samples}")
    if param_sampler not in ("gaussian", "rht"):
        raise ConfigError(f"unknown param sampler {param_sampler!r}")
    grid = net.grid()
    draws = stream.generator().normal(size=(n_samples, net.param_count))
    if param_sampler == "rht":
        p = rht_params or RHTParams()
        flat = gaussian_difference(
            draws.reshape(-1), 0.0, p.sigma_g_ratio * float(draws.std()), stream.substream(0)
        )
        draws = rht_map(flat, p).reshape(n_samples, net.param_count)
    # Stacked forward passes of 256 samples keep the intermediates near 1 MB.
    starts = range(0, n_samples, 256)
    outputs = np.concatenate([net.forward(draws[s : s + 256], grid) for s in starts])
    var_per_input = outputs.var(axis=0)
    range_per_input = outputs.max(axis=0) - outputs.min(axis=0)
    return float(var_per_input.mean()), float(range_per_input.mean())
