"""Heavy-tailed reparameterization of merged parameters.

Two-step transform: subtract an independent Gaussian, then amplify each
component with the odd map T(x) = sign(x) |x|^gamma (1 + alpha e^{-beta|x|}).
Includes the exact change-of-variables density for the pure-power case
(alpha = 0), tail diagnostics (excess kurtosis and Hill exponent), and an
output-dispersion coverage proxy on a fixed reference network: the 2-8-1
tanh MLP over an 8 x 8 grid of the unit square, 33 parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, require_real
from .tensorio import RngStream, as_matrix, as_pvec


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
    """w - g with g ~ N(mu, sigma_g^2 I); centers w and widens its spread.

    sigma_g = 0 is the plain shift w - mu and draws nothing from stream.
    """
    w = as_pvec(w)
    if sigma_g < 0:
        raise ConfigError(f"sigma_g must be >= 0, got {sigma_g}")
    if sigma_g == 0:
        return w - float(mu)
    g = stream.generator().normal(mu, sigma_g, size=w.size)
    return np.subtract(w, g, out=g)


def rht_map(x, p: RHTParams):
    """Componentwise T; odd by construction, T(0) = 0. An array is mapped in
    two temporaries, with the bits of sign(x) * _map_positive(|x|): IEEE *
    and + commute, and ** keeps numpy's scalar-power fast paths. The sign is
    a product, not copysign: np.sign(-0.0) is 0.0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        return float(np.sign(x) * _map_positive(np.abs(x), p.gamma, p.alpha, p.beta))
    boost = np.abs(x)
    out = boost**p.gamma
    np.multiply(boost, -p.beta, out=boost)
    np.exp(boost, out=boost)
    boost *= p.alpha
    boost += 1.0
    out *= boost
    out *= np.sign(x, out=boost)
    return out


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
    """Full pipeline: estimate (mu, sigma) from w, difference, then map.

    A w that is empty or whose std overflows is rejected before any draw.
    """
    w = as_pvec(w)
    if w.size == 0:
        raise ConfigError("cannot reparameterize an empty vector")
    with np.errstate(over="ignore"):
        mu = float(w.mean())
        sigma = float(w.std())
    if not math.isfinite(sigma):
        raise NumericError(f"non-finite std of w: {sigma}")
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


def tail_diagnostics(samples: np.ndarray) -> TailReport:
    """Excess kurtosis, and the Hill tail exponent with its stderr over the
    top 5 % of |samples| (k >= 500 of them behind the 10^4-sample floor).
    The kurtosis has the bits of scipy.stats.kurtosis (scipy 1.17's order of
    operations) without importing scipy.stats; samples that are one value to
    rounding, where scipy warns of cancellation or returns NaN, are a
    NumericError."""
    x = as_pvec(samples)
    if x.size < 10_000:
        raise ConfigError(f"need >= 10^4 samples, got {x.size}")
    mag = np.sort(np.abs(x))
    k = int(0.05 * mag.size)
    threshold = mag[-k - 1]
    if threshold <= 0:
        raise ConfigError("tail threshold is not positive")
    mean_log = float(np.log(mag[-k:] / threshold).mean())
    if mean_log <= 0:
        raise NumericError("degenerate tail: all top order statistics equal")
    hill = 1.0 / mean_log
    mean = x.mean()
    d = x - mean
    tiny = np.finfo(np.float64).eps * abs(mean)
    lost = max(d.max(), -d.min()) < 10.0 * tiny  # scipy warns of cancellation
    m2 = np.square(d, out=d).mean()
    if lost or m2 <= tiny**2:  # or returns NaN
        raise NumericError("moments lost to cancellation: the samples are one value to rounding")
    m4 = np.square(d, out=d).mean()
    return TailReport(float(m4 / m2**2.0 - 3), hill, hill / math.sqrt(k))


class TinyNetSpec:
    """The fixed 2-8-1 tanh MLP and its 8 x 8 input grid in the unit square.

    A parameter vector is the 2 x 8 hidden weights (row-major), the 8 hidden
    biases, the 8 output weights and the output bias: 33 numbers.
    """

    param_count = 33

    def grid(self) -> np.ndarray:
        side = np.linspace(0.0, 1.0, 8)
        xx, yy = np.meshgrid(side, side, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])

    def forward(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Outputs for each row of an (n, 33) stack, shape (n, n_inputs). A
        stacked matmul runs each row's own 2-D product, so a row's outputs
        equal those of that vector alone."""
        p = as_matrix(params, cols=self.param_count)
        h = inputs @ p[:, :16].reshape(-1, 2, 8)
        h += p[:, None, 16:24]
        out = np.tanh(h, out=h) @ p[:, 24:32].reshape(-1, 8, 1)
        out += p[:, None, 32:]
        return out[:, :, 0]


# Parameter samples per stacked forward pass in coverage_proxy.
_FORWARD_SAMPLES = 128


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
        sigma_g = p.sigma_g_ratio * float(draws.std())
        draws = gaussian_difference(draws.reshape(-1), 0.0, sigma_g, stream.substream(0))
        draws = rht_map(draws, p).reshape(n_samples, net.param_count)
    # Stacked forward passes of _FORWARD_SAMPLES keep the intermediates near
    # 0.5 MB; each block's outputs go straight into their rows.
    outputs = np.empty((n_samples, len(grid)))
    for s in range(0, n_samples, _FORWARD_SAMPLES):
        outputs[s : s + _FORWARD_SAMPLES] = net.forward(draws[s : s + _FORWARD_SAMPLES], grid)
    var_per_input = outputs.var(axis=0)
    range_per_input = outputs.max(axis=0) - outputs.min(axis=0)
    return float(var_per_input.mean()), float(range_per_input.mean())
