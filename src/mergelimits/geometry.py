"""High-dimensional geometry of loss sublevel sets.

Gaussian width of the ellipsoid {theta : (theta - theta*)^T H (theta -
theta*) <= 2 eps} both in the Jensen closed form sqrt(2 eps sum 1/lambda_i)
and by Monte Carlo, diminishing marginal gains, the statistical dimension of
circular cones, the projected-width redundancy threshold, the Haar-averaged
loss, and the kinematic transition of a cone or subspace vs a Haar subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_size
from .tensorio import RngStream, as_matrix, as_pvec

_ANGLE_TOL = 1e-10


class QuadraticTask:
    """Quadratic loss L(theta) = 0.5 (theta - theta*)^T H (theta - theta*).

    H = basis @ diag(eigenvalues) @ basis^T with orthonormal basis columns.
    The epsilon-sublevel set is an ellipsoid centered at theta* with radii
    r_i = sqrt(2 eps / lambda_i) along the eigenvectors.

    basis is the D x D matrix, checked for orthonormal columns
    (max |Q^T Q - I| <= 1e-8), or None for a task whose orientation is left
    Haar-random. Widths, marginal gains and the redundancy check are
    basis-invariant and never read it. loss and sample_sublevel need a fixed
    basis; mean_rotated_losses averages the loss over a Haar orientation.
    """

    def __init__(self, theta_star, eigenvalues, basis, epsilon):
        self.theta_star = as_pvec(theta_star)
        self.eigenvalues = as_pvec(eigenvalues)
        self.basis = None if basis is None else as_matrix(basis)
        self.epsilon = epsilon
        d, q = self.dim, self.basis
        if self.eigenvalues.size != d or (q is not None and q.shape != (d, d)):
            raise ConfigError("theta_star, eigenvalues and basis dimensions disagree")
        if np.any(self.eigenvalues <= 0):
            raise ConfigError("all eigenvalues must be > 0")
        if not self.epsilon > 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if q is not None and np.max(np.abs(q.T @ q - np.eye(d))) > 1e-8:
            raise ConfigError("basis columns are not orthonormal")
        self.radii = np.sqrt(2.0 * self.epsilon / self.eigenvalues)

    def _fixed_basis(self) -> np.ndarray:
        if self.basis is None:
            raise ConfigError("task has no fixed basis; see geometry.mean_rotated_losses")
        return self.basis

    @property
    def dim(self) -> int:
        return self.theta_star.size

    def loss(self, theta: np.ndarray) -> float:
        z = self._fixed_basis().T @ (as_pvec(theta, self.dim) - self.theta_star)
        return 0.5 * float(self.eigenvalues @ (z * z))

    def sample_sublevel(self, stream: RngStream, n: int = 1) -> np.ndarray:
        """Uniform points of the epsilon-sublevel ellipsoid, shape (n, D)."""
        basis = self._fixed_basis()
        gen = stream.generator()
        g = gen.normal(size=(n, self.dim))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        u = gen.random(size=(n, 1)) ** (1.0 / self.dim)
        z = g * u * self.radii
        return self.theta_star + z @ basis.T


@dataclass(frozen=True)
class CircularCone:
    """Closed convex cone {x : angle(x, axis) <= half_angle}."""

    axis: np.ndarray
    half_angle: float

    def __post_init__(self):
        u = as_pvec(self.axis)
        nrm = np.linalg.norm(u)
        if abs(nrm - 1.0) > 1e-12:
            raise ConfigError(f"cone axis must be unit-norm, got |u| = {nrm}")
        object.__setattr__(self, "axis", u)
        object.__setattr__(self, "half_angle", float(self.half_angle))
        if not 0 < self.half_angle < math.pi / 2:
            raise ConfigError(f"half_angle must be in (0, pi/2), got {self.half_angle}")


def width_jensen(task: QuadraticTask, m: int | None = None) -> float:
    """Jensen approximation sqrt(2 eps sum_{i<=m} 1/lambda_i), stored order."""
    d = task.dim
    if m is None:
        m = d
    if not 1 <= m <= d:
        raise ConfigError(f"m must be in [1, {d}], got {m}")
    return math.sqrt(2.0 * task.epsilon * float(np.sum(1.0 / task.eigenvalues[:m])))


def width_mc(task: QuadraticTask, samples: int, stream: RngStream) -> tuple[float, float]:
    """Monte-Carlo Gaussian width E[sqrt(2 eps) |H^{-1/2} g|] with stderr.

    H^{-1/2} g has the same norm distribution as diag(lambda^{-1/2}) g, so
    the basis never enters.
    """
    if samples < 1000:
        raise ConfigError(f"need >= 1000 samples, got {samples}")
    require_size(samples, task.dim, "samples x dimension")
    g = stream.generator().normal(size=(samples, task.dim))
    vals = math.sqrt(2.0 * task.epsilon) * np.sqrt((g * g) @ (1.0 / task.eigenvalues))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


def marginal_gains(task: QuadraticTask, up_to_m: int | None = None) -> np.ndarray:
    """Width increments Delta w_M = w(S_M) - w(S_{M-1}), with w(S_0) = 0."""
    d = task.dim
    if up_to_m is None:
        up_to_m = d
    if not 1 <= up_to_m <= d:
        raise ConfigError(f"up_to_m must be in [1, {d}], got {up_to_m}")
    partial = np.cumsum(1.0 / task.eigenvalues[:up_to_m])
    widths = np.sqrt(2.0 * task.epsilon * partial)
    return np.diff(widths, prepend=0.0)


def projected_width_sq(task: QuadraticTask, theta_k: np.ndarray, active: int) -> float:
    """Squared width of the sublevel set projected onto the sphere around theta_k.

    sum over the D - active residual radii of r_i^2 / (dist^2 + r_i^2),
    where dist = |theta* - theta_k|.
    """
    d = task.dim
    if not 0 <= active < d:
        raise ConfigError(f"active must be in [0, {d}), got {active}")
    dist_sq = float(np.sum((task.theta_star - as_pvec(theta_k, d)) ** 2))
    r_sq = task.radii[: d - active] ** 2
    return float(np.sum(r_sq / (dist_sq + r_sq)))


def redundancy_bound_check(task: QuadraticTask, theta_k: np.ndarray, active: int) -> bool:
    """True while active <= D - projected width: merging more is admissible."""
    return active <= task.dim - projected_width_sq(task, theta_k, active) + _ANGLE_TOL


def statdim_cone_mc(cone: CircularCone, dim: int, samples: int, stream: RngStream) -> tuple[float, float]:
    """Monte-Carlo statistical dimension E|Pi_C(g)|^2 with stderr."""
    if samples < 1000:
        raise ConfigError(f"need >= 1000 samples, got {samples}")
    if dim != cone.axis.size:
        raise ConfigError(f"dim {dim} disagrees with cone axis dim {cone.axis.size}")
    g = stream.generator().normal(size=(samples, dim))
    t = g @ cone.axis
    w = g - np.outer(t, cone.axis)
    rho = np.linalg.norm(w, axis=1)
    tan_a = math.tan(cone.half_angle)
    # |Pi(g)|^2: inside -> |g|^2; polar (dot <= 0) -> 0; else boundary ray.
    inside = rho <= t * tan_a
    dot = np.cos(cone.half_angle) * t + np.sin(cone.half_angle) * rho
    sq = np.where(inside, t * t + rho * rho, np.maximum(dot, 0.0) ** 2)
    return float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(samples))


def haar_orthogonal(dim: int, gen: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix: sign-corrected QR (arXiv:math-ph/0609050)."""
    q, r = np.linalg.qr(gen.normal(size=(dim, dim)))
    return q * np.sign(np.diag(r))


def mean_rotated_losses(eigenvalues, vectors) -> tuple[np.ndarray, float]:
    """Exact mean over a Haar Q of 0.5 v^T Q diag(lambda) Q^T v for each column
    v of `vectors` (D x m), and the coefficient of variation over Q.

    u = Q^T v / |v| is uniform on the sphere: E u_i^2 = 1/D, E u_i^4 =
    3/(D(D+2)), E u_i^2 u_j^2 = 1/(D(D+2)). So the mean is 0.5 |v|^2 mean(lambda)
    and sd/mean = sqrt(2 sum (lambda_i - mean)^2 / (D(D+2))) / mean, the same
    for every v. The centred sum cannot go negative by round-off.
    """
    lam = as_pvec(eigenvalues)
    v = as_matrix(vectors, rows=lam.size)
    d, mean = lam.size, float(lam.mean())
    cv = math.sqrt(2.0 * float(np.sum((lam - mean) ** 2)) / (d * (d + 2))) / mean
    return 0.5 * np.sum(v * v, axis=0) * mean, cv


# Normals drawn per batch in kinematics_transition. Consecutive draws from
# one generator give the same numbers as a single large draw, so this bounds
# memory without changing results.
_CHUNK_NORMALS = 1 << 16


def kinematics_transition(
    dim: int,
    cone_or_subspace,
    k: int,
    trials: int,
    stream: RngStream,
) -> float:
    """Probability that C intersects a Haar-rotated k-subspace S.

    cone_or_subspace is a CircularCone or an int k1, the fixed subspace
    E_k1 spanned by the first k1 coordinate axes.

    - Subspace: exact. Two subspaces in general position meet nontrivially
      iff k1 + k > D, so this returns that indicator and draws nothing.
    - Cone: Monte Carlo over `trials` draws. S meets the cone nontrivially
      iff arccos |Pi_S u| <= half_angle (+ 1e-10 rad). By rotation
      invariance |Pi_S u|^2 has the law of sum_{i<k} g_i^2 / |g|^2 for
      g ~ N(0, I_D), so a trial is one D-vector.
    """
    if trials < 100:
        raise ConfigError(f"need >= 100 trials, got {trials}")
    if not 0 < k <= dim:
        raise ConfigError(f"k must be in (0, {dim}], got {k}")
    if not isinstance(cone_or_subspace, CircularCone):
        k1 = int(cone_or_subspace)
        if not 0 < k1 <= dim:
            raise ConfigError(f"subspace dim must be in (0, {dim}], got {k1}")
        return 1.0 if k1 + k > dim else 0.0
    limit = cone_or_subspace.half_angle + _ANGLE_TOL
    gen = stream.generator()
    batch = max(1, _CHUNK_NORMALS // dim)
    hits = 0
    for start in range(0, trials, batch):
        g = gen.normal(size=(min(batch, trials - start), dim))
        ratio = np.sum(g[:, :k] ** 2, axis=1) / np.sum(g * g, axis=1)
        hits += int(np.count_nonzero(np.arccos(np.minimum(np.sqrt(ratio), 1.0)) <= limit))
    return hits / trials
