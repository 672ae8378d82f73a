"""Synthetic generators, end-to-end experiment runners, and report emission.

Experts are drawn with the shared-factor equicorrelation construction
theta_i = sigma (sqrt(rho) z0 + sqrt(1 - rho) z_i), which gives exact
pairwise correlation rho. Quadratic tasks carry a uniform or geometric
Hessian spectrum under a Haar-random orientation. Runners produce
Report records that serialize idempotently to CSV and JSON with the fully
resolved config embedded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import geometry, merge, rht
from .errors import MAX_SIZE, ConfigError, NumericError, require_real, require_size
from .tensorio import RngStream

SCHEMA_VERSION = 4


def _parse_json(text: str, what: str):
    def reject(token):  # NaN, Infinity or -Infinity
        raise ConfigError(f"bad {what} JSON: {token} is not a finite number")

    try:
        return json.loads(text, parse_constant=reject)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(f"bad {what} JSON: {e}") from e


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Hessian eigenvalue layout: uniform (all 1) or geometric with a set
    condition number. Values are stored ascending, so width and marginal-gain
    prefixes claim the smallest-lambda (widest, lowest-curvature) directions
    first."""

    kind: str = "uniform"
    condition_number: float = 100.0

    def __post_init__(self):
        if self.kind not in ("uniform", "geometric"):
            raise ConfigError(f"unknown spectrum kind {self.kind!r}")
        require_real(self, "condition_number")
        if not self.condition_number >= 1:
            raise ConfigError(f"condition_number must be >= 1, got {self.condition_number}")

    def eigenvalues(self, dim: int) -> np.ndarray:
        if self.kind == "uniform":
            return np.ones(dim)
        # Ascending in lambda: lambda_min .. lambda_max = lambda_min * cond.
        return np.geomspace(1.0 / self.condition_number, 1.0, dim)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    dimension: int = 500
    n_experts: int = 10
    rank: int = 4
    sigma2: float = 1.0
    rho: float = 0.5
    delta: float = 0.05
    epsilon: float = 0.5
    spectrum: SpectrumDescriptor = field(default_factory=SpectrumDescriptor)
    rht_params: rht.RHTParams = field(default_factory=rht.RHTParams)

    def __post_init__(self):
        for name in ("seed", "dimension", "n_experts", "rank"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        require_real(self, "sigma2", "rho", "delta", "epsilon")
        if not all(1 <= getattr(self, f) <= MAX_SIZE for f in ("dimension", "n_experts", "rank")):
            raise ConfigError(f"dimension, n_experts and rank must be in [1, {MAX_SIZE}]")
        if not self.sigma2 > 0:
            raise ConfigError(f"sigma2 must be > 0, got {self.sigma2}")
        if not 0 <= self.rho <= 1:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")
        if not self.delta > 0 or not self.epsilon > 0:
            raise ConfigError("delta and epsilon must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        unknown = set(d) - {f for f in ExperimentConfig.__dataclass_fields__}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        # Nested objects raise TypeError on unknown keys or non-mappings.
        try:
            if "spectrum" in d:
                d["spectrum"] = SpectrumDescriptor(**d["spectrum"])
            if "rht_params" in d:
                d["rht_params"] = rht.RHTParams(**d["rht_params"])
            return ExperimentConfig(**d)
        except (TypeError, ValueError) as e:
            raise ConfigError(str(e)) from e

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(_parse_json(text, "config"))


@dataclass
class Report:
    """Tabular experiment output with the resolved config embedded."""

    kind: str
    columns: list
    rows: list
    config: dict
    extra: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# kind: {self.kind}\n")
        buf.write(f"# schema_version: {self.schema_version}\n")
        buf.write(f"# config: {json.dumps(self.config, sort_keys=True)}\n")
        buf.write(f"# extra: {json.dumps(self.extra, sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "schema_version": self.schema_version,
                "config": self.config,
                "extra": self.extra,
                "columns": self.columns,
                "rows": self.rows,
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Report":
        d = _parse_json(text, "report")
        if not isinstance(d, dict):
            raise ConfigError(f"report must be a JSON object, got {type(d).__name__}")
        keys = Report.__dataclass_fields__
        missing = sorted(set(keys) - set(d))
        if missing:
            raise ConfigError(f"report JSON lacks keys: {missing}")
        kind, columns, rows, version = d["kind"], d["columns"], d["rows"], d["schema_version"]
        # kind becomes the file stem `report` writes under --out.
        plain = isinstance(kind, str) and kind not in ("", ".", "..") and kind.isprintable()
        if not plain or any(s and s in kind for s in (os.sep, os.altsep)):
            raise ConfigError(f"report kind must be a plain file name, got {kind!r}")
        if not isinstance(columns, list) or not all(isinstance(c, str) for c in columns):
            raise ConfigError("report columns must be a list of strings")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ConfigError("report rows must be a list of lists")
        if not isinstance(d["config"], dict) or not isinstance(d["extra"], dict):
            raise ConfigError("report config and extra must be JSON objects")
        if isinstance(version, bool) or not isinstance(version, int):
            raise ConfigError(f"report schema_version must be an integer, got {version!r}")
        return Report(**{k: d[k] for k in keys})


def emit_report(report: Report, fmt: str, path) -> None:
    """Write report to path; a NaN or infinity in it is a NumericError, raised first."""
    try:
        json.dumps([report.rows, report.config, report.extra], allow_nan=False)
    except ValueError as e:
        raise NumericError(f"{report.kind} report holds a non-finite number (NaN or inf)") from e
    if fmt == "csv":
        payload = report.to_csv()
    elif fmt == "json":
        payload = report.to_json()
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(payload)


def gen_experts(cfg: ExperimentConfig, low_rank: bool = False) -> np.ndarray:
    """n equicorrelated expert deltas, the rows of an (n, D) float64 array.

    With low_rank, each delta, read as a √D × √D matrix m, is overwritten
    in place by its projection onto its top-r left singular vectors,
    rescaled to keep the Frobenius norm (second moments stay near target).
    The top r are the top-r eigenpairs of the Gram matrix m·mᵀ, so no full
    SVD is computed: U_r·U_rᵀ·m is the truncated SVD to round-off
    eps·σ₁/gap. A Gram matrix that overflows is a NumericError. Every BLAS
    call in the loop goes through scipy: numpy and scipy each load their
    own OpenBLAS, and alternating between them leaves one thread pool
    spinning while the other works (2-3× slower on a 2-core host).
    """
    stream = RngStream(cfg.seed, 1)
    gen = stream.generator()
    sigma = math.sqrt(cfg.sigma2)
    d, n = cfg.dimension, cfg.n_experts
    require_size(n, d, "n_experts x dimension")
    z0 = gen.normal(size=d)
    experts = gen.normal(size=(n, d))
    # sigma (sqrt(rho) z0 + sqrt(1 - rho) z_i), combined in place: IEEE + and
    # * commute, so these are the bits of that expression with no n x D
    # temporaries.
    experts *= math.sqrt(1.0 - cfg.rho)
    experts += math.sqrt(cfg.rho) * z0
    experts *= sigma
    if not low_rank:
        return experts

    d_out = int(round(math.sqrt(d)))
    if d_out * d_out != d:
        raise ConfigError(f"low-rank experts need a square dimension, got {d}")
    if cfg.rank > d_out:
        raise ConfigError(f"rank {cfg.rank} exceeds matrix side {d_out}")
    from scipy.linalg import blas, eigh

    r = cfg.rank
    for i in range(n):
        m = experts[i].reshape(d_out, d_out)
        gram = blas.dsyrk(1.0, m.T, trans=1)  # upper triangle of m·mᵀ
        total = float(np.trace(gram))
        if not math.isfinite(total):
            raise NumericError(f"expert {i}: squared Frobenius norm overflows ({total})")
        w, u = eigh(gram, lower=False, subset_by_index=[d_out - r, d_out - 1], check_finite=False)
        left = u[:, ::-1]
        right = blas.dgemm(1.0, left, m, trans_a=1)
        kept = math.sqrt(float(np.sum(np.maximum(w, 0.0))))
        scale = math.sqrt(total) / kept if kept > 0 else 1.0
        experts[i] = blas.dgemm(scale, left, right).reshape(-1)
    return experts


def gen_quadratic_task(cfg: ExperimentConfig) -> geometry.QuadraticTask:
    """Quadratic task with the configured spectrum, no fixed basis (see
    geometry.mean_rotated_losses) and theta_star the first D normals of stream 2."""
    d = cfg.dimension
    theta_star = RngStream(cfg.seed, 2).generator().normal(size=d)
    return geometry.QuadraticTask(theta_star, cfg.spectrum.eigenvalues(d), None, cfg.epsilon)


_SATURATION_COLUMNS = [
    "n",
    "var_analytic",
    "var_mc",
    "var_mc_stderr",
    "expected_loss",
    "width",
    "marginal_gain",
    "stop_successive",
    "stop_distance",
    "redundancy_ok",
]


def run_saturation(cfg: ExperimentConfig) -> Report:
    """Merge 1..N experts uniformly and record the saturation trajectory.

    The experts are drawn once as an (N, D) stack; the n-expert merge is
    one merge_linear call on the row prefix experts[:n], a view, so the
    sweep copies no expert. Analytic columns come straight from the
    variance law and Jensen width; var_mc is the empirical per-coordinate
    variance of the merged vector. Expected loss uses
    E[L] = 0.5 * var_per_coord * Tr(H).
    """
    experts = gen_experts(cfg)
    task = gen_quadratic_task(cfg)
    trace_h = float(np.sum(task.eigenvalues))
    n_vals = list(range(1, cfg.n_experts + 1))
    trace = [merge.merged_variance_equicorrelated(cfg.sigma2, cfg.rho, n) for n in n_vals]
    limit = merge.variance_limit(cfg.sigma2, cfg.rho)
    stop_succ = merge.termination_check(trace, cfg.delta)
    stop_dist = merge.termination_check(trace, cfg.delta, limit)
    nmax = merge.n_max(cfg.sigma2, cfg.rho, cfg.delta)
    up_to = min(cfg.n_experts, cfg.dimension)
    gains = geometry.marginal_gains(task, up_to)

    rows = []
    for i, n in enumerate(n_vals):
        w = merge.MergeWeights.uniform(n)
        merged = merge.merge_linear(experts[:n], w)
        var_mc = float(merged.var())
        stderr = var_mc * math.sqrt(2.0 / max(cfg.dimension - 1, 1))
        width = geometry.width_jensen(task, min(n, cfg.dimension))
        gain = float(gains[i]) if i < up_to else 0.0
        rows.append(
            [
                n,
                trace[i],
                var_mc,
                stderr,
                0.5 * trace[i] * trace_h,
                width,
                gain,
                stop_succ is not None and n >= stop_succ,
                stop_dist is not None and i >= stop_dist,
                bool(geometry.redundancy_bound_check(task, merged, min(n, cfg.dimension - 1))),
            ]
        )
    extra = {
        "n_max": nmax,
        "variance_limit": limit,
        "stop_n_successive": stop_succ,
        "stop_index_distance": stop_dist,
        "trace_h": trace_h,
    }
    return Report("saturation", _SATURATION_COLUMNS, rows, cfg.to_dict(), extra)


def run_kinematics(
    dim: int,
    k_values: Sequence[int],
    trials: int,
    stream: RngStream,
    half_angle: Optional[float] = None,
    subspace_dim: Optional[int] = None,
) -> Report:
    """Intersection-probability curve for a cone (or fixed subspace) vs a
    Haar-rotated k-subspace, swept over k."""
    if trials < 200:
        raise ConfigError(f"need >= 200 trials, got {trials}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    k_values = list(k_values)
    if not k_values:
        raise ConfigError("k_values is empty")
    if (half_angle is None) == (subspace_dim is None):
        raise ConfigError("give exactly one of half_angle or subspace_dim")
    if half_angle is not None:
        axis = np.zeros(dim)
        axis[0] = 1.0
        body = geometry.CircularCone(axis, half_angle)
        statdim, statdim_se = geometry.statdim_cone_mc(
            body, dim, 20_000, stream.substream(0)
        )
    else:
        body = int(subspace_dim)
        statdim, statdim_se = float(subspace_dim), 0.0

    rows = []
    crossing = None
    for j, k in enumerate(k_values):
        p = float(
            geometry.kinematics_transition(dim, body, int(k), trials, stream.substream(1 + j))
        )
        rows.append([int(k), p])
        if crossing is None and p >= 0.5:
            crossing = int(k)
    extra = {
        "dim": dim,
        "trials": trials,
        "statdim": statdim,
        "statdim_stderr": statdim_se,
        "crossing_k": crossing,
        "predicted_crossing": dim - statdim,
        "half_angle": half_angle,
        "subspace_dim": subspace_dim,
        "seed": stream.seed,
        "stream_id": stream.stream_id,
    }
    return Report("kinematics", ["k", "intersection_probability"], rows, extra={**extra}, config=extra)


_RHT_STUDY_COLUMNS = ["n", "loss_baseline", "loss_rht", "var_baseline", "var_rht"]


def run_rht_study(cfg: ExperimentConfig) -> Report:
    """Paired saturation curves, merged deltas as-is vs reparameterized.

    Each loss is the exact mean over the task's Haar orientation (see
    geometry.mean_rotated_losses), so loss_rht / loss_baseline is
    |t - theta*|^2 / |m - theta*|^2. Also emits the orientation coefficient
    of variation, the coverage-proxy pair (gaussian vs rht samplers at a
    shared seed) and tail diagnostics of the last transformed delta.
    """
    experts = gen_experts(cfg)
    task = gen_quadratic_task(cfg)
    merged, transformed = [], []
    for n in range(1, cfg.n_experts + 1):
        merged.append(merge.merge_linear(experts[:n], merge.MergeWeights.uniform(n)))
        transformed.append(rht.apply_rht(merged[-1], cfg.rht_params, RngStream(cfg.seed, 100 + n)))
    offsets = np.stack(merged + transformed, axis=1) - task.theta_star[:, None]
    losses, cv = geometry.mean_rotated_losses(task.eigenvalues, offsets)
    rows = [
        [n, float(lb), float(lr), float(m.var()), float(t.var())]
        for n, (lb, lr, m, t) in enumerate(zip(*losses.reshape(2, -1), merged, transformed), 1)
    ]
    net = rht.TinyNetSpec()
    cov_stream = RngStream(cfg.seed, 50)
    c1, range1 = rht.coverage_proxy(net, "gaussian", 2000, cov_stream)
    c2, range2 = rht.coverage_proxy(net, "rht", 2000, cov_stream, rht_params=cfg.rht_params)
    diag = None
    if transformed[-1].size >= 10_000:
        diag = asdict(rht.tail_diagnostics(transformed[-1]))
    extra = {
        "coverage_gaussian": c1,
        "coverage_rht": c2,
        "coverage_rht_exceeds": c2 > c1,
        "range_gaussian": range1,
        "range_rht": range2,
        "tail_diagnostics": diag,
        "loss_orientation_cv": cv,
        "coverage_note": (
            "coverage proxy is output dispersion of a fixed tiny network over a grid, "
            "standing in for the function-space volume integral"
        ),
    }
    return Report("rht_study", _RHT_STUDY_COLUMNS, rows, cfg.to_dict(), extra)
