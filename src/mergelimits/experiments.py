"""Synthetic generators, end-to-end experiment runners, and report emission.

Experts are drawn with the shared-factor equicorrelation construction
theta_i = sigma (sqrt(rho) z0 + sqrt(1 - rho) z_i), with z0 and z_i iid
normal vectors or, for low-rank experts, √D × √D factor products of rank r;
either gives variance sigma2 and exact pairwise correlation rho. Quadratic
tasks carry a uniform or geometric Hessian spectrum under a Haar-random
orientation. Runners produce Report records that serialize idempotently to
CSV and JSON with the fully resolved config embedded.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from . import geometry, merge, rht
from .errors import MAX_SIZE, ConfigError, NumericError, require_real, require_size
from .tensorio import RngStream, normal_blocks

SCHEMA_VERSION = 8


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
        # csv writes every float, numpy's included, with float.__repr__.
        csv.writer(buf, lineterminator="\n").writerows([self.columns, *self.rows])
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps(vars(self), indent=2, sort_keys=True)

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
        if any(len(r) != len(columns) or any(isinstance(v, (list, dict)) for v in r) for r in rows):
            raise ConfigError(f"each report row must hold {len(columns)} numbers, strings, bools or nulls")
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


def _factor_product(gen: np.random.Generator, side: int, r: int) -> np.ndarray:
    """A·Bᵀ/√r for side × r matrices A then B of iid normals from gen, as a
    1 × side² row block. One einsum over contiguous r × side copies sums each
    entry in k order for r <= side (over transposed views it would not), with
    no BLAS call: the bits of the plain sum of r outer products on any kernel."""
    a, b = gen.normal(size=(2, side, r))
    a /= math.sqrt(r)
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    return np.einsum("ki,kj->ij", a, b).reshape(1, side * side)


def gen_experts(cfg: ExperimentConfig, low_rank: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """n equicorrelated expert deltas from stream (seed, 1), as (index of the
    first row, row block) pairs of float64 rows of length D (see
    tensorio.normal_blocks): the N x D stack is never held. The config checks
    and the draw of z0 run on the call, the blocks as they are taken.

    With low_rank, z0 and then each z_i is a √D × √D factor product of rank
    r (see _factor_product), and each expert comes as a block of its own.
    Every entry keeps variance sigma2 and pairwise correlation rho, and each
    expert has rank <= 2r.
    """
    d, n, r = cfg.dimension, cfg.n_experts, cfg.rank
    require_size(n, d, "n_experts x dimension")
    if low_rank:
        side = math.isqrt(d)
        if side * side != d:
            raise ConfigError(f"low-rank experts need a square dimension, got {d}")
        if r > side:
            raise ConfigError(f"rank {r} exceeds matrix side {side}")
    gen = RngStream(cfg.seed, 1).generator()
    if low_rank:
        shared = math.sqrt(cfg.rho) * _factor_product(gen, side, r)[0]
        rows = ((i, _factor_product(gen, side, r)) for i in range(n))
    else:
        shared = math.sqrt(cfg.rho) * gen.normal(size=d)
        rows = normal_blocks(gen, n, d)

    def blocks():
        for start, block in rows:
            # sigma (sqrt(rho) z0 + sqrt(1 - rho) z_i), combined in place: IEEE
            # + and * commute, so these are the bits of that expression.
            block *= math.sqrt(1.0 - cfg.rho)
            block += shared
            block *= math.sqrt(cfg.sigma2)
            yield start, block

    return blocks()


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
]


def _merged_blocks(blocks: Iterator[tuple[int, np.ndarray]]) -> Iterator[tuple[int, np.ndarray]]:
    """Overwrite each expert row block in place by its running means: row
    n - 1 of the whole becomes the uniform merge of the first n. The running
    sum is carried over from the block before (S + x is the IEEE sum cumsum
    takes at that row)."""
    total = None
    for start, block in blocks:
        if total is not None:
            block[0] += total
        np.cumsum(block, axis=0, out=block)
        total = block[-1].copy()
        block /= np.arange(start + 1.0, start + len(block) + 1.0)[:, None]
        yield start, block


def run_saturation(cfg: ExperimentConfig) -> Report:
    """Merge 1..N experts uniformly and record the saturation trajectory.

    The n-expert merge is row n-1 of the running means of one (N, D) draw,
    taken in row blocks (see _merged_blocks), so the stack is never held.
    Analytic columns come from the variance law and one jensen_widths array:
    width is w_min(n, D) and marginal_gain its np.diff, 0.0 past D.
    var_mc is the empirical per-coordinate variance of the merged vector.
    Expected loss uses E[L] = 0.5 * var_per_coord * Tr(H). Both stops are
    trace indices read off nmax = merge.n_max, not searched for: the gap
    trace[i] - limit = sigma^2 (1 - rho)/(i + 1) first drops below delta at
    i = nmax, the gain trace[i-1] - trace[i] = sigma^2 (1 - rho)/(i (i + 1))
    at the least i >= 1 with i (i + 1) > nmax. A stop not below N is None.
    """
    n_total, d = cfg.n_experts, cfg.dimension
    merges = _merged_blocks(gen_experts(cfg))
    var_mc = np.empty(n_total)  # before the sweep: N rows too many to hold fail at once
    for start, block in merges:
        block.var(axis=1, out=var_mc[start : start + len(block)])
    var_mc = var_mc.tolist()
    task = gen_quadratic_task(cfg)
    trace_h = float(np.sum(task.eigenvalues))
    trace = [merge.merged_variance_equicorrelated(cfg.sigma2, cfg.rho, n) for n in range(1, n_total + 1)]
    nmax = merge.n_max(cfg.sigma2, cfg.rho, cfg.delta)
    succ = (math.isqrt(4 * nmax + 1) - 1) // 2 + 1  # the largest j with j (j + 1) <= nmax, plus 1
    stop_succ, stop_dist = (i if i < n_total else None for i in (succ, nmax))
    width = np.pad(geometry.jensen_widths(task, min(n_total, d)), (0, max(n_total - d, 0)), mode="edge")
    gains = np.diff(width, prepend=0.0)
    se = math.sqrt(2.0 / max(d - 1, 1))
    rows = [
        [n, v, mc, mc * se, 0.5 * v * trace_h, w, g,
         stop_succ is not None and n >= stop_succ, stop_dist is not None and n > stop_dist]
        for n, v, mc, w, g in zip(range(1, n_total + 1), trace, var_mc, width.tolist(), gains.tolist())
    ]
    extra = {
        "n_max": nmax,
        "variance_limit": merge.variance_limit(cfg.sigma2, cfg.rho),
        "stop_n_successive": stop_succ,
        "stop_index_distance": stop_dist,
        "trace_h": trace_h,
    }
    return Report("saturation", _SATURATION_COLUMNS, rows, asdict(cfg), extra)


def run_kinematics(
    dim: int,
    k_values: Sequence[int],
    trials: int,
    stream: RngStream,
    half_angle: Optional[float] = None,
    subspace_dim: Optional[int] = None,
) -> Report:
    """Intersection-probability curve for a cone (or fixed subspace) vs a
    Haar-rotated k-subspace, swept over k.

    The statistical dimension is exact for either body (statdim_stderr is
    0.0): geometry.statdim_cone for a cone, subspace_dim for a subspace. A
    cone's whole sweep is one kinematics_transition call on
    stream.substream(1), so every k reads the same nested flags and the
    curve is non-decreasing; crossing_k is the first k with probability
    >= 0.5. A subspace sweep is exact and draws nothing.
    """
    if trials < 200:
        raise ConfigError(f"need >= 200 trials, got {trials}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    k_values = list(k_values)
    if (half_angle is None) == (subspace_dim is None):
        raise ConfigError("give exactly one of half_angle or subspace_dim")
    if half_angle is not None:
        body = geometry.CircularCone(dim, half_angle)
        statdim = geometry.statdim_cone(body)
    else:
        body = int(subspace_dim)
        statdim = float(subspace_dim)

    probs = geometry.kinematics_transition(dim, body, k_values, trials, stream.substream(1))
    rows = [[int(k), float(p)] for k, p in zip(k_values, probs)]
    crossing = next((k for k, p in rows if p >= 0.5), None)
    extra = {
        "dim": dim,
        "trials": trials,
        "statdim": statdim,
        "statdim_stderr": 0.0,
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
    merges = _merged_blocks(gen_experts(cfg))
    cells = np.empty((cfg.n_experts, 4))  # before the sweep: N rows too many to hold fail at once
    task = gen_quadratic_task(cfg)
    p = cfg.rht_params
    for start, merged in merges:
        transformed = [
            rht.apply_rht(m, p, RngStream(cfg.seed, 100 + n)) for n, m in enumerate(merged, start + 1)
        ]
        # A C-ordered (D, 2b) block, as the whole stack was: numpy sums each of
        # its columns sequentially over D (a lone (D, 1) column it sums pairwise).
        offsets = np.stack([*merged, *transformed], axis=1) - task.theta_star[:, None]
        losses, cv = geometry.mean_rotated_losses(task.eigenvalues, offsets)
        for row, lb, lr, m, t in zip(cells[start:], *losses.reshape(2, -1), merged, transformed):
            row[:] = lb, lr, m.var(), t.var()
    rows = [[n, *c] for n, c in enumerate(cells.tolist(), 1)]
    cov_stream = RngStream(cfg.seed, 50)
    c1, range1 = rht.coverage_proxy("gaussian", 2000, cov_stream)
    c2, range2 = rht.coverage_proxy("rht", 2000, cov_stream, rht_params=p)
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
    return Report("rht_study", _RHT_STUDY_COLUMNS, rows, asdict(cfg), extra)
