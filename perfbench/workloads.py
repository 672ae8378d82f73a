"""Workloads of the mergelimits benchmark: seeded inputs, CLI ops and output checks.

A workload turns the benchmark seed into input files under ``inputs/`` of a
work directory (the program sees only those files and the argument lists
built here), names the CLI argument lists that make up one op, and checks
an op's outputs after timing has stopped. All paths are relative to the
work directory, so reports that embed an input path read the same in every
work directory.

The checks test properties that any correct implementation has, whatever
the layout of its random streams: closed forms, Monte-Carlo agreement
within stated standard errors, exact combinatorial facts, and exact
arithmetic identities of the merged files.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy import stats

INPUTS = Path("inputs")


class CheckFailed(Exception):
    """An op's output violates a property every correct implementation has."""


def read_mmpv(path) -> np.ndarray:
    """MMPV: b"MMPV" | u32 version | u64 dim | dim float64 LE."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MMPV" or len(raw) < 16:
        raise CheckFailed(f"{path}: not an MMPV file")
    (dim,) = np.frombuffer(raw, "<u8", 1, 8)
    if len(raw) != 16 + 8 * int(dim):
        raise CheckFailed(f"{path}: {len(raw)} bytes for dim {int(dim)}")
    return np.frombuffer(raw, "<f8", int(dim), 16).astype(np.float64)


def write_mmmx(m: np.ndarray, path) -> None:
    """MMMX: b"MMMX" | u32 version (=1) | u64 rows | u64 cols | row-major float64 LE."""
    header = b"MMMX" + np.array([1], "<u4").tobytes() + np.array(m.shape, "<u8").tobytes()
    Path(path).write_bytes(header + np.ascontiguousarray(m, "<f8").tobytes())


def read_report(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise CheckFailed(f"{path}: unreadable report ({e})") from e


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _all_finite(value) -> bool:
    """True when every number nested in lists and dicts is finite."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return False


class Workload:
    """One benchmark workload; subclasses fill in setup, argvs and check."""

    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        # Each workload draws from its own stream of the benchmark seed, keyed
        # by its name so that adding a workload changes no other's inputs.
        self.rng = np.random.default_rng([seed, *self.name.encode()])

    def setup(self) -> None:
        """Write this workload's inputs under ``inputs/``."""
        raise NotImplementedError

    def label(self, i: int) -> str:
        """Name of the input set op ``i`` runs on; equal labels give equal outputs."""
        raise NotImplementedError

    def argvs(self, i: int, out: str) -> list[list[str]]:
        """The CLI argument lists of op ``i``, run in order, writing under ``out``."""
        raise NotImplementedError

    def check(self, i: int, out: Path) -> dict:
        """Raise CheckFailed unless op ``i``'s outputs under ``out`` are correct.

        Returns informational notes that are recorded but not gated.
        """
        raise NotImplementedError

    def _manifest(self, data: dict) -> None:
        """Record the drawn inputs, in memory for argvs and check, and on disk."""
        self.inputs = data
        INPUTS.mkdir(parents=True, exist_ok=True)
        (INPUTS / "manifest.json").write_text(json.dumps(data, indent=2, sort_keys=True))


class Saturate(Workload):
    name = "saturate-d3000"
    why = (
        "one dense 3000x3000 Haar QR plus an O(D^3) orthonormality check per op; "
        "no code reads that basis, so it exercises lazy-basis work"
    )
    DIMENSION = 3000
    N_EXPERTS = 10
    N_CONFIGS = 3

    def setup(self) -> None:
        configs = []
        for j in range(self.N_CONFIGS):
            cfg = {
                "seed": int(self.rng.integers(2**31)),
                "dimension": self.DIMENSION,
                "n_experts": self.N_EXPERTS,
                "sigma2": float(self.rng.uniform(0.5, 2.0)),
                "rho": float(self.rng.uniform(0.2, 0.8)),
                "delta": float(self.rng.uniform(0.02, 0.1)),
                "epsilon": float(self.rng.uniform(0.1, 1.0)),
                "spectrum": {
                    "kind": ("uniform", "geometric")[j % 2],
                    "condition_number": float(self.rng.uniform(10.0, 1000.0)),
                },
            }
            configs.append(cfg)
        self._manifest({"configs": configs})
        for j, cfg in enumerate(configs):
            (INPUTS / f"saturate_{j}.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))

    def label(self, i: int) -> str:
        return f"config-{i % self.N_CONFIGS}"

    def argvs(self, i: int, out: str) -> list[list[str]]:
        cfg = str(INPUTS / f"saturate_{i % self.N_CONFIGS}.json")
        return [["saturate", "--config", cfg, "--format", "json", "--out", out]]

    def check(self, i: int, out: Path) -> dict:
        cfg = self.inputs["configs"][i % self.N_CONFIGS]
        rep = read_report(out / "saturation.json")
        check_saturation(rep, cfg)
        return {}


def check_saturation(rep: dict, cfg: dict) -> None:
    s2, rho, d = cfg["sigma2"], cfg["rho"], cfg["dimension"]
    cols = rep.get("columns", [])
    rows = [dict(zip(cols, r)) for r in rep.get("rows", [])]
    _require(rep.get("kind") == "saturation", "report kind is not saturation")
    _require([r.get("n") for r in rows] == list(range(1, cfg["n_experts"] + 1)),
             "rows do not cover n = 1..n_experts")
    spec = cfg["spectrum"]
    lam = (np.ones(d) if spec["kind"] == "uniform"
           else np.geomspace(1.0 / spec["condition_number"], 1.0, d))
    for r in rows:
        n = r["n"]
        analytic = s2 * (rho + (1.0 - rho) / n)
        _require(_close(r["var_analytic"], analytic, 1e-12),
                 f"n={n}: var_analytic {r['var_analytic']!r} != {analytic!r}")
        # var_mc is a sample variance over D coordinates; its stderr is in the report.
        _require(abs(r["var_mc"] - analytic) <= 5.0 * r["var_mc_stderr"],
                 f"n={n}: |var_mc - var_analytic| exceeds 5 stderr")
        width = math.sqrt(2.0 * cfg["epsilon"] * float(np.sum(1.0 / lam[: min(n, d)])))
        _require(_close(r["width"], width, 1e-10), f"n={n}: width {r['width']!r} != {width!r}")
    x = s2 * (1.0 - rho) / cfg["delta"]
    # Within 1e-9 of an integer the floor may legitimately round either way.
    allowed = {math.floor(x)} | ({round(x)} if abs(x - round(x)) < 1e-9 else set())
    _require(rep.get("extra", {}).get("n_max") in allowed,
             f"n_max {rep.get('extra', {}).get('n_max')!r} not in {sorted(allowed)}")


class Kinematics(Workload):
    name = "kinematics-d60"
    why = (
        "tens of thousands of small 60x60 Haar QRs in a Python loop: the same geometry "
        "kernel as saturate, but many small calls instead of one big one"
    )
    N_SEEDS = 3

    def setup(self) -> None:
        seeds = [int(s) for s in self.rng.integers(2**31, size=self.N_SEEDS)]
        self._manifest({"seeds": seeds})

    def label(self, i: int) -> str:
        return f"seed-{i % self.N_SEEDS}"

    def argvs(self, i: int, out: str) -> list[list[str]]:
        seed = str(self.inputs["seeds"][i % self.N_SEEDS])
        common = ["--trials", "500", "--seed", seed, "--format", "json"]
        return [
            # The README's own invocation: cone of half-angle 30 degrees, k = 1..60.
            ["kinematics", "--dim", "60", "--half-angle-deg", "30", *common, "--out", f"{out}/cone"],
            ["kinematics", "--dim", "60", "--subspace-dim", "20", "--k-step", "3", *common,
             "--out", f"{out}/subspace"],
        ]

    def check(self, i: int, out: Path) -> dict:
        check_cone_sweep(read_report(out / "cone" / "kinematics.json"))
        check_subspace_sweep(read_report(out / "subspace" / "kinematics.json"))
        return {}


def cone_crossing_tolerance(dim: int, half_angle: float, trials: int, statdim: float,
                            statdim_stderr: float) -> float:
    """How far crossing_k may sit from dim - statdim for a correct program.

    One step of k for the integer crossing, five stderr of the Monte-Carlo
    statistical dimension, and the shift in k that five binomial stderr of
    an estimated probability cause at the exact curve's slope. Exactly,
    P(hit) = P(Beta(k/2, (D-k)/2) >= cos^2 a) for a Haar k-subspace.
    """
    c2 = math.cos(half_angle) ** 2
    k = min(max(dim - statdim, 2.0), dim - 2.0)
    slope = (stats.beta.sf(c2, (k + 1) / 2, (dim - k - 1) / 2)
             - stats.beta.sf(c2, (k - 1) / 2, (dim - k + 1) / 2)) / 2.0
    return 1.0 + 5.0 * statdim_stderr + 5.0 * math.sqrt(0.25 / trials) / slope


def check_cone_sweep(rep: dict) -> None:
    ex = rep.get("extra", {})
    dim = ex.get("dim")
    ks = [r[0] for r in rep.get("rows", [])]
    ps = [r[1] for r in rep.get("rows", [])]
    _require(ks == list(range(1, dim + 1)), "cone sweep does not cover k = 1..dim")
    _require(all(0.0 <= p <= 1.0 for p in ps), "cone sweep probability outside [0, 1]")
    crossing = ex.get("crossing_k")
    _require(crossing is not None, "cone sweep has no crossing")
    tol = cone_crossing_tolerance(dim, ex["half_angle"], ex["trials"], ex["statdim"],
                                  ex["statdim_stderr"])
    _require(abs(crossing - ex["predicted_crossing"]) <= tol,
             f"crossing_k {crossing} is more than {tol:.2f} from {ex['predicted_crossing']}")


def check_subspace_sweep(rep: dict) -> None:
    ex = rep.get("extra", {})
    dim, k1 = ex.get("dim"), ex.get("subspace_dim")
    rows = rep.get("rows", [])
    _require([r[0] for r in rows] == list(range(1, dim + 1, 3)),
             "subspace sweep does not cover k = 1, 4, ..., dim")
    for k, p in rows:
        # Two subspaces in general position meet iff k1 + k > D.
        _require(p == (1.0 if k + k1 > dim else 0.0), f"k={k}: probability {p!r}")


class RhtStudy(Workload):
    name = "rht-study-d500"
    why = (
        "short ops dominated by the per-sample coverage_proxy forward loop; the only "
        "workload that reads the Hessian basis, through QuadraticTask.loss"
    )
    N_SEEDS = 20

    def setup(self) -> None:
        base = int(self.rng.integers(2**31 - self.N_SEEDS))
        self._manifest({"seeds": list(range(base, base + self.N_SEEDS))})

    def label(self, i: int) -> str:
        return f"seed-{i % self.N_SEEDS}"

    def argvs(self, i: int, out: str) -> list[list[str]]:
        seed = str(self.inputs["seeds"][i % self.N_SEEDS])
        return [["rht-study", "--seed", seed, "--format", "json", "--out", out]]

    def check(self, i: int, out: Path) -> dict:
        check_rht_study(read_report(out / "rht_study.json"))
        return {}


def check_rht_study(rep: dict) -> None:
    _require(rep.get("kind") == "rht_study", "report kind is not rht_study")
    _require(len(rep.get("rows", [])) > 0, "rht study has no rows")
    _require(_all_finite(rep.get("rows")) and _all_finite(rep.get("extra")),
             "rht study has a non-finite number")
    ex = rep["extra"]
    _require(ex["coverage_rht"] > ex["coverage_gaussian"],
             f"coverage_rht {ex['coverage_rht']!r} <= coverage_gaussian {ex['coverage_gaussian']!r}")


class ExpertPipeline(Workload):
    name = "expert-pipeline"
    why = (
        "gen-experts, merge, rht and subspace chained on files: SVDs and MMPV/MMMX I/O, "
        "never geometry, so geometry work should leave it unchanged"
    )
    SIDE = 512
    N_EXPERTS = 16
    RANK = 8
    MATRIX = 2000
    MATRIX_RANK = 8

    def setup(self) -> None:
        cfg = {
            "seed": int(self.rng.integers(2**31)),
            "dimension": self.SIDE * self.SIDE,
            "n_experts": self.N_EXPERTS,
            "rank": self.RANK,
        }
        self._manifest({"config": cfg})
        (INPUTS / "experts.json").write_text(json.dumps(cfg, indent=2, sort_keys=True))
        left = self.rng.normal(size=(self.MATRIX, self.MATRIX_RANK))
        right = self.rng.normal(size=(self.MATRIX_RANK, self.MATRIX))
        # A fixed-order sum of outer products is exact elementwise arithmetic,
        # so the file is bit-identical whatever BLAS kernel the machine picks.
        stacked = np.zeros((self.MATRIX, self.MATRIX))
        for r in range(self.MATRIX_RANK):
            stacked += np.outer(left[:, r], right[r])
        write_mmmx(stacked, INPUTS / "stacked.mmmx")

    def label(self, i: int) -> str:
        return "pipeline"

    def argvs(self, i: int, out: str) -> list[list[str]]:
        cfg = str(INPUTS / "experts.json")
        experts = [f"{out}/experts/expert_{j:03d}.mmpv" for j in range(self.N_EXPERTS)]
        return [
            ["gen-experts", "--low-rank", "--config", cfg, "--out", f"{out}/experts"],
            ["merge", *experts, "--out", out],
            ["rht", f"{out}/merged.mmpv", "--config", cfg, "--out", out],
            ["subspace", str(INPUTS / "stacked.mmmx"), "--format", "json", "--out", out],
        ]

    def check(self, i: int, out: Path) -> dict:
        experts = [read_mmpv(out / "experts" / f"expert_{j:03d}.mmpv")
                   for j in range(self.N_EXPERTS)]
        _require(all(e.size == self.SIDE * self.SIDE for e in experts), "expert of wrong size")
        return check_pipeline(experts, read_mmpv(out / "merged.mmpv"),
                              read_mmpv(out / "rht.mmpv"), read_report(out / "subspace.json"),
                              self.MATRIX_RANK)


def check_pipeline(experts, merged, transformed, subspace_report, rank: int) -> dict:
    mean = np.mean(np.stack(experts), axis=0)
    _require(merged.shape == mean.shape, "merged vector has the wrong length")
    scale = max(1.0, float(np.max(np.abs(mean))))
    _require(float(np.max(np.abs(merged - mean))) <= 1e-12 * scale,
             "merged.mmpv differs from the mean of the experts")
    _require(transformed.shape == merged.shape, "rht.mmpv has the wrong length")
    _require(bool(np.all(np.isfinite(transformed))), "rht.mmpv has a non-finite entry")
    ex = subspace_report.get("extra", {})
    _require(ex.get("components_for_95pct") == rank,
             f"components_for_95pct {ex.get('components_for_95pct')!r} != {rank}")
    # Not gated: pca_explained counts round-off singular values as rank.
    return {"subspace_reported_rank": ex.get("rank")}


WORKLOADS = {w.name: w for w in (Saturate, Kinematics, RhtStudy, ExpertPipeline)}
