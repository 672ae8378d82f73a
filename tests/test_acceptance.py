"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the acceptance status is scannable
from the captured output even in a long run. Pinned regression values were
produced by the shipped default configuration at first computation.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from mergelimits import geometry, merge, rht, subspace
from mergelimits.experiments import ExperimentConfig, run_saturation
from mergelimits.geometry import CircularCone, QuadraticTask, haar_orthogonal
from mergelimits.tensorio import RngStream


def _record(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}", flush=True)
    assert ok, f"{name}{suffix}"


def _variance_sweep():
    """Shared-factor MC variances for rho in {0, 0.3, 0.7}, n = 1..10."""
    draws = 10**6
    out = {}
    for si, rho in enumerate((0.0, 0.3, 0.7)):
        gen = RngStream(90, si).generator()
        z0 = gen.normal(size=draws)
        zs = gen.normal(size=(10, draws))
        experts = math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * zs
        running = np.zeros(draws)
        for n in range(1, 11):
            running += experts[n - 1]
            mean = running / n
            var = float(mean.var())
            stderr = var * math.sqrt(2.0 / (draws - 1))
            out[(rho, n)] = (var, stderr)
    return out


@pytest.fixture(scope="module")
def variance_sweep():
    start = time.monotonic()
    sweep = _variance_sweep()
    return sweep, time.monotonic() - start


def test_criterion_01_variance_law(variance_sweep):
    sweep, elapsed = variance_sweep
    worst = 0.0
    for (rho, n), (var, _) in sweep.items():
        target = merge.merged_variance_equicorrelated(1.0, rho, n)
        worst = max(worst, abs(var - target) / target)
    ok = worst <= 0.02 and elapsed < 60.0
    _record("01 variance law", ok, f"worst rel err {worst:.4f}, {elapsed:.1f}s")


def test_criterion_02_variance_lower_bound(variance_sweep):
    sweep, _ = variance_sweep
    ok = all(
        var >= merge.variance_limit(1.0, rho) - 3 * se
        for (rho, _), (var, se) in sweep.items()
    )
    _record("02 variance lower bound", ok)


def test_criterion_03_n_max():
    ok = merge.n_max(1.0, 0.5, 0.1) == 5
    gen = RngStream(91, 0).generator()
    for _ in range(100):
        sigma2 = float(gen.uniform(0.1, 10.0))
        rho = float(gen.uniform(0.0, 0.99))
        delta = float(gen.uniform(0.001, 1.0))
        n = merge.n_max(sigma2, rho, delta)
        if n > 0:
            ok &= sigma2 * (1 - rho) / n >= delta * (1 - 1e-9)
        ok &= sigma2 * (1 - rho) / (n + 1) < delta * (1 + 1e-9)
    _record("03 n_max bound", ok)


def _random_task(gen, max_dim=200, condition=100.0):
    dim = int(gen.integers(2, max_dim + 1))
    lam = np.sort(np.exp(gen.uniform(0.0, math.log(condition), size=dim)))
    lam /= lam.max()
    return QuadraticTask(gen.normal(size=dim), lam, np.eye(dim), 0.5)


def test_criterion_04_width_jensen_vs_mc():
    gen = RngStream(92, 0).generator()
    ok = True
    for trial in range(100):
        task = _random_task(gen)
        mc, se = geometry.width_mc(task, 2000, RngStream(92, 1 + trial))
        ok &= mc <= geometry.width_jensen(task, task.dim) + 3 * se
    iso = QuadraticTask(np.zeros(400), np.ones(400), np.eye(400), 0.5)
    mc, _ = geometry.width_mc(iso, 40_000, RngStream(92, 200))
    rel = abs(mc - 20.0) / 20.0
    ok &= rel <= 0.005
    _record("04 width bound and isotropic value", ok, f"isotropic rel err {rel:.4f}")


def test_criterion_05_marginal_gains_concave():
    gen = RngStream(93, 0).generator()
    violations = 0
    for _ in range(100):
        task = _random_task(gen, condition=float(gen.uniform(1.5, 1000.0)))
        gains = geometry.marginal_gains(task, task.dim)
        violations += int(not np.all(np.diff(gains) < 0))
    _record("05 diminishing width gains", violations == 0, f"{violations} violations")


def test_criterion_06_redundancy_boundary():
    d = 30
    task = QuadraticTask(np.zeros(d), np.ones(d), np.eye(d), 0.5)
    ok = all(
        abs(geometry.projected_width_sq(task, task.theta_star, k) - (d - k)) < 1e-10
        for k in range(d)
    )
    direction = np.ones(d) / math.sqrt(d)
    vals = [geometry.projected_width_sq(task, t * direction, 5) for t in np.linspace(0, 4, 50)]
    ok &= all(a > b for a, b in zip(vals, vals[1:]))
    _record("06 redundancy boundary", ok)


def test_criterion_07_kinematic_transition():
    start = time.monotonic()
    d1, k1 = 40, 13
    ok = True
    for k2 in range(1, d1 + 1):
        p = geometry.kinematics_transition(d1, k1, k2, 200, RngStream(94, k2))
        ok &= p == (1.0 if k1 + k2 > d1 else 0.0)

    d = 60
    margin = math.ceil(2 * math.sqrt(d))
    details = []
    for ai, deg in enumerate((20, 30, 45)):
        cone = CircularCone(d, math.radians(deg))
        statdim, _ = geometry.statdim_cone_mc(cone, 50_000, RngStream(95, ai))
        predicted = d - statdim
        crossing = None
        for k in range(1, d + 1):
            p = geometry.kinematics_transition(d, cone, k, 500, RngStream(96, 100 * ai + k))
            if p >= 0.5:
                crossing = k
                break
        ok &= crossing is not None and abs(crossing - predicted) <= margin
        details.append(f"{deg}deg: crossing {crossing} vs {predicted:.1f}")
    elapsed = time.monotonic() - start
    ok &= elapsed < 300.0
    _record("07 kinematic transition", ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_08_difference_variance():
    ok = True
    details = []
    for si, (sigma, sigma_g) in enumerate(((1.0, 0.5), (1.0, 0.1), (2.0, 1.0))):
        w = RngStream(97, si).generator().normal(size=10**6) * sigma
        out = rht.gaussian_difference(w, 0.0, sigma_g, RngStream(98, si))
        target = sigma**2 + sigma_g**2
        rel = abs(out.var() - target) / target
        ok &= rel <= 0.01
        details.append(f"({sigma},{sigma_g}): {rel:.4f}")
    _record("08 difference variance", ok, "; ".join(details))


def test_criterion_09_heavy_tail_distribution():
    ok = True
    details = []
    for gi, gamma in enumerate((0.3, 0.5, 0.8)):
        p = rht.RHTParams(gamma=gamma, alpha=0.0)
        x = RngStream(99, gi).generator().normal(size=10**6)
        y = rht.rht_map(x, p)
        ks = stats.kstest(y, lambda t: rht_cdf_wrap(t, p)).statistic
        ok &= ks <= 0.02
        roundtrip = max(
            abs(rht.rht_map(rht.rht_inverse(v, p), p) - v) for v in y[:2000]
        )
        ok &= roundtrip <= 1e-9
        diag = rht.tail_diagnostics(y)
        details.append(
            f"g={gamma}: ks {ks:.4f}, roundtrip {roundtrip:.1e}, "
            f"hill {diag.hill_exponent:.2f} kurt {diag.excess_kurtosis:.1f} [reported]"
        )
    _record("09 heavy-tail law", ok, "; ".join(details))


def rht_cdf_wrap(t, params):
    return rht.rht_cdf(t, 1.0, params)


def test_criterion_10_coverage_regression():
    cfg = ExperimentConfig()
    c1a, _ = rht.coverage_proxy("gaussian", 2000, RngStream(cfg.seed, 50))
    c1b, _ = rht.coverage_proxy("gaussian", 2000, RngStream(cfg.seed, 50))
    c2a, _ = rht.coverage_proxy("rht", 2000, RngStream(cfg.seed, 50), rht_params=cfg.rht_params)
    c2b, _ = rht.coverage_proxy("rht", 2000, RngStream(cfg.seed, 50), rht_params=cfg.rht_params)
    ok = c1a == c1b and c2a == c2b
    # Regression pins from the first computation at the default config.
    ok &= c1a == pytest.approx(4.594022321683386, rel=1e-9)
    ok &= c2a == pytest.approx(5.641327004972824, rel=1e-9)
    ok &= c2a > c1a
    _record("10 coverage regression", ok, f"C1 {c1a:.6f}, C2 {c2a:.6f}, C2>C1 {c2a > c1a}")


def test_criterion_11_saturation_end_to_end():
    start = time.monotonic()
    rep = run_saturation(ExperimentConfig(seed=0))
    elapsed = time.monotonic() - start
    ok = rep.extra["stop_n_successive"] == 3
    ok &= rep.extra["n_max"] == 10
    losses = [row[4] for row in rep.rows]
    ok &= all(a >= b for a, b in zip(losses, losses[1:]))
    ok &= elapsed < 120.0
    _record(
        "11 saturation end-to-end",
        ok,
        f"stop {rep.extra['stop_n_successive']}, n_max {rep.extra['n_max']}, {elapsed:.1f}s",
    )


def test_criterion_12_subspace_diagnostics():
    # Principal-angle reference cases.
    ok = np.allclose(
        subspace.principal_angles(np.eye(4)[:, :2], np.eye(4)[:, 2:]), [90.0, 90.0], atol=1e-8
    )
    ok &= np.allclose(
        subspace.principal_angles(np.eye(3)[:, :2], np.eye(3)[:, 1:]), [0.0, 90.0], atol=1e-6
    )
    b45 = np.array([[1.0], [1.0]]) / math.sqrt(2)
    ok &= abs(subspace.principal_angles(np.eye(2)[:, :1], b45)[0] - 45.0) < 1e-8

    # Planted spectrum: band fractions within one count.
    gen = RngStream(100, 0).generator()
    planted = np.zeros(subspace.N_LOG_BANDS + 2, dtype=np.int64)
    vals = []
    for band in range(subspace.N_LOG_BANDS):
        n = int(gen.integers(1, 5))
        planted[1 + band] = n
        lo, hi = math.exp(-(band + 1)), math.exp(-band)
        vals.extend(gen.uniform(lo * 1.01, hi * 0.99, size=n))
    rep = subspace.sv_tail_stats(np.diag(np.array(vals)))
    ok &= bool(np.all(np.abs(rep.counts_per_log_band - planted) <= 1))

    # Rank-r synthetic data needs at most r components at 99.9%.
    r = 5
    m = gen.normal(size=(12, r)) @ gen.normal(size=(r, 60))
    pca = subspace.pca_explained(m)
    ok &= subspace.components_for_threshold(pca, 0.999) <= r
    _record("12 subspace diagnostics", ok)
