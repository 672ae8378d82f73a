import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from mergelimits.errors import ConfigError, NumericError
from mergelimits.rht import (
    RHTParams,
    TinyNetSpec,
    apply_rht,
    coverage_proxy,
    gaussian_difference,
    rht_cdf,
    rht_density,
    rht_inverse,
    rht_map,
    tail_diagnostics,
)
from mergelimits.tensorio import RngStream


class TestParams:
    def test_defaults_valid(self):
        p = RHTParams()
        assert p.gamma == 0.5

    def test_rejects_bad_ranges(self):
        with pytest.raises(ConfigError):
            RHTParams(gamma=1.0)
        with pytest.raises(ConfigError):
            RHTParams(gamma=0.0)
        with pytest.raises(ConfigError):
            RHTParams(beta=0.0)
        with pytest.raises(ConfigError):
            RHTParams(alpha=-0.1)

    def test_rejects_non_monotone(self):
        # Large alpha with moderate beta makes T dip after the boost decays.
        with pytest.raises(ConfigError):
            RHTParams(gamma=0.1, alpha=200.0, beta=5.0)

    @pytest.mark.parametrize("beta", [1e-6, 1e12])
    def test_rejects_dip_at_any_beta(self, beta):
        # T dips where beta x = 1 + gamma, at whatever scale of x that falls.
        with pytest.raises(ConfigError):
            RHTParams(gamma=0.5, alpha=5.0, beta=beta)

    @pytest.mark.parametrize("gamma", [0.01, 0.5, 0.99])
    def test_alpha_bound_is_exact(self, gamma):
        bound = gamma * math.exp(1.0 + gamma)
        RHTParams(gamma=gamma, alpha=bound)
        with pytest.raises(ConfigError):
            RHTParams(gamma=gamma, alpha=float(np.nextafter(bound, np.inf)))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(0.0, 1.0), st.floats(-8.0, 8.0))
    def test_accepted_params_are_increasing(self, gamma, frac, log_beta):
        alpha = frac * 0.999 * gamma * math.exp(1.0 + gamma)
        p = RHTParams(gamma=gamma, alpha=alpha, beta=10.0**log_beta)
        # u = beta x spans the dip at u = 1 + gamma by two decades each side.
        xs = np.geomspace(1e-2, 1e2, 4001) / p.beta
        assert np.all(np.diff(rht_map(xs, p)) > 0)


class TestMap:
    def test_zero(self):
        assert rht_map(0.0, RHTParams()) == 0.0

    def test_hand_value(self):
        p = RHTParams(gamma=0.5, alpha=1.0, beta=1.0)
        assert rht_map(1.0, p) == pytest.approx(1.0 + math.exp(-1), abs=1e-12)

    def test_pure_power(self):
        p = RHTParams(gamma=0.5, alpha=0.0)
        assert rht_map(0.25, p) == pytest.approx(0.5, abs=1e-15)

    def test_odd_and_increasing(self):
        p = RHTParams()
        xs = np.linspace(-20, 20, 10_001)
        ys = rht_map(xs, p)
        assert np.array_equal(ys, -rht_map(-xs, p)[...])
        assert np.all(np.diff(ys) > 0)
        assert xs.tobytes() == np.linspace(-20, 20, 10_001).tobytes()


class TestInverse:
    def test_zero(self):
        assert rht_inverse(0.0, RHTParams()) == 0.0

    def test_hand_value(self):
        p = RHTParams(gamma=0.5, alpha=1.0, beta=1.0)
        assert rht_inverse(1.0 + math.exp(-1), p) == pytest.approx(1.0, abs=1e-9)

    def test_roundtrip_random(self):
        p = RHTParams(gamma=0.4, alpha=0.8, beta=2.0)
        ys = RngStream(50, 0).generator().normal(size=10_000) * 5
        worst = max(abs(rht_map(rht_inverse(y, p), p) - y) for y in ys)
        assert worst <= 1e-9


class TestGaussianDifference:
    def test_zero_spread_is_shift(self):
        w = np.array([1.0, 2.0, 3.0])
        out = gaussian_difference(w, 2.0, 0.0, RngStream(51, 0))
        assert np.array_equal(out, w - 2.0)

    def test_zero_spread_draw_is_degenerate(self):
        out = gaussian_difference(np.zeros(5), 3.0, 0.0, RngStream(0, 0))
        assert np.array_equal(out, np.full(5, -3.0))

    def test_variance_additivity(self):
        w = RngStream(51, 1).generator().normal(size=10**6)
        out = gaussian_difference(w, 0.0, 0.5, RngStream(51, 2))
        assert abs(out.mean()) < 0.01
        assert out.var() == pytest.approx(1.25, rel=0.01)
        assert w.tobytes() == RngStream(51, 1).generator().normal(size=10**6).tobytes()

    def test_streams_differ_but_agree_statistically(self):
        w = RngStream(51, 3).generator().normal(size=200_000)
        a = gaussian_difference(w, 0.0, 1.0, RngStream(51, 4))
        b = gaussian_difference(w, 0.0, 1.0, RngStream(51, 5))
        assert not np.array_equal(a, b)
        stderr = math.sqrt(2.0 / a.size) * 2.0  # var of each is 2
        assert abs(a.var() - b.var()) < 3 * math.sqrt(2) * stderr

    def test_subtracted_draw_moments(self):
        n = 10**6
        g = -gaussian_difference(np.zeros(n), 0.0, 1.0, RngStream(1, 0))
        assert abs(g.mean()) < 4 / np.sqrt(n)
        assert abs(g.std() - 1.0) < 0.01

    def test_deterministic_per_stream(self):
        w = np.zeros(1000)
        a = gaussian_difference(w, 0.0, 1.0, RngStream(42, 3))
        b = gaussian_difference(w, 0.0, 1.0, RngStream(42, 3))
        assert np.array_equal(a, b)
        c = gaussian_difference(w, 0.0, 1.0, RngStream(42, 4))
        assert not np.array_equal(a, c)

    def test_negative_spread_rejected(self):
        with pytest.raises(ConfigError):
            gaussian_difference(np.zeros(10), 0.0, -1.0, RngStream(0, 0))


class TestApply:
    def test_identity_limit(self):
        p = RHTParams(gamma=0.999, alpha=0.0, sigma_g_ratio=0.0)
        w = RngStream(52, 0).generator().normal(size=10_000)
        out = apply_rht(w, p, RngStream(52, 1))
        centered = w - w.mean()
        assert np.max(np.abs(out - centered)) < 1e-2
        assert w.tobytes() == RngStream(52, 0).generator().normal(size=10_000).tobytes()

    def test_matches_analytic_density(self):
        p = RHTParams(gamma=0.5, alpha=0.0, sigma_g_ratio=0.1)
        w = RngStream(52, 2).generator().normal(size=10**6)
        out = apply_rht(w, p, RngStream(52, 3))
        sigma2_total = w.var() * (1 + p.sigma_g_ratio**2)
        ks = stats.kstest(out, lambda t: rht_cdf(t, sigma2_total, p)).statistic
        assert ks <= 0.02

    def test_constant_input_finite(self):
        out = apply_rht(np.full(100, 3.7), RHTParams(), RngStream(52, 4))
        assert np.all(np.isfinite(out))

    def test_overflowing_std_rejected_before_drawing(self):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew noise for a w whose std overflows")

        w = np.array([1e200, -1e200, 3e200])
        with pytest.raises(NumericError, match="non-finite std"):
            apply_rht(w, RHTParams(), NoDraws())

    def test_empty_vector_rejected_before_drawing(self):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew noise for an empty w")

        with pytest.raises(ConfigError, match="empty vector"):
            apply_rht(np.zeros(0), RHTParams(), NoDraws())


class TestDensity:
    def test_symmetry(self):
        p = RHTParams(gamma=0.5, alpha=0.0)
        for y in (0.1, 0.7, 2.0):
            assert rht_density(y, 1.0, p) == rht_density(-y, 1.0, p)

    @pytest.mark.parametrize("sigma2", [0.1, 1.3, 10.0])
    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_normalized(self, gamma, sigma2):
        p = RHTParams(gamma=gamma, alpha=0.0)
        total, _ = integrate.quad(lambda t: rht_density(t, sigma2, p), -np.inf, np.inf, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.8])
    def test_ks_against_samples(self, gamma):
        p = RHTParams(gamma=gamma, alpha=0.0)
        x = RngStream(53, int(gamma * 10)).generator().normal(size=10**6)
        y = rht_map(x, p)
        ks = stats.kstest(y, lambda t: rht_cdf(t, 1.0, p)).statistic
        assert ks <= 0.02

    def test_gamma_near_one_recovers_gaussian(self):
        p = RHTParams(gamma=0.999, alpha=0.0)
        x = RngStream(53, 99).generator().normal(size=200_000)
        y = rht_map(x, p)
        ks = stats.kstest(y, stats.norm.cdf).statistic
        assert ks <= 0.02

    def test_requires_pure_power(self):
        with pytest.raises(ConfigError):
            rht_density(1.0, 1.0, RHTParams(alpha=0.5))


class TestTailDiagnostics:
    def test_gaussian_baseline(self):
        x = RngStream(54, 0).generator().normal(size=10**6)
        rep = tail_diagnostics(x)
        assert abs(rep.excess_kurtosis) < 0.1

    def test_pareto_hill_exponent(self):
        # Inverse-CDF Pareto with known tail exponent 2.
        u = RngStream(54, 1).generator().random(size=10**6)
        x = u ** (-1.0 / 2.0)
        rep = tail_diagnostics(x)
        assert rep.hill_exponent == pytest.approx(2.0, abs=0.1)

    def test_rht_output_reported_not_asserted(self):
        p = RHTParams()
        w = RngStream(54, 2).generator().normal(size=50_000)
        out = apply_rht(w, p, RngStream(54, 3))
        rep = tail_diagnostics(out)
        # Values recorded only; no sign or magnitude claims.
        assert math.isfinite(rep.excess_kurtosis)
        assert rep.hill_exponent > 0

    def test_kurtosis_has_the_bits_of_scipy(self):
        p = RHTParams()
        gen = RngStream(54, 7).generator()
        vectors = [apply_rht(gen.normal(size=10_000) * s, p, RngStream(54, 8)) for s in (0.3, 1.0, 4.0)]
        vectors += [gen.standard_t(df, size=20_000) * scale + shift
                    for df in (3, 5, 30) for scale, shift in ((1e-3, 0.0), (1.0, 5.0), (1e3, -2.0))]
        for x in vectors:
            assert tail_diagnostics(x).excess_kurtosis == float(stats.kurtosis(x))

    def test_cancellation_is_a_numeric_error(self):
        # Every |x - mean| is below 10 eps |mean|: scipy warns of catastrophic
        # cancellation, so no number is reported.
        x = 1e6 + RngStream(54, 6).generator().normal(size=10_000) * 3e-10
        with pytest.warns(RuntimeWarning, match="catastrophic cancellation"):
            stats.kurtosis(x)
        with pytest.raises(NumericError, match="cancellation"):
            tail_diagnostics(x)

    def test_unresolved_variance_is_a_numeric_error(self):
        # One value 50 eps above the rest: m2 <= (eps mean)^2, where scipy
        # returns NaN without a warning.
        x = np.ones(10_000)
        x[-1] += 50 * np.finfo(np.float64).eps
        assert math.isnan(stats.kurtosis(x))
        with pytest.raises(NumericError, match="cancellation"):
            tail_diagnostics(x)

    def test_too_few_samples(self):
        with pytest.raises(ConfigError):
            tail_diagnostics(np.ones(100))

    def test_constant_input_is_degenerate(self):
        # Every top order statistic equals the threshold: log ratios are all 0.
        with pytest.raises(NumericError, match="degenerate tail"):
            tail_diagnostics(np.full(10_000, 2.5))

    @pytest.mark.parametrize("zeros", [9_500, 9_999])
    def test_mostly_zero_input_has_no_positive_threshold(self, zeros):
        # With >= 95 % zeros the order statistic below the top 5 % is 0.
        x = np.zeros(10_000)
        x[zeros:] = RngStream(54, 5).generator().normal(size=10_000 - zeros)
        with pytest.raises(ConfigError, match="tail threshold"):
            tail_diagnostics(x)


def reference_forward(params, inputs):
    """One parameter vector through the 2-8-1 network, one 2-D matmul per layer."""
    h = np.tanh(inputs @ params[:16].reshape(2, 8) + params[16:24])
    return (h @ params[24:32].reshape(8, 1) + params[32:])[:, 0]


def reference_coverage(net, sampler, n_samples, stream):
    """coverage_proxy with a per-sample forward loop over the same draws."""
    draws = stream.generator().normal(size=(n_samples, net.param_count))
    if sampler == "rht":
        p = RHTParams()
        flat = gaussian_difference(
            draws.reshape(-1), 0.0, p.sigma_g_ratio * float(draws.std()), stream.substream(0)
        )
        draws = rht_map(flat, p).reshape(n_samples, net.param_count)
    outputs = np.stack([reference_forward(d, net.grid()) for d in draws])
    return (
        float(outputs.var(axis=0).mean()),
        float((outputs.max(axis=0) - outputs.min(axis=0)).mean()),
    )


class TestForward:
    def test_stack_equals_per_vector_reference(self):
        net = TinyNetSpec()
        grid = net.grid()
        draws = 3.0 * RngStream(56, 3).generator().normal(size=(300, net.param_count))
        ref = np.stack([reference_forward(d, grid) for d in draws])
        assert np.array_equal(net.forward(draws, grid), ref)
        # A row alone gives the same outputs as within the stack.
        assert all(np.array_equal(net.forward(draws[i : i + 1], grid)[0], ref[i]) for i in range(20))

    def test_leaves_its_inputs_unchanged(self):
        net = TinyNetSpec()
        grid = net.grid()
        draws = RngStream(56, 4).generator().normal(size=(5, net.param_count))
        before = draws.tobytes(), grid.tobytes()
        net.forward(draws, grid)
        assert (draws.tobytes(), grid.tobytes()) == before

    @pytest.mark.parametrize(
        "shape", [(), (32,), (33,), (3, 32), (3, 34), (2, 3, 33)],
        ids=["scalar", "short-vector", "vector", "narrow-stack", "wide-stack", "3-d"],
    )
    def test_bad_shape_config_error(self, shape):
        net = TinyNetSpec()
        assert net.param_count == 33
        with pytest.raises(ConfigError):
            net.forward(np.zeros(shape), net.grid())

    # "vector" is one parameter vector as a one-row stack; a 1-D input is a ConfigError above.
    @pytest.mark.parametrize("shape", [(1, 33), (4, 33)], ids=["vector", "stack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_numeric_error(self, shape, bad):
        net = TinyNetSpec()
        params = np.zeros(shape)
        params.reshape(-1)[-1] = bad
        with pytest.raises(NumericError):
            net.forward(params, net.grid())


class TestCoverageProxy:
    @pytest.mark.parametrize("sampler", ["gaussian", "rht"])
    @pytest.mark.parametrize("n_samples", [1000, 2000, 1300])
    def test_equals_per_sample_reference(self, sampler, n_samples):
        net = TinyNetSpec()
        for seed in range(3):
            stream = RngStream(seed, 50)
            assert coverage_proxy(sampler, n_samples, stream) == reference_coverage(
                net, sampler, n_samples, stream
            )

    @pytest.mark.parametrize("sampler", ["gaussian", "rht"])
    def test_peak_is_draws_and_two_output_arrays(self, sampler):
        # The (n, 33) draws, the (n, 64) outputs and var's one temporary of
        # their size; the forward blocks and the rht map's are far smaller.
        net, n = TinyNetSpec(), 2000
        coverage_proxy(sampler, 1000, RngStream(57, 0))  # lazy imports, outside the trace
        tracemalloc.start()
        try:
            coverage_proxy(sampler, n, RngStream(57, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * (net.param_count + 2 * 64)

    @pytest.mark.parametrize("sampler", ["zero", "uniform"])
    def test_unknown_sampler_rejected(self, sampler):
        with pytest.raises(ConfigError, match="param sampler"):
            coverage_proxy(sampler, 1000, RngStream(55, 0))

    def test_deterministic_per_stream(self):
        a = coverage_proxy("gaussian", 1000, RngStream(55, 1))
        b = coverage_proxy("gaussian", 1000, RngStream(55, 1))
        assert a == b

    def test_two_seeds_agree_within_noise(self):
        a, _ = coverage_proxy("gaussian", 4000, RngStream(55, 2))
        b, _ = coverage_proxy("gaussian", 4000, RngStream(55, 3))
        assert abs(a - b) / a < 0.15

    def test_invariant_to_sample_order(self):
        # The proxy is a mean of per-input variances; permuting parameter
        # samples cannot change it. Exercise via the forward pass directly.
        net = TinyNetSpec()
        gen = RngStream(55, 4).generator()
        draws = gen.normal(size=(200, net.param_count))
        grid = net.grid()
        outs = net.forward(draws, grid)
        assert outs.var(axis=0).mean() == pytest.approx(
            outs[::-1].var(axis=0).mean(), rel=1e-12
        )

    def test_param_count(self):
        assert TinyNetSpec().param_count == 2 * 8 + 8 + 8 * 1 + 1

    def test_grid_is_8_by_8_unit_square(self):
        grid = TinyNetSpec().grid()
        assert grid.shape == (64, 2)
        assert grid.min() == 0.0 and grid.max() == 1.0
        assert len(np.unique(grid[:, 0])) == len(np.unique(grid[:, 1])) == 8
