import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mergelimits.errors import ConfigError, NumericError
from mergelimits.merge import (
    MergeWeights,
    merge_linear,
    merged_variance_equicorrelated,
    n_max,
    termination_check,
    variance_limit,
)
from mergelimits.tensorio import RngStream


class TestMergeLinear:
    def test_single_expert_identity(self):
        e = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(merge_linear([e], MergeWeights(np.array([1.0]))), e)

    def test_identical_experts(self):
        e = np.array([1.0, -2.0])
        w = MergeWeights(np.array([0.3, 0.7]))
        assert np.allclose(merge_linear([e, e], w), e)

    def test_hand_arithmetic(self):
        out = merge_linear(
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            MergeWeights(np.array([0.25, 0.75])),
        )
        assert out.tolist() == [0.25, 0.75]

    def test_dim_mismatch(self):
        with pytest.raises(ConfigError, match="experts must share one dimension"):
            merge_linear([np.ones(2), np.ones(3)], MergeWeights.uniform(2))

    def test_stack_and_row_list_agree_bitwise_on_every_prefix(self):
        stack = RngStream(3, 0).generator().normal(size=(12, 257))
        for n in range(1, stack.shape[0] + 1):
            w = MergeWeights.uniform(n)
            from_stack = merge_linear(stack[:n], w)
            from_rows = merge_linear(list(stack[:n]), w)
            assert from_stack.tobytes() == from_rows.tobytes()

    @pytest.mark.parametrize("n_experts", [2, 4])
    def test_expert_count_must_match_weights(self, n_experts):
        with pytest.raises(ConfigError, match=f"{n_experts} experts but 3 weights"):
            merge_linear(np.ones((n_experts, 5)), MergeWeights.uniform(3))

    def test_empty_vectors_rejected(self):
        with pytest.raises(ConfigError, match="empty vectors"):
            merge_linear(np.zeros((2, 0)), MergeWeights.uniform(2))
        with pytest.raises(ConfigError, match="empty vectors"):
            merge_linear([np.zeros(0), np.zeros(0)], MergeWeights.uniform(2))

    def test_three_dimensional_input(self):
        with pytest.raises(ConfigError, match="2-D"):
            merge_linear(np.ones((2, 3, 4)), MergeWeights.uniform(2))

    def test_non_finite_expert(self):
        stack = np.ones((3, 4))
        stack[1, 2] = np.nan
        with pytest.raises(NumericError):
            merge_linear(stack, MergeWeights.uniform(3))
        with pytest.raises(NumericError):
            merge_linear(list(stack), MergeWeights.uniform(3))

    def test_invalid_weights(self):
        with pytest.raises(ConfigError):
            MergeWeights(np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            MergeWeights(np.array([1.5, -0.5]))


class TestMergedVariance:
    def test_two_experts_against_mc(self):
        # Oracle: empirical variance of the weighted sum of 1e6 correlated pairs.
        rho = 0.5
        analytic = merged_variance_equicorrelated(1.0, rho, 2)
        assert analytic == pytest.approx(0.75, abs=1e-12)
        gen = RngStream(21, 0).generator()
        z0 = gen.normal(size=10**6)
        z = gen.normal(size=(2, 10**6))
        experts = math.sqrt(rho) * z0 + math.sqrt(1 - rho) * z
        emp = (0.5 * experts[0] + 0.5 * experts[1]).var()
        assert emp == pytest.approx(analytic, rel=0.01)


class TestEquicorrelated:
    def test_single(self):
        assert merged_variance_equicorrelated(2.0, 0.3, 1) == pytest.approx(2.0)

    def test_hand_value(self):
        assert merged_variance_equicorrelated(1.0, 0.5, 2) == pytest.approx(0.75, abs=1e-12)

    def test_large_n_approaches_limit(self):
        v = merged_variance_equicorrelated(1.0, 0.5, 10**6)
        assert v == pytest.approx(0.5000005, abs=1e-9)
        assert v > variance_limit(1.0, 0.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 10.0),
        st.floats(0.0, 1.0),
        st.integers(1, 50),
    )
    def test_matches_general_formula(self, sigma2, rho, n):
        # Oracle: the general law, the quadratic form of the covariance matrix.
        r = np.full((n, n), rho)
        np.fill_diagonal(r, 1.0)
        s = np.full(n, math.sqrt(sigma2))
        w = MergeWeights.uniform(n).alphas
        general = float(w @ (r * np.outer(s, s)) @ w)
        closed = merged_variance_equicorrelated(sigma2, rho, n)
        assert abs(general - closed) < 1e-12 * max(1.0, closed)

    def test_strictly_decreasing_in_n(self):
        for rho in (0.0, 0.3, 0.9):
            vals = [merged_variance_equicorrelated(1.0, rho, n) for n in range(1, 30)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        flat = [merged_variance_equicorrelated(1.0, 1.0, n) for n in range(1, 30)]
        assert all(v == flat[0] for v in flat)

    def test_gap_to_limit_is_exact(self):
        sigma2, rho = 1.3, 0.4
        for n in range(1, 20):
            gap = merged_variance_equicorrelated(sigma2, rho, n) - variance_limit(sigma2, rho)
            assert gap == pytest.approx(sigma2 * (1 - rho) / n, rel=1e-12)

    def test_shared_factor_mc_oracle(self):
        # Empirical variance of the uniform mean of n equicorrelated Gaussians.
        gen = RngStream(22, 0).generator()
        draws = 200_000
        for n, rho in [(2, 0.0), (3, 0.5), (5, 0.8), (8, 0.2)]:
            z0 = gen.normal(size=draws)
            zs = gen.normal(size=(n, draws))
            experts = math.sqrt(rho) * z0 + math.sqrt(1 - rho) * zs
            emp = experts.mean(axis=0).var()
            expected = merged_variance_equicorrelated(1.0, rho, n)
            stderr = expected * math.sqrt(2.0 / draws)
            assert abs(emp - expected) < 3 * stderr

    def test_infeasible_rho(self):
        with pytest.raises(ConfigError):
            merged_variance_equicorrelated(1.0, -0.9, 5)


class TestVarianceLimit:
    def test_values(self):
        assert variance_limit(1.0, 0.0) == 0.0
        assert variance_limit(1.0, 0.5) == 0.5
        assert variance_limit(2.0, 0.25) == pytest.approx(0.5)

    def test_lower_bounds_all_n(self):
        assert all(
            merged_variance_equicorrelated(2.0, 0.25, n) >= variance_limit(2.0, 0.25)
            for n in range(1, 10**5, 997)
        )


class TestNMax:
    def test_fully_correlated(self):
        for delta in (0.01, 0.1, 1.0):
            assert n_max(1.0, 1.0, delta) == 0

    def test_hand_values(self):
        assert n_max(1.0, 0.5, 0.1) == 5
        assert n_max(1.0, 0.0, 0.01) == 100

    def test_boundary_cross_check(self):
        sigma2, rho, delta = 1.0, 0.5, 0.1
        n = n_max(sigma2, rho, delta)
        assert sigma2 * (1 - rho) / n >= delta * (1 - 1e-9)
        assert sigma2 * (1 - rho) / (n + 1) < delta

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 10.0), st.floats(0.0, 0.99), st.floats(0.001, 1.0))
    def test_property_boundary(self, sigma2, rho, delta):
        n = n_max(sigma2, rho, delta)
        if n > 0:
            assert sigma2 * (1 - rho) / n >= delta * (1 - 1e-9)
        assert sigma2 * (1 - rho) / (n + 1) < delta * (1 + 1e-9)

    def test_monotonicity(self):
        assert n_max(1.0, 0.2, 0.1) >= n_max(1.0, 0.6, 0.1)
        assert n_max(1.0, 0.2, 0.05) >= n_max(1.0, 0.2, 0.1)
        assert n_max(2.0, 0.2, 0.1) >= n_max(1.0, 0.2, 0.1)

    def test_bad_delta(self):
        with pytest.raises(ConfigError):
            n_max(1.0, 0.5, 0.0)

    @pytest.mark.parametrize("sigma2", [float("nan"), -1.0, 0.0])
    def test_bad_sigma2(self, sigma2):
        with pytest.raises(ConfigError, match="sigma2"):
            n_max(sigma2, 0.5, 0.1)

    @pytest.mark.parametrize("args", [(float("inf"), 0.5, 0.1), (1.0, 0.5, 1e-320)])
    def test_bound_not_finite(self, args):
        # A finite float sigma2 * (1 - rho) / delta is needed to floor it to an int.
        with pytest.raises(ConfigError, match="not finite"):
            n_max(*args)


class TestTermination:
    def test_flat_trace(self):
        assert termination_check([1.0, 1.0, 1.0], 0.1) == 1

    def test_successive_gain_on_variance_trace(self):
        trace = [merged_variance_equicorrelated(1.0, 0.5, n) for n in range(1, 11)]
        # First n with 0.5 / (n (n+1)) < 0.05 is n = 3.
        assert termination_check(trace, 0.05) == 3

    def test_never_triggered(self):
        assert termination_check([10.0, 5.0, 1.0], 0.5) is None

    def test_empty_trace(self):
        with pytest.raises(ConfigError):
            termination_check([], 0.1)

    @pytest.mark.parametrize(
        "delta", [0.0, -0.1, float("nan")], ids=["gain-0.0", "gain--0.1", "gain-nan"]
    )
    def test_bad_delta(self, delta):
        with pytest.raises(ConfigError):
            termination_check([1.0, 0.75, 0.6], delta)
