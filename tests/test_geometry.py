import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from mergelimits import geometry
from mergelimits.errors import ConfigError
from mergelimits.geometry import (
    CircularCone,
    QuadraticTask,
    haar_orthogonal,
    jensen_widths,
    kinematics_transition,
    marginal_gains,
    mean_rotated_losses,
    projected_width_sq,
    redundancy_bound_check,
    statdim_cone,
    statdim_cone_mc,
    width_jensen,
    width_mc,
)
from mergelimits.tensorio import RngStream


def identity_task(dim, epsilon=0.5, lam=None):
    lam = np.ones(dim) if lam is None else np.asarray(lam, dtype=float)
    return QuadraticTask(np.zeros(dim), lam, np.eye(dim), epsilon)


def statdim_betainc(dim, a):
    """delta(C) = D E f(theta) in incomplete-beta form, a reference for
    statdim_cone. u = cos^2 theta ~ Beta(1/2, (D-1)/2) with either sign of
    cos theta equally likely. Expanding cos^2(theta - a) on the band
    a < theta < a + pi/2, where u < cos^2 a (cos theta > 0) or u < sin^2 a
    (cos theta < 0), leaves truncated moments of u and 1 - u, plus a
    sin theta cos theta term that integrates to sin^D theta / D."""
    c2, s2, b = math.cos(a) ** 2, math.sin(a) ** 2, (dim - 1) / 2
    inside = 0.5 * special.betainc(b, 0.5, s2)
    cos_band = 0.5 / dim * (special.betainc(1.5, b, c2) + special.betainc(1.5, b, s2))
    sin_band = 0.5 * (dim - 1) / dim * (
        special.betainc(0.5, b + 1, c2) + special.betainc(0.5, b + 1, s2)
    )
    cross = (c2 ** (dim / 2) - s2 ** (dim / 2)) / (dim * special.beta(0.5, b))
    return dim * (inside + c2 * cos_band + s2 * sin_band + math.sin(2 * a) * cross)


def kinematics_reference(dim, cone, ks, trials, stream):
    """The arccos/first-hit cone kernel that kinematics_transition replaced:
    a trial hits at k iff arccos sqrt(c_k / |g|^2) <= half_angle + 1e-10,
    and counts from its first hitting k on."""
    ks = np.asarray(ks)
    k_top = int(ks.max())
    g = stream.generator().normal(size=(trials, dim))
    c = np.cumsum(np.square(g, out=g), axis=1)
    ratio = c[:, :k_top] / c[:, -1:]
    hit = np.arccos(np.minimum(np.sqrt(ratio), 1.0)) <= cone.half_angle + 1e-10
    idx = np.where(hit.any(axis=1), hit.argmax(axis=1), k_top)
    first = np.bincount(idx, minlength=k_top + 1)
    return np.cumsum(first)[ks - 1] / trials


def random_task(gen, dim, condition=100.0, epsilon=0.5):
    # Ascending lambda (stored-order convention: high-curvature last in 1/lambda).
    lam = np.sort(np.exp(gen.uniform(0.0, math.log(condition), size=dim)))
    lam /= lam.max()
    basis = haar_orthogonal(dim, gen)
    return QuadraticTask(gen.normal(size=dim), lam, basis, epsilon)


class TestQuadraticTask:
    def test_rejects_bad_basis(self):
        with pytest.raises(ConfigError):
            QuadraticTask(np.zeros(2), np.ones(2), np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)

    def test_rejects_wrong_basis_shape(self):
        with pytest.raises(ConfigError, match="dimensions disagree"):
            QuadraticTask(np.zeros(3), np.ones(3), np.eye(2), 0.5)

    def test_no_basis_loss_raises(self):
        # Widths are basis-invariant; the loss needs a fixed orientation.
        task = QuadraticTask(np.zeros(2), np.ones(2), None, 0.5)
        assert task.basis is None
        assert width_jensen(task) == math.sqrt(2.0)
        with pytest.raises(ConfigError, match="mean_rotated_losses"):
            task.loss(np.zeros(2))

    def test_no_basis_sample_sublevel_raises(self):
        task = QuadraticTask(np.zeros(3), np.ones(3), None, 0.5)
        with pytest.raises(ConfigError, match="mean_rotated_losses"):
            task.sample_sublevel(RngStream(0, 0))

    def test_loss_at_optimum(self):
        task = identity_task(3)
        assert task.loss(task.theta_star) == 0.0

    def test_sublevel_sampler_membership(self):
        # Brute-force consistency between the loss and the ellipsoid S(eps).
        gen = RngStream(40, 0).generator()
        task = random_task(gen, 12)
        pts = task.sample_sublevel(RngStream(40, 1), 500)
        for theta in pts:
            assert task.loss(theta) <= task.epsilon + 1e-12
            q = theta - task.theta_star
            z = task.basis.T @ q
            assert float(task.eigenvalues @ (z * z)) <= 2 * task.epsilon + 1e-12


class TestRotatedLosses:
    def test_law_matches_independent_haar_bases(self):
        # The named MC cross-check of the closed form: score fixed vectors
        # with task.loss under independent Haar bases; the sample mean and
        # variance of each column sit within 4 stderr of the exact moments.
        d, reps = 12, 4000
        lam = np.geomspace(0.1, 1.0, d)
        for seed in (41, 42):
            gen = RngStream(seed, 0).generator()
            theta_star = gen.normal(size=d)
            offsets = gen.normal(size=(d, 3)) * [1.0, 0.3, 2.0]
            mean, cv = mean_rotated_losses(lam, offsets)
            drawn = np.empty((reps, 3))
            for i in range(reps):
                basis = haar_orthogonal(d, RngStream(seed, 1000 + i).generator())
                task = QuadraticTask(theta_star, lam, basis, 0.5)
                drawn[i] = [task.loss(theta_star + v) for v in offsets.T]
            var = (cv * mean) ** 2
            z_mean = (drawn.mean(axis=0) - mean) / np.sqrt(var / reps)
            # Stderr of the sample variance from the sample fourth central moment.
            m4 = np.mean((drawn - drawn.mean(axis=0)) ** 4, axis=0)
            z_var = (drawn.var(axis=0, ddof=1) - var) / np.sqrt((m4 - var**2) / reps)
            assert np.all(np.abs(z_mean) <= 4.0), (seed, z_mean)
            assert np.all(np.abs(z_var) <= 4.0), (seed, z_var)

    @pytest.mark.parametrize("m", [3, 4, 10], ids=["fewer", "equal", "more"])
    def test_uniform_spectrum_gives_half_squared_norm(self, m):
        # With H = I every orientation gives 0.5 |v|^2, including m > D.
        d = 4
        v = RngStream(43, m).generator().normal(size=(d, m))
        got, cv = mean_rotated_losses(np.ones(d), v)
        assert got.shape == (m,)
        assert np.allclose(got, 0.5 * np.sum(v * v, axis=0), rtol=1e-12, atol=0)
        assert cv == 0.0

    def test_cv_closed_form(self):
        # Two eigenvalues 1 and 3 in D = 2: u = (cos t, sin t) with t uniform,
        # L / |v|^2 = 0.5 (1 + 2 sin^2 t), mean 1, variance 0.5^2 * 4 / 8.
        got, cv = mean_rotated_losses([1.0, 3.0], np.array([[1.0], [0.0]]))
        assert got.tolist() == [1.0]
        assert cv == pytest.approx(math.sqrt(0.125), rel=1e-15)

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ConfigError):
            mean_rotated_losses(np.ones(3), np.ones((4, 2)))


class TestJensenWidths:
    def test_prefixes_match_correctly_rounded_sums(self):
        # A running sum of m positive terms is within (m - 1) u of the exact
        # sum (u = 2^-53); the square root halves that, and the products and
        # the root add a few u. math.fsum rounds the exact sum once.
        gen = RngStream(43, 0).generator()
        for _ in range(40):
            dim = int(gen.integers(1, 10_001))
            lam = np.geomspace(1.0 / gen.uniform(1.0, 1e6), 1.0, dim)
            task = QuadraticTask(np.zeros(dim), lam, None, float(gen.uniform(1e-3, 1e3)))
            w = jensen_widths(task, dim)
            for m in {1, 2, dim, *gen.integers(1, dim + 1, size=10).tolist()}:
                exact = math.sqrt(math.fsum(2.0 * task.epsilon / lam[:m]))
                assert abs(w[m - 1] - exact) <= (m / 2 + 3) * 2.0**-53 * exact

    def test_reads_of_one_array(self):
        task = random_task(RngStream(43, 1).generator(), 30, condition=1e4)
        w = jensen_widths(task, 30)
        assert [width_jensen(task, m) for m in range(1, 31)] == w.tolist()
        assert width_jensen(task) == w[-1]
        assert np.array_equal(marginal_gains(task, 30), np.diff(w, prepend=0.0))
        assert np.array_equal(jensen_widths(task, 12), w[:12])

    @pytest.mark.parametrize("m", [0, 4])
    def test_out_of_range(self, m):
        for f in (jensen_widths, width_jensen, marginal_gains):
            with pytest.raises(ConfigError):
                f(identity_task(3), m)


class TestWidthJensen:
    def test_tiny_epsilon_goes_to_zero(self):
        task = identity_task(2, epsilon=1e-30)
        assert width_jensen(task, 2) < 1e-14

    def test_two_unit_eigenvalues(self):
        task = identity_task(2)
        assert width_jensen(task, 2) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_uniform_spectrum_trace(self):
        d = 64
        assert width_jensen(identity_task(d), d) == pytest.approx(math.sqrt(d))

    def test_m_out_of_range(self):
        with pytest.raises(ConfigError):
            width_jensen(identity_task(3), 4)


class TestWidthMC:
    def test_chi_mean_d2(self):
        # E|g| in 2 dims = sqrt(pi/2); width = sqrt(2 eps) * that.
        task = identity_task(2)
        mc, se = width_mc(task, 400_000, RngStream(41, 0))
        assert mc == pytest.approx(math.sqrt(math.pi / 2), abs=4 * se)
        assert mc < width_jensen(task, 2)

    def test_high_dim_jensen_tight(self):
        task = identity_task(400)
        mc, se = width_mc(task, 40_000, RngStream(41, 1))
        assert mc == pytest.approx(20.0, rel=0.005)

    def test_jensen_upper_bound_property(self):
        gen = RngStream(41, 2).generator()
        for trial in range(100):
            dim = int(gen.integers(2, 201))
            task = random_task(gen, dim)
            mc, se = width_mc(task, 2000, RngStream(41, 10 + trial))
            assert mc <= width_jensen(task, dim) + 3 * se

    def test_squares_its_draw_in_place(self):
        # The draw is squared where it lies: one samples x D array, not two.
        samples, d = 20_000, 500
        task = identity_task(d)
        tracemalloc.start()
        try:
            width_mc(task, samples, RngStream(41, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * samples * d * 8


class TestMarginalGains:
    def test_unit_spectrum(self):
        gains = marginal_gains(identity_task(5), 3)
        expected = [1.0, math.sqrt(2) - 1, math.sqrt(3) - math.sqrt(2)]
        assert np.allclose(gains, expected)

    def test_first_gain_is_radius(self):
        task = identity_task(4, epsilon=0.8, lam=[2.0, 1.0, 1.0, 1.0])
        gains = marginal_gains(task, 1)
        assert gains[0] == pytest.approx(math.sqrt(2 * 0.8 / 2.0))

    def test_strictly_decreasing_property(self):
        gen = RngStream(42, 0).generator()
        for trial in range(100):
            dim = int(gen.integers(2, 100))
            task = random_task(gen, dim, condition=gen.uniform(1.5, 1000))
            gains = marginal_gains(task, dim)
            assert np.all(gains > 0)
            assert np.all(np.diff(gains) < 0)


class TestProjectedWidth:
    def test_at_optimum_equals_residual_dim(self):
        task = identity_task(10)
        for k in (0, 3, 9):
            assert projected_width_sq(task, task.theta_star, k) == pytest.approx(10 - k)

    def test_hand_value(self):
        task = identity_task(2)  # radii are both 1 at eps = 0.5, lam = 1
        theta = np.array([1.0, 0.0])
        assert projected_width_sq(task, theta, 0) == pytest.approx(1.0)

    def test_far_away_vanishes(self):
        task = identity_task(4)
        theta = np.full(4, 1e8)
        assert projected_width_sq(task, theta, 0) < 1e-12

    def test_monotone_in_distance_and_bounded(self):
        task = identity_task(8)
        direction = np.ones(8) / math.sqrt(8)
        vals = [projected_width_sq(task, t * direction, 2) for t in np.linspace(0, 5, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 < v <= 8 - 2 for v in vals)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            projected_width_sq(identity_task(3), np.zeros(3), 3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
        st.floats(1.0, 1e6),
        st.floats(1e-3, 1e3),
        st.floats(0.0, 1e3),
        st.data(),
    )
    def test_never_exceeds_residual_dim(self, dim, seed, condition, epsilon, offset, data):
        # Each of the D - active terms r^2 / (dist^2 + r^2) is at most 1, so
        # the sum is at most D - active and redundancy_bound_check cannot
        # read False.
        gen = RngStream(seed, 0).generator()
        task = random_task(gen, dim, condition, epsilon)
        active = data.draw(st.integers(0, dim - 1))
        theta = task.theta_star + offset * gen.normal(size=dim)
        assert projected_width_sq(task, theta, active) <= dim - active
        assert redundancy_bound_check(task, theta, active)


class TestRedundancyBound:
    def test_boundary_at_optimum(self):
        task = identity_task(10)
        for k in range(10):
            assert redundancy_bound_check(task, task.theta_star, k)

    def test_far_away_admissible(self):
        task = identity_task(10)
        assert redundancy_bound_check(task, np.full(10, 1e6), 9)

    def test_margin_shrinks_to_boundary_near_optimum(self):
        # Each fraction is <= 1, so the admissibility margin D - k - sum is
        # nonnegative and collapses to the k <= k boundary as theta_k -> theta*.
        task = identity_task(10)
        direction = np.ones(10) / math.sqrt(10)
        dists = np.linspace(3.0, 0.0, 50)
        margins = [10 - 6 - projected_width_sq(task, t * direction, 6) for t in dists]
        assert all(a > b for a, b in zip(margins, margins[1:]))
        assert margins[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(redundancy_bound_check(task, t * direction, 6) for t in dists)


class TestStatDim:
    def test_subspace_mc_cross_check(self):
        # Projection of g onto a k-dim subspace has E|.|^2 = k (chi-square mean).
        gen = RngStream(43, 0).generator()
        d, k, n = 50, 20, 100_000
        g = gen.normal(size=(n, d))
        sq = np.sum(g[:, :k] ** 2, axis=1)
        stderr = sq.std(ddof=1) / math.sqrt(n)
        assert abs(sq.mean() - k) < 3 * stderr

    @pytest.mark.parametrize("d", [2, 3, 10, 60, 400, 10_000])
    def test_exact_polar_identity(self, d):
        # delta(C) + delta(C polar) = D, and the polar of the a-cone is the
        # mirror image of the (pi/2 - a)-cone; a = pi/4 is self-dual.
        for deg in (1, 5, 20, 30, 44, 70, 89):
            a = math.radians(deg)
            total = statdim_cone(CircularCone(d, a)) + statdim_cone(CircularCone(d, math.pi / 2 - a))
            assert abs(total - d) <= 1e-12 * d, (deg, total)
        assert abs(statdim_cone(CircularCone(d, math.pi / 4)) - d / 2) <= 1e-12 * d

    def test_exact_low_dimensions(self):
        # D = 1: the ray, delta = 1/2. D = 2: theta is uniform on [0, pi].
        for a in np.linspace(0.01, math.pi / 2 - 0.01, 20):
            assert statdim_cone(CircularCone(1, a)) == 0.5
            assert statdim_cone(CircularCone(2, a)) == pytest.approx(0.5 + 2 * a / math.pi, rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 60, 10_000])
    def test_exact_increasing_in_angle(self, d):
        vals = [statdim_cone(CircularCone(d, a)) for a in np.linspace(0.001, math.pi / 2 - 0.001, 200)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("d", [3, 60, 10_000])
    def test_exact_matches_incomplete_beta(self, d):
        for deg in (1, 5, 20, 30, 45, 70, 85, 89):
            a = math.radians(deg)
            got, ref = statdim_cone(CircularCone(d, a)), statdim_betainc(d, a)
            assert abs(got - ref) <= 1e-11 * ref, (deg, got, ref)

    @pytest.mark.parametrize("deg", [20, 30, 45, 85])
    @pytest.mark.parametrize("d", [3, 20, 60])
    def test_mc_cross_check(self, d, deg):
        cone = CircularCone(d, math.radians(deg))
        est, se = statdim_cone_mc(cone, 20_000, RngStream(49, 100 * d + deg))
        z = (est - statdim_cone(cone)) / se
        assert abs(z) <= 4, f"MC statdim is z = {z:+.2f} stderr from the exact value"

    def test_cone_mc_two_seeds_agree(self):
        cone = CircularCone(20, math.radians(85))
        a, se_a = statdim_cone_mc(cone, 50_000, RngStream(43, 1))
        b, se_b = statdim_cone_mc(cone, 50_000, RngStream(43, 2))
        assert abs(a - b) < 3 * math.hypot(se_a, se_b)
        # Wide cone: statistical dimension approaches the ambient dimension.
        assert a > 15

    @pytest.mark.parametrize("axis_kind", ["e1"])
    def test_matches_unfused_formula(self, axis_kind):
        # The projection g - outer(t, axis) onto the cone's axis e1 and
        # np.linalg.norm, written out here as the bitwise reference.
        d, n = 30, 5000
        axis = np.zeros(d)
        axis[0] = 1.0
        cone = CircularCone(d, math.radians(35))
        got = statdim_cone_mc(cone, n, RngStream(48, 1))
        g = RngStream(48, 1).generator().normal(size=(n, d))
        t = g @ axis
        rho = np.linalg.norm(g - np.outer(t, axis), axis=1)
        inside = rho <= t * math.tan(cone.half_angle)
        dot = np.cos(cone.half_angle) * t + np.sin(cone.half_angle) * rho
        sq = np.where(inside, t * t + rho * rho, np.maximum(dot, 0.0) ** 2)
        assert got == (float(sq.mean()), float(sq.std(ddof=1) / math.sqrt(n)))

    @pytest.mark.parametrize("d", [3, 20, 60])
    def test_self_dual_cone_is_half_the_space(self, d):
        # delta(C) + delta(C polar) = D, and the polar of the 45-degree cone is
        # its mirror image -C, so delta = D/2 exactly (arXiv:1303.6672).
        cone = CircularCone(d, math.pi / 4)
        est, se = statdim_cone_mc(cone, 100_000, RngStream(46, d))
        assert abs(est - d / 2) < 4 * se


class TestKinematics:
    def test_subspace_vs_subspace_exact(self):
        d, k1 = 10, 4
        for k2 in range(1, d + 1):
            p = kinematics_transition(d, k1, k2, 100, RngStream(45, k2))
            assert p == (1.0 if k1 + k2 > d else 0.0)

    def test_cone_extremes(self):
        d = 30
        cone = CircularCone(d, math.radians(30))
        statdim = statdim_cone(cone)
        margin = 2 * math.ceil(math.sqrt(d))
        k_low = max(1, int(d - statdim - margin))
        k_high = min(d, int(d - statdim + margin))
        p_low = kinematics_transition(d, cone, k_low, 300, RngStream(45, 101))
        p_high = kinematics_transition(d, cone, k_high, 300, RngStream(45, 102))
        assert p_low <= 0.05
        assert p_high >= 0.95

    def test_haar_is_orthogonal(self):
        q = haar_orthogonal(12, RngStream(45, 103).generator())
        assert np.max(np.abs(q.T @ q - np.eye(12))) < 1e-10

    @pytest.mark.parametrize("deg", [20, 30, 45])
    def test_cone_matches_beta_law(self, deg):
        # |Pi_S u|^2 ~ Beta(k/2, (D-k)/2), so P(hit) = beta.sf(cos^2 a, k/2, (D-k)/2).
        d, trials = 60, 500
        cone = CircularCone(d, math.radians(deg))
        c2 = math.cos(math.radians(deg)) ** 2
        for k in range(1, d + 1):
            p = kinematics_transition(d, cone, k, trials, RngStream(46, 100 * deg + k))
            exact = 1.0 if k == d else stats.beta.sf(c2, k / 2, (d - k) / 2)
            stderr = max(math.sqrt(exact * (1 - exact) / trials), 0.5 / trials)
            assert abs(p - exact) <= 4.5 * stderr, (k, p, exact)

    @pytest.mark.parametrize("deg", [20, 30, 45])
    def test_one_sweep_matches_beta_law(self, deg):
        # Every k reads the same trials, so the columns are correlated, but
        # each is binomial(trials, P(k)) / trials on its own.
        d, trials = 60, 500
        cone = CircularCone(d, math.radians(deg))
        c2 = math.cos(math.radians(deg)) ** 2
        ks = np.arange(1, d + 1)
        p = kinematics_transition(d, cone, ks, trials, RngStream(47, deg))
        exact = np.append(stats.beta.sf(c2, ks[:-1] / 2, (d - ks[:-1]) / 2), 1.0)
        stderr = np.maximum(np.sqrt(exact * (1 - exact) / trials), 0.5 / trials)
        assert p.shape == (d,)
        assert np.all(np.abs(p - exact) <= 4.5 * stderr), np.abs(p - exact) / stderr
        assert np.all(np.diff(p) >= 0.0)

    @pytest.mark.parametrize("k", [1, 17, 44, 60])
    def test_sequence_entries_match_scalar_calls(self, k):
        d, trials = 60, 300
        for body in (CircularCone(d, math.radians(30)), 20):
            scalar = kinematics_transition(d, body, k, trials, RngStream(47, 100 + k))
            single = kinematics_transition(d, body, [k], trials, RngStream(47, 100 + k))
            swept = kinematics_transition(d, body, range(1, d + 1), trials, RngStream(47, 100 + k))
            assert type(scalar) is float and single.shape == (1,)
            assert single[0] == scalar == swept[k - 1]

    @pytest.mark.parametrize(
        "k",
        [0, [1, 0], [5, 11], [], [[1, 2]], [1.5]],
        ids=["zero", "zero-in-sweep", "past-dim", "empty", "two-dim", "float"],
    )
    def test_every_k_validated_before_drawing(self, k):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew before validating k")

        for body in (CircularCone(10, math.radians(30)), 4):
            with pytest.raises(ConfigError):
                kinematics_transition(10, body, k, 100, NoDraws())

    def test_never_builds_haar_matrix(self, monkeypatch):
        def no_haar(*args, **kwargs):
            raise AssertionError("kinematics_transition built a Haar matrix")

        monkeypatch.setattr(geometry, "haar_orthogonal", no_haar)
        cone = CircularCone(10, math.radians(30))
        assert 0.0 <= kinematics_transition(10, cone, 5, 100, RngStream(45, 104)) <= 1.0
        assert kinematics_transition(10, 4, 3, 100, RngStream(45, 105)) == 0.0

    def test_subspace_draws_nothing_when_dimensions_force_a_hit(self):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew random numbers for a subspace")

        d, k1 = 10, 4
        for k in range(1, d + 1):
            assert kinematics_transition(d, k1, k, 100, NoDraws()) == (1.0 if k1 + k > d else 0.0)

    @pytest.mark.parametrize("k", [3, 7], ids=["miss", "hit"])
    def test_subspace_still_validates_trials(self, k):
        with pytest.raises(ConfigError):
            kinematics_transition(10, 4, k, 99, RngStream(45, 107))

    @pytest.mark.parametrize("dims", [(10, 60), (60, 10)], ids=["cone-larger", "cone-smaller"])
    def test_cone_dimension_must_match(self, dims):
        class NoDraws:
            def generator(self):
                raise AssertionError("drew before validating the cone")

        d, cone_dim = dims
        with pytest.raises(ConfigError, match="cone dim"):
            kinematics_transition(d, CircularCone(cone_dim, math.radians(30)), [1, 5, 10], 200, NoDraws())

    @pytest.mark.parametrize("dim", [0, -3, True, 2.0, "4", None])
    def test_cone_dim_must_be_a_positive_int(self, dim):
        with pytest.raises(ConfigError, match="cone dim"):
            CircularCone(dim, math.radians(30))
        assert CircularCone(np.int64(3), math.radians(30)).dim == 3

    @pytest.mark.parametrize("d", [2, 3, 5, 10, 60, 200, 1000])
    def test_hit_count_equals_first_hit_reference(self, d):
        # The multi-chunk path runs at D = 1000: 500 trials exceed one batch.
        ks = np.arange(1, d + 1)
        for deg in (1, 5, 20, 30, 45, 60, 80, 89.9):
            cone = CircularCone(d, math.radians(deg))
            for seed in range(5):
                stream = RngStream(seed, 6)
                p = kinematics_transition(d, cone, ks, 500, stream)
                assert np.array_equal(p, kinematics_reference(d, cone, ks, 500, stream)), (deg, seed)

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.integers(1, 120),
        deg=st.floats(0.01, 89.99),
        seed=st.integers(0, 2**32 - 1),
        picks=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_hit_count_equals_reference_on_random_sweeps(self, d, deg, seed, picks):
        ks = np.array([1 + min(int(u * d), d - 1) for u in picks])
        cone = CircularCone(d, math.radians(deg))
        p = kinematics_transition(d, cone, ks, 200, RngStream(seed, 6))
        assert np.array_equal(p, kinematics_reference(d, cone, ks, 200, RngStream(seed, 6)))

    def test_angle_past_right_angle_hits_every_k(self):
        # half_angle + 1e-10 passes pi/2, so every subspace meets the cone.
        d, trials = 60, 500
        cone = CircularCone(d, math.pi / 2 - 5e-11)
        ks = np.arange(1, d + 1)
        assert np.all(kinematics_transition(d, cone, ks, trials, RngStream(48, 6)) == 1.0)
        assert np.all(kinematics_reference(d, cone, ks, trials, RngStream(48, 6)) == 1.0)
