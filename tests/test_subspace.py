import math
import tracemalloc

import numpy as np
import pytest

from mergelimits.errors import ConfigError
from mergelimits.subspace import (
    N_LOG_BANDS,
    SpectrumReport,
    band_counts,
    components_for_threshold,
    pca_explained,
    principal_angles,
    spectrum_report,
    sv_tail_stats,
)
from mergelimits.tensorio import RngStream


def scalar_band(s: float) -> int:
    """Reference band index of one value, by logarithm and edge comparison."""
    if s >= 1.0:
        return 0
    if s < math.exp(-N_LOG_BANDS):
        return N_LOG_BANDS + 1
    k = int(math.floor(-math.log(s)))
    if s >= math.exp(-k):
        k -= 1
    return 1 + min(max(k, 0), N_LOG_BANDS - 1)


class TestBandCounts:
    def test_overflow_band(self):
        counts = band_counts(np.array([1.0, 2.5, 100.0]))
        assert counts[0] == 3 and counts.sum() == 3

    def test_interior_bands(self):
        # 0.5 in [e^-1, 1) -> band 0; 0.1 in [e^-3, e^-2) -> band 2.
        counts = band_counts(np.array([0.5, 0.1]))
        assert counts[1] == 1
        assert counts[3] == 1

    def test_exact_edge_goes_to_upper_band(self):
        # A value equal to e^-k sits at the closed lower edge of band k-1.
        for k in range(1, N_LOG_BANDS):
            counts = band_counts(np.array([math.exp(-k)]))
            assert counts[1 + (k - 1)] == 1, f"edge e^-{k}"
            # The neighbours one ulp either side fall in the bands around the edge.
            below = band_counts(np.array([np.nextafter(math.exp(-k), 0.0)]))
            assert below[1 + k] == 1, f"just below e^-{k}"
            above = band_counts(np.array([np.nextafter(math.exp(-k), 1.0)]))
            assert above[1 + (k - 1)] == 1, f"just above e^-{k}"

    def test_matches_scalar_reference(self):
        edges = [math.exp(-k) for k in range(N_LOG_BANDS + 2)]
        vals = [0.0, 1e-30] + edges + [np.nextafter(e, 0.0) for e in edges]
        vals += [np.nextafter(e, 2.0) for e in edges]
        gen = RngStream(60, 2).generator()
        vals = np.concatenate([vals, np.exp(gen.uniform(-16, 2, size=20_000))])
        expected = np.bincount([scalar_band(s) for s in vals], minlength=N_LOG_BANDS + 2)
        assert np.array_equal(band_counts(vals), expected)

    def test_underflow_band(self):
        counts = band_counts(np.array([0.0, 1e-30, math.exp(-14)]))
        assert counts[-1] == 3

    def test_planted_spectrum_recovered(self):
        gen = RngStream(60, 0).generator()
        planted = np.zeros(N_LOG_BANDS + 2, dtype=np.int64)
        vals = []
        for band in range(N_LOG_BANDS):
            n = int(gen.integers(1, 6))
            planted[1 + band] += n
            # Strictly interior draws so float noise cannot cross an edge.
            lo, hi = math.exp(-(band + 1)), math.exp(-band)
            vals.extend(gen.uniform(lo * 1.01, hi * 0.99, size=n))
        assert np.array_equal(band_counts(np.array(vals)), planted)

    def test_total_is_input_length(self):
        gen = RngStream(60, 1).generator()
        sv = np.exp(gen.uniform(-16, 2, size=500))
        assert band_counts(sv).sum() == 500


class TestSpectrumReport:
    def test_fractions_sum_to_one(self):
        gen = RngStream(61, 0).generator()
        rep = spectrum_report(np.abs(gen.normal(size=40)), (40, 40))
        assert rep.explained_fractions.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(rep.singular_values) <= 0)

    def test_band_fractions(self):
        rep = spectrum_report(np.array([2.0, 0.5]), (2, 2))
        assert rep.band_fractions[0] == pytest.approx(0.5)
        assert rep.band_fractions[1] == pytest.approx(0.5)

    def test_degenerate_all_zero(self):
        rep = spectrum_report(np.zeros(4), (4, 4))
        assert rep.degenerate and rep.rank == 0

    def test_rank_counts_nonzeros(self):
        rep = spectrum_report(np.array([3.0, 1.0, 0.0, 0.0]), (4, 4))
        assert rep.rank == 2

    def test_rank_ignores_round_off_singular_values(self):
        # Tolerance sigma_max * max(rows, cols) * eps, as numpy.linalg.matrix_rank.
        gen = RngStream(61, 1).generator()
        left, right = gen.normal(size=(200, 5)), gen.normal(size=(5, 300))
        m = left @ right
        sv = np.linalg.svd(m, compute_uv=False)
        assert np.sum(sv > 1e-30) > 5
        assert spectrum_report(sv, m.shape).rank == 5 == np.linalg.matrix_rank(m)
        assert pca_explained(m).rank == 5
        centered = m - m.mean(axis=0, keepdims=True)
        assert pca_explained(centered).rank == np.linalg.matrix_rank(centered) == 5
        assert sv_tail_stats(m).rank == 5

    def test_nan_fractions_rejected(self):
        with pytest.raises(ConfigError, match="sum to nan"):
            SpectrumReport(np.array([1.0]), np.array([np.nan]), np.zeros(N_LOG_BANDS + 2), False, 0)

    def test_rank_tolerance_scales_with_the_longer_side(self):
        eps = np.finfo(np.float64).eps
        sv = np.array([1.0, 3.5 * eps])
        assert spectrum_report(sv, (2, 2)).rank == 2
        assert spectrum_report(sv, (2, 3)).rank == 2
        assert spectrum_report(sv, (2, 4)).rank == 1


class TestPCAExplained:
    def test_rank_one_without_centering(self):
        # Identical rows span one direction; all variance in one component.
        row = np.array([1.0, 2.0, 2.0])
        m = np.tile(row, (5, 1))
        rep = pca_explained(m)
        assert rep.explained_fractions[0] == pytest.approx(1.0, abs=1e-12)
        sv = rep.singular_values
        assert np.sum(sv > 1e-10 * sv[0]) == 1

    def test_centering_kills_common_mode(self):
        m = np.tile(np.array([1.0, 2.0, 2.0]), (5, 1))
        rep = pca_explained(m - m.mean(axis=0, keepdims=True))
        assert rep.degenerate

    def test_orthogonal_pair_splits_evenly(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = pca_explained(m)
        assert np.allclose(rep.explained_fractions, [0.5, 0.5], atol=1e-12)

    def test_planted_rank_exact(self):
        gen = RngStream(62, 0).generator()
        r, n, d = 4, 12, 60
        m = gen.normal(size=(n, r)) @ gen.normal(size=(r, d))
        rep = pca_explained(m)
        assert np.sum(rep.singular_values > 1e-10 * rep.singular_values[0]) == r
        assert rep.explained_fractions[:r].sum() == pytest.approx(1.0, abs=1e-10)

    def test_matches_covariance_eigvals(self):
        # Oracle: eigendecomposition of the Gram matrix of centered rows.
        gen = RngStream(62, 1).generator()
        m = gen.normal(size=(8, 20))
        c = m - m.mean(axis=0, keepdims=True)
        rep = pca_explained(c)
        eig = np.sort(np.linalg.eigvalsh(c @ c.T))[::-1]
        eig = np.clip(eig, 0.0, None)
        assert np.allclose(rep.singular_values[:8] ** 2, eig, atol=1e-8)


class TestComponentsForThreshold:
    def test_single_component(self):
        rep = spectrum_report(np.array([1.0, 0.0, 0.0]), (3, 3))
        assert components_for_threshold(rep, 0.999) == 1

    def test_even_split(self):
        rep = spectrum_report(np.array([1.0, 1.0]), (2, 2))
        assert components_for_threshold(rep, 0.5) == 1
        assert components_for_threshold(rep, 0.51) == 2
        assert components_for_threshold(rep, 1.0) == 2

    def test_at_most_planted_rank(self):
        gen = RngStream(63, 0).generator()
        r = 5
        m = gen.normal(size=(10, r)) @ gen.normal(size=(r, 40))
        rep = pca_explained(m)
        assert components_for_threshold(rep, 0.999) <= r

    def test_bad_inputs(self):
        rep = spectrum_report(np.array([1.0]), (1, 1))
        with pytest.raises(ConfigError):
            components_for_threshold(rep, 0.0)
        with pytest.raises(ConfigError):
            components_for_threshold(rep, 1.5)
        with pytest.raises(ConfigError):
            components_for_threshold(spectrum_report(np.zeros(3), (3, 3)), 0.9)


class TestPrincipalAngles:
    def test_identical_subspace(self):
        b = np.eye(5)[:, :2]
        assert np.allclose(principal_angles(b, b), [0.0, 0.0], atol=1e-6)

    def test_orthogonal_subspaces(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:]
        assert np.allclose(principal_angles(a, b), [90.0, 90.0], atol=1e-8)

    def test_mixed_zero_and_ninety(self):
        a = np.eye(3)[:, :2]  # span{e1, e2}
        b = np.eye(3)[:, 1:]  # span{e2, e3}
        assert np.allclose(principal_angles(a, b), [0.0, 90.0], atol=1e-6)

    def test_planted_45_degrees(self):
        a = np.eye(2)[:, :1]
        b = np.array([[1.0], [1.0]]) / math.sqrt(2)
        assert principal_angles(a, b)[0] == pytest.approx(45.0, abs=1e-8)

    def test_rotation_invariance(self):
        from mergelimits.geometry import haar_orthogonal

        gen = RngStream(64, 0).generator()
        a, _ = np.linalg.qr(gen.normal(size=(10, 3)))
        b, _ = np.linalg.qr(gen.normal(size=(10, 4)))
        q = haar_orthogonal(10, gen)
        base = principal_angles(a, b)
        rotated = principal_angles(q @ a, q @ b)
        assert np.allclose(base, rotated, atol=1e-7)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ConfigError):
            principal_angles(np.ones((3, 2)), np.eye(3)[:, :1])

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ConfigError):
            principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestSvTailStats:
    def test_low_rank_band_bound(self):
        gen = RngStream(65, 0).generator()
        rep = sv_tail_stats(gen.normal(size=(16, 3)) @ gen.normal(size=(3, 16)))
        sv = rep.singular_values
        assert np.sum(sv > 1e-10 * sv[0]) <= 3
        assert rep.counts_per_log_band[:-1].sum() <= 3

    def test_dense_matches_numpy_svd(self):
        gen = RngStream(65, 1).generator()
        m = gen.normal(size=(6, 9))
        rep = sv_tail_stats(m)
        assert np.allclose(rep.singular_values, np.linalg.svd(m, compute_uv=False))

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            sv_tail_stats(np.zeros((4, 4)))


def planted(rows, cols, rank, seed):
    gen = RngStream(67, seed).generator()
    return gen.normal(size=(rows, rank)) @ gen.normal(size=(rank, cols))


def full_svd_report(m):
    """Reference: the full-SVD report, every singular value listed."""
    sv = np.linalg.svd(m, compute_uv=False)
    return spectrum_report(np.where(sv > 1e-30, sv, 0.0), m.shape)


class TestCertifiedSpectrum:
    @pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
    def test_matches_full_svd(self, center):
        m = planted(600, 800, 5, 0)
        c = m - m.mean(axis=0, keepdims=True) if center else m
        rep = pca_explained(c)
        ref = full_svd_report(c)
        sv = np.linalg.svd(c, compute_uv=False)
        assert rep.rank == ref.rank == len(rep.singular_values) == 5
        assert rep.tail_count + len(rep.singular_values) == min(m.shape)
        assert rep.tail_bound >= sv[rep.rank]
        assert rep.tail_bound <= sv[0] * max(m.shape) * np.finfo(np.float64).eps
        assert np.array_equal(rep.counts_per_log_band, ref.counts_per_log_band)
        top = ref.singular_values[: rep.rank]
        assert np.max(np.abs(rep.singular_values - top) / top) <= 1e-13
        fr = ref.explained_fractions[: rep.rank]
        assert np.max(np.abs(rep.explained_fractions - fr) / fr) <= 1e-13
        for frac in (0.3, 0.5, 0.9, 0.95, 0.999, 1.0):
            assert components_for_threshold(rep, frac) == components_for_threshold(ref, frac)

    def test_sv_tail_stats_takes_the_same_path(self):
        m = planted(600, 800, 5, 0)
        rep = sv_tail_stats(m)
        uncentered = pca_explained(m)
        assert rep.tail_count == uncentered.tail_count == 595
        assert np.array_equal(rep.singular_values, uncentered.singular_values)
        assert rep.tail_bound == uncentered.tail_bound

    def test_rank_above_first_sketch_grows_k(self):
        # The first sketch has 16 columns and certifies only a rank below 16,
        # so a certified rank of 20 means the sketch grew.
        m = planted(600, 800, 20, 1)
        rep = pca_explained(m)
        assert rep.rank == len(rep.singular_values) == 20
        assert rep.tail_count == 580
        ref = full_svd_report(m)
        assert np.array_equal(rep.counts_per_log_band, ref.counts_per_log_band)
        top = ref.singular_values[:20]
        assert np.max(np.abs(rep.singular_values - top) / top) <= 1e-13

    def test_full_rank_falls_back_to_full_svd(self):
        m = RngStream(67, 2).generator().normal(size=(200, 240))
        rep = pca_explained(m)
        ref = full_svd_report(m)
        assert rep.tail_count == 0 and rep.tail_bound == 0.0
        assert rep.singular_values.tobytes() == ref.singular_values.tobytes()
        assert rep.explained_fractions.tobytes() == ref.explained_fractions.tobytes()
        assert np.array_equal(rep.counts_per_log_band, ref.counts_per_log_band)

    @pytest.mark.parametrize("offset, certified", [(1e-14, False), (1e-10, True)],
                             ids=["within-residual", "clear-of-edge"])
    def test_value_near_a_band_edge(self, offset, certified):
        # sigma_2 = e^-1 + offset over a round-off tail; the residual is ~3e-14,
        # so the band of sigma_2 is certain only when offset exceeds it.
        gen = RngStream(67, 3).generator()
        u, _ = np.linalg.qr(gen.normal(size=(300, 2)))
        v, _ = np.linalg.qr(gen.normal(size=(300, 2)))
        m = (u * [1.5, math.exp(-1) + offset]) @ v.T + 1e-16 * gen.normal(size=(300, 300))
        rep = pca_explained(m)
        assert rep.rank == 2
        assert (rep.tail_count > 0) == certified
        assert np.array_equal(rep.counts_per_log_band, full_svd_report(m).counts_per_log_band)

    def test_overflowing_power_step_falls_back(self):
        # sigma^3 overflows float64 in M·Mᵀ·M·Ω; the full SVD does not.
        m = 1e110 * planted(100, 120, 3, 5)
        rep = pca_explained(m)
        ref = full_svd_report(m)
        assert rep.tail_count == 0 and rep.rank == ref.rank == 3
        assert rep.singular_values.tobytes() == ref.singular_values.tobytes()

    def test_residual_holds_one_block(self):
        # The residual M - QB is taken in one reused _RESIDUAL_ROWS x cols
        # buffer; the sketch's other arrays are cols x k.
        m = planted(2000, 2000, 8, 6)
        pca_explained(planted(300, 300, 8, 6))  # lazy imports, outside the trace
        tracemalloc.start()
        try:
            rep = pca_explained(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.rank == 8 and rep.tail_count == 1992
        assert peak < 1.5 * 256 * 2000 * 8

    def test_all_zero_falls_back(self):
        rep = pca_explained(np.zeros((80, 90)))
        assert rep.degenerate and rep.rank == 0 and rep.tail_count == 0

    def test_repeat_calls_are_byte_identical(self):
        m = planted(600, 800, 5, 4)
        c = m - m.mean(axis=0, keepdims=True)
        a, b = pca_explained(c), pca_explained(c)
        for field in ("singular_values", "explained_fractions", "counts_per_log_band"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        assert (a.rank, a.tail_count, a.tail_bound) == (b.rank, b.tail_count, b.tail_bound)

    def test_zero_columns_rejected(self):
        with pytest.raises(ConfigError, match="zero columns"):
            pca_explained(np.zeros((3, 0)))
