import dataclasses
import json
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mergelimits import experiments, geometry, merge, rht, tensorio
from mergelimits.errors import ConfigError, NumericError
from mergelimits.experiments import (
    MAX_SIZE,
    ExperimentConfig,
    Report,
    SpectrumDescriptor,
    _factor_product,
    _merged_blocks,
    emit_report,
    gen_experts,
    gen_quadratic_task,
    run_kinematics,
    run_rht_study,
    run_saturation,
)
from mergelimits.plotting import plot_svg
from mergelimits.subspace import sv_tail_stats
from mergelimits.tensorio import RngStream


def expert_stack(cfg, low_rank=False):
    """cfg's streamed experts as one (N, D) array."""
    return np.concatenate([block for _, block in gen_experts(cfg, low_rank=low_rank)])


class TestSpectrumDescriptor:
    def test_uniform(self):
        assert np.array_equal(SpectrumDescriptor().eigenvalues(5), np.ones(5))

    def test_geometric_condition(self):
        lam = SpectrumDescriptor("geometric", 100.0).eigenvalues(50)
        assert lam.max() / lam.min() == pytest.approx(100.0, abs=1e-8)
        assert np.all(np.diff(lam) > 0)

    def test_rejects(self):
        with pytest.raises(ConfigError):
            SpectrumDescriptor("banded")
        with pytest.raises(ConfigError):
            SpectrumDescriptor("geometric", 0.5)


class TestExperimentConfig:
    def test_json_roundtrip_lossless(self):
        cfg = ExperimentConfig(seed=7, rho=0.3, spectrum=SpectrumDescriptor("geometric", 50.0))
        assert ExperimentConfig.from_json(json.dumps(dataclasses.asdict(cfg))) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"seed": 1, "bogus": 2})

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("{not json")

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(rho=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(dimension=0)

    @pytest.mark.parametrize(
        "fields",
        [{"seed": "a"}, {"seed": 1.5}, {"n_experts": False}, {"rank": 2.0}, {"sigma2": "1"},
         {"epsilon": None}, {"delta": True}],
    )
    def test_field_types_rejected(self, fields):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(fields)

    @pytest.mark.parametrize("name", ["dimension", "n_experts", "rank"])
    def test_sizes_bounded_by_float64_array_limit(self, name):
        # The bound is checked before anything is allocated.
        assert getattr(ExperimentConfig(**{name: MAX_SIZE}), name) == MAX_SIZE
        with pytest.raises(ConfigError, match=str(MAX_SIZE)):
            ExperimentConfig(**{name: MAX_SIZE + 1})

    def test_numpy_scalars_accepted(self):
        cfg = ExperimentConfig(seed=np.int64(3), rho=np.float64(0.25))
        assert cfg.seed == 3 and cfg.rho == 0.25


class TestGenExperts:
    def test_fully_correlated_identical(self):
        cfg = ExperimentConfig(seed=3, dimension=100, n_experts=4, rho=1.0)
        experts = expert_stack(cfg)
        for e in experts[1:]:
            assert np.allclose(e, experts[0], atol=1e-12)

    def test_independent_cross_correlation_small(self):
        cfg = ExperimentConfig(seed=4, dimension=100_000, n_experts=3, rho=0.0)
        a, b, c = expert_stack(cfg)
        for x, y in [(a, b), (a, c), (b, c)]:
            r = float(np.corrcoef(x, y)[0, 1])
            assert abs(r) <= 0.01

    def test_default_rho_recovered(self):
        cfg = ExperimentConfig(seed=5, dimension=100_000, n_experts=4, rho=0.5)
        experts = expert_stack(cfg)
        for i in range(4):
            for j in range(i + 1, 4):
                r = float(np.corrcoef(experts[i], experts[j])[0, 1])
                assert r == pytest.approx(0.5, abs=0.02)

    def test_marginal_variance(self):
        cfg = ExperimentConfig(seed=6, dimension=100_000, n_experts=2, sigma2=2.0, rho=0.3)
        for e in expert_stack(cfg):
            assert e.var() == pytest.approx(2.0, rel=0.03)

    def test_determinism(self):
        cfg = ExperimentConfig(seed=7, dimension=50, n_experts=2)
        a = expert_stack(cfg)
        b = expert_stack(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_low_rank_second_moments(self):
        # Over 300 seeds, the mean square of the entries sits within 4 z of
        # sigma2 and the mean off-diagonal covariance within 4 z of rho sigma2,
        # at rho 0, 0.5, 0.9 and 1, and at rank = side.
        sigma2, n = 1.5, 3
        for side, rank, rho in [(16, 2, 0.0), (16, 2, 0.5), (16, 2, 0.9), (16, 2, 1.0), (8, 8, 0.5)]:
            squares, covs = [], []
            for seed in range(300):
                cfg = ExperimentConfig(seed=seed, dimension=side * side, n_experts=n, rank=rank,
                                       sigma2=sigma2, rho=rho)
                x = expert_stack(cfg, low_rank=True)
                gram = x @ x.T / x.shape[1]
                squares.append(np.trace(gram) / n)
                covs.append(gram[np.triu_indices(n, 1)].mean())
            for values, target in [(squares, sigma2), (covs, rho * sigma2)]:
                values = np.array(values)
                z = (values.mean() - target) / (values.std(ddof=1) / math.sqrt(values.size))
                assert abs(z) <= 4.0, (side, rank, rho, target, z)

    @pytest.mark.parametrize(
        "seed, side, rank", [(8, 64, 4), (9, 64, 4), (10, 256, 8), (11, 256, 8)]
    )
    def test_low_rank_experts_have_rank_2r(self, seed, side, rank):
        # sqrt(rho) z0 + sqrt(1 - rho) z_i is a sum of two rank-r products.
        cfg = ExperimentConfig(seed=seed, dimension=side * side, n_experts=3, rank=rank)
        for e in expert_stack(cfg, low_rank=True):
            assert e.shape == (side * side,) and e.dtype == np.float64
            assert np.linalg.matrix_rank(e.reshape(side, side)) == 2 * rank

    @pytest.mark.parametrize(
        "seed, side, n, rank, sigma2, rho",
        [(0, 1, 2, 1, 1.0, 0.5), (1, 12, 4, 3, 2.0, 0.2), (2, 20, 3, 20, 0.5, 0.0),
         (3, 9, 5, 2, 1.0, 1.0)],
    )
    def test_low_rank_is_the_factor_construction(self, seed, side, n, rank, sigma2, rho):
        # Stream 1 gives A then B for z0, then for each expert in turn;
        # z = A Bᵀ / sqrt(r), and the experts are sigma (sqrt(rho) z0 + sqrt(1 - rho) z_i).
        gen = RngStream(seed, 1).generator()
        a, b = gen.normal(size=(2, side, rank))
        z0 = a @ b.T / math.sqrt(rank)
        zs = []
        for _ in range(n):
            a, b = gen.normal(size=(2, side, rank))
            zs.append(a @ b.T / math.sqrt(rank))
        ref = math.sqrt(sigma2) * (math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * np.array(zs))
        cfg = ExperimentConfig(seed=seed, dimension=side * side, n_experts=n, rank=rank,
                               sigma2=sigma2, rho=rho)
        blocks = list(gen_experts(cfg, low_rank=True))
        assert [(start, b.shape) for start, b in blocks] == [(i, (1, side * side)) for i in range(n)]
        experts = np.concatenate([b for _, b in blocks])
        assert np.allclose(experts, ref.reshape(n, -1), rtol=1e-13, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize(
        "side, rank, block_normals",
        [(100, 3, None), (300, 5, None), (7, 4, 1)],
        ids=["one-block", "partial-last-block", "one-row-blocks"],
    )
    def test_factor_product_is_the_whole_matrix_sum(self, side, rank, block_normals, monkeypatch):
        # Formed by row blocks (a single one of 655 rows at side 100; 218 and
        # 82 rows at side 300; one row each when a row is longer than a
        # block), every entry takes the operations of the plain sum of outer
        # products in the same order: the same bits.
        if block_normals is not None:
            monkeypatch.setattr(experiments, "_BLOCK_NORMALS", block_normals)
        gen = RngStream(side, 1).generator()
        a, b = gen.normal(size=(2, side, rank))
        a /= math.sqrt(rank)
        ref = np.multiply.outer(a[:, 0], b[:, 0])
        for k in range(1, rank):
            ref += np.multiply.outer(a[:, k], b[:, k])
        z = _factor_product(RngStream(side, 1).generator(), side, rank)
        assert z.shape == (1, side * side) and z.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("side, rank, n", [(64, 4, 20), (32, 2, 20)])
    def test_merged_low_rank_experts_saturate_the_parameter_space(self, side, rank, n):
        # The k-expert uniform merge is sigma (sqrt(rho) z0 + sqrt(1 - rho)
        # mean z_i): k + 1 rank-r products, so its rank grows by r per expert
        # until it fills the side.
        cfg = ExperimentConfig(seed=12, dimension=side * side, n_experts=n, rank=rank)
        for start, block in _merged_blocks(gen_experts(cfg, low_rank=True)):
            merged = block[-1].reshape(side, side)
            assert sv_tail_stats(merged).rank == min(rank * (start + 2), side)

    @pytest.mark.parametrize(
        "seed, dim, n, sigma2, rho",
        [(0, 1, 1, 1.0, 0.5), (1, 50, 12, 0.7, 0.0), (2, 500, 10, 2.5, 1.0),
         (3, 3000, 7, 1.0, 0.5), (4, 64, 200, 1e-3, 0.999), (5, 4096, 3, 9.0, 0.01)],
    )
    def test_equals_the_shared_factor_expression(self, seed, dim, n, sigma2, rho):
        # Each block is combined in place; together they must hold the bits
        # of the expression sigma (sqrt(rho) z0 + sqrt(1 - rho) zs).
        cfg = ExperimentConfig(seed=seed, dimension=dim, n_experts=n, sigma2=sigma2, rho=rho)
        gen = RngStream(seed, 1).generator()
        z0 = gen.normal(size=dim)
        zs = gen.normal(size=(n, dim))
        ref = math.sqrt(sigma2) * (math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * zs)
        experts = expert_stack(cfg)
        assert experts.shape == (n, dim) and experts.dtype == np.float64
        assert experts.tobytes() == ref.tobytes()

    def test_low_rank_needs_square_dim(self):
        with pytest.raises(ConfigError):
            gen_experts(ExperimentConfig(dimension=10), low_rank=True)

    @pytest.mark.parametrize(
        "fields, low_rank, match",
        [({"n_experts": 10**18, "dimension": 4}, False, str(MAX_SIZE)),
         ({"dimension": 10}, True, "square dimension"),
         ({"dimension": 16, "rank": 5}, True, "exceeds matrix side")],
        ids=["experts-times-dim", "non-square", "rank-past-side"],
    )
    def test_rejects_on_the_call(self, fields, low_rank, match, monkeypatch):
        # Every ConfigError comes from the call itself, before any stream is opened.
        def no_draw(self):
            raise AssertionError("a rejected config opened a random stream")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        with pytest.raises(ConfigError, match=match):
            gen_experts(ExperimentConfig(**fields), low_rank=low_rank)

    @pytest.mark.parametrize("dim, n", [(1, 1), (3000, 21), (3000, 22), (10_000, 13)])
    def test_blocks_tile_the_rows(self, dim, n):
        # max(1, 2**16 // D) rows a block; the last one holds what is left.
        rows = max(1, 2**16 // dim)
        blocks = list(gen_experts(ExperimentConfig(seed=2, dimension=dim, n_experts=n)))
        assert [start for start, _ in blocks] == list(range(0, n, rows))
        assert [b.shape for _, b in blocks] == [(min(rows, n - s), dim) for s in range(0, n, rows)]


class TestGenQuadraticTask:
    def test_uniform_spectrum(self):
        task = gen_quadratic_task(ExperimentConfig(seed=9, dimension=30))
        assert np.array_equal(task.eigenvalues, np.ones(30))

    def test_geometric_condition(self):
        cfg = ExperimentConfig(
            seed=9, dimension=30, spectrum=SpectrumDescriptor("geometric", 100.0)
        )
        lam = gen_quadratic_task(cfg).eigenvalues
        assert lam.max() / lam.min() == pytest.approx(100.0, abs=1e-8)

    def test_basis_is_none(self):
        task = gen_quadratic_task(ExperimentConfig(seed=10, dimension=40))
        assert task.basis is None
        with pytest.raises(ConfigError, match="mean_rotated_losses"):
            task.loss(task.theta_star)
        with pytest.raises(ConfigError, match="mean_rotated_losses"):
            task.sample_sublevel(RngStream(10, 0))

    @pytest.mark.parametrize("seed,dim", [(0, 1), (10, 40), (123, 300)])
    def test_stream_layout(self, seed, dim, monkeypatch):
        # theta_star is the first D normals of stream 2, the only stream drawn.
        theta_star = RngStream(seed, 2).generator().normal(size=dim)
        drawn = []
        generator = RngStream.generator

        def recording(self):
            drawn.append((self.seed, self.stream_id))
            return generator(self)

        monkeypatch.setattr(RngStream, "generator", recording)
        task = gen_quadratic_task(ExperimentConfig(seed=seed, dimension=dim))
        assert drawn == [(seed, 2)]
        assert np.array_equal(task.theta_star, theta_star)
        assert task.basis is None


# (D, N), with N = 1, D = 1 and N > D among them.
_MERGE_SHAPES = [(1, 1), (1, 7), (3, 50), (500, 10), (3000, 10), (3000, 200), (4096, 64)]


def uniform_merges(cfg):
    """The streamed uniform merges of cfg's experts, stacked."""
    return np.concatenate([block for _, block in _merged_blocks(gen_experts(cfg))])


class TestUniformMerges:
    @pytest.mark.parametrize("dim, n", _MERGE_SHAPES)
    def test_rows_are_prefix_means(self, dim, n, monkeypatch):
        # Blocks of 3 rows: every n > 3 carries its running sum across blocks.
        monkeypatch.setattr(tensorio, "_BLOCK_NORMALS", 3 * dim)
        for seed in range(5):
            cfg = ExperimentConfig(seed=seed, dimension=dim, n_experts=n)
            experts, merges = expert_stack(cfg), uniform_merges(cfg)
            for k in range(1, n + 1):
                assert np.array_equal(merges[k - 1], experts[:k].mean(axis=0))

    def test_in_place_with_no_second_stack(self):
        blocks = [np.full((2, 3), 4.0), np.full((1, 3), 1.0), np.full((3, 3), -2.0)]
        starts, merged = zip(*_merged_blocks(zip([0, 2, 3], blocks)))
        assert starts == (0, 2, 3) and all(m is b for m, b in zip(merged, blocks))
        assert np.array_equal(np.concatenate(merged)[:, 0], [4.0, 4.0, 3.0, 1.75, 1.0, 0.5])
        # Streamed, the merges hold about two blocks, not the N x D stack.
        cfg = ExperimentConfig(seed=1, dimension=3000, n_experts=1000)
        next(gen_experts(cfg))  # numpy.random's lazy import, outside the trace
        tracemalloc.start()
        try:
            for _ in _merged_blocks(gen_experts(cfg)):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000 * 3000 * 8 / 10

    # (1, 50): at D = 1 numpy's mean sums pairwise, so only this bound holds there.
    @pytest.mark.parametrize("dim, n", [*_MERGE_SHAPES, (1, 50)])
    def test_within_ulps_of_weighted_gemv(self, dim, n):
        cfg = ExperimentConfig(seed=dim + n, dimension=dim, n_experts=n)
        experts, merges = expert_stack(cfg), uniform_merges(cfg)
        eps = np.finfo(np.float64).eps
        for k in range(1, n + 1):
            gemv = merge.merge_linear(experts[:k], merge.MergeWeights.uniform(k))
            bound = 2 * k * eps * np.abs(experts[:k]).max(axis=0)
            assert np.all(np.abs(merges[k - 1] - gemv) <= bound)

    def test_sweeps_take_no_weighted_merge(self, monkeypatch):
        def no_merge(*args, **kwargs):
            raise AssertionError("a sweep merged a prefix through merge_linear")

        monkeypatch.setattr(merge, "merge_linear", no_merge)
        monkeypatch.setattr(merge.MergeWeights, "uniform", staticmethod(no_merge))
        cfg = ExperimentConfig(seed=9, dimension=100, n_experts=6)
        experts = expert_stack(cfg)
        sat, study = run_saturation(cfg), run_rht_study(cfg)
        for n, (sat_row, study_row) in enumerate(zip(sat.rows, study.rows), 1):
            var = float(experts[:n].mean(axis=0).var())
            assert sat_row[2] == var and study_row[3] == var


class TestRunSaturation:
    def test_default_stops(self):
        rep = run_saturation(ExperimentConfig(seed=1))
        assert rep.extra["stop_n_successive"] == 3
        assert rep.extra["n_max"] == 10
        assert rep.extra["variance_limit"] == 0.5

    def test_independent_experts_scale_inverse_n(self):
        rep = run_saturation(ExperimentConfig(seed=2, rho=0.0, delta=0.001, n_experts=8))
        ana = [row[1] for row in rep.rows]
        assert ana == pytest.approx([1.0 / n for n in range(1, 9)], rel=1e-12)

    def test_fully_correlated_flat(self):
        rep = run_saturation(ExperimentConfig(seed=2, rho=1.0, n_experts=5))
        ana = [row[1] for row in rep.rows]
        assert all(v == ana[0] for v in ana)
        assert rep.extra["n_max"] == 0

    def test_mc_variance_tracks_analytic(self):
        rep = run_saturation(ExperimentConfig(seed=3, dimension=10_000, n_experts=6))
        for _, ana, mc, se, *_ in (tuple(r) for r in rep.rows):
            assert abs(mc - ana) < 4 * se

    def test_expected_loss_monotone_nonincreasing(self):
        rep = run_saturation(ExperimentConfig(seed=4))
        losses = [row[4] for row in rep.rows]
        assert all(a >= b for a, b in zip(losses, losses[1:]))

    def test_deterministic(self):
        cfg = ExperimentConfig(seed=5, dimension=100, n_experts=4)
        assert run_saturation(cfg).to_csv() == run_saturation(cfg).to_csv()

    def test_never_builds_basis(self, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("run_saturation built the Hessian basis")

        monkeypatch.setattr(geometry, "haar_orthogonal", no_basis)
        rep = run_saturation(ExperimentConfig(seed=5, dimension=100, n_experts=4))
        assert len(rep.rows) == 4

    @pytest.mark.parametrize("kind", ["uniform", "geometric"])
    @pytest.mark.parametrize("d, n", [(1, 5), (7, 20), (500, 10), (3000, 40)])
    def test_width_columns_are_one_jensen_prefix(self, kind, d, n):
        cfg = ExperimentConfig(seed=6, dimension=d, n_experts=n, spectrum=SpectrumDescriptor(kind, 1e4))
        rep = run_saturation(cfg)
        assert "redundancy_ok" not in rep.columns
        assert len(rep.columns) == len(rep.rows[0])
        col = {c: np.array([row[i] for row in rep.rows]) for i, c in enumerate(rep.columns)}
        width, gain = col["width"], col["marginal_gain"]
        task, m = gen_quadratic_task(cfg), min(n, d)
        assert width.tolist() == [geometry.width_jensen(task, min(k, d)) for k in range(1, n + 1)]
        assert np.array_equal(np.diff(width, prepend=0.0), gain)
        assert np.array_equal(gain[:m], geometry.marginal_gains(task, m))
        assert np.all(width[m:] == width[m - 1]) and np.all(gain[m:] == 0.0)

    def test_matches_committed_demo(self):
        cfg = ExperimentConfig(seed=0, dimension=500, n_experts=10, rho=0.5, delta=0.05)
        committed = Path(__file__).parents[1] / "demos" / "out" / "saturation.csv"
        assert run_saturation(cfg).to_csv().encode() == committed.read_bytes()


def _exact_stops(sigma2, rho, delta, n_total):
    """(successive, distance) stop indices, by scanning the trace
    sigma2 (rho + (1 - rho)/n) in exact rational arithmetic."""
    trace = [sigma2 * (rho + (1 - rho) / Fraction(n)) for n in range(1, n_total + 1)]
    succ = next((i for i in range(1, n_total) if trace[i - 1] - trace[i] < delta), None)
    dist = next((i for i, v in enumerate(trace) if v - sigma2 * rho < delta), None)
    return succ, dist


class TestSaturationStops:
    """run_saturation reads both stops off n_max; these tests search the trace."""

    def test_match_float_search_off_the_boundaries(self):
        # Away from an integer sigma2 (1 - rho) / delta, rounding cannot move
        # either stop, so the float search of the trace is the reference.
        gen = RngStream(80, 0).generator()
        checked = 0
        while checked < 5000:
            n_total = int(gen.integers(2, 21))
            sigma2, rho = float(gen.uniform(0.1, 10.0)), float(gen.uniform(0.0, 0.9))
            delta = sigma2 * (1 - rho) / math.exp(gen.uniform(math.log(0.1), 2 * math.log(n_total)))
            x = sigma2 * (1 - rho) / delta
            if abs(x - round(x)) <= 1e-9:
                continue
            cfg = ExperimentConfig(dimension=1, n_experts=n_total, sigma2=sigma2, rho=rho, delta=delta)
            rep = run_saturation(cfg)
            trace = [row[1] for row in rep.rows]
            below = np.nonzero(np.asarray(trace) - rep.extra["variance_limit"] < delta)[0]
            assert rep.extra["stop_n_successive"] == merge.termination_check(trace, delta)
            assert rep.extra["stop_index_distance"] == (int(below[0]) if below.size else None)
            checked += 1

    @pytest.mark.parametrize(
        "sigma2, rho",
        [(Fraction(1, 2), Fraction(1, 10)), (Fraction(1), Fraction(1, 2)), (Fraction(3), Fraction(1, 3)),
         (Fraction(7, 5), Fraction(0)), (Fraction(9, 4), Fraction(17, 20))],
        ids=lambda f: str(f),
    )
    def test_match_exact_arithmetic_on_the_boundaries(self, sigma2, rho):
        # delta = sigma2 (1 - rho)/k puts the distance stop on a boundary,
        # and k = j (j + 1) puts the successive stop on one as well.
        n_total = 30
        for k in sorted({*range(1, n_total + 3), *(j * (j + 1) for j in range(1, 10))}):
            delta = sigma2 * (1 - rho) / k
            cfg = ExperimentConfig(
                dimension=1, n_experts=n_total, sigma2=float(sigma2), rho=float(rho), delta=float(delta)
            )
            rep = run_saturation(cfg)
            assert rep.extra["n_max"] == k
            stops = rep.extra["stop_n_successive"], rep.extra["stop_index_distance"]
            assert stops == _exact_stops(sigma2, rho, delta, n_total)

    @pytest.mark.parametrize(
        "sigma2, rho, delta, n_total, key, stop",
        [(0.5, 0.1, 0.45 / 15, 20, "stop_index_distance", 15),
         (1.0, 0.5, 0.5 / 12, 10, "stop_n_successive", 4)],
        ids=["distance", "successive"],
    )
    def test_boundary_examples(self, sigma2, rho, delta, n_total, key, stop):
        # A float search of the trace gives 14 and 3: it rounds the gap or
        # the gain below delta where exact arithmetic has them equal.
        cfg = ExperimentConfig(dimension=1, n_experts=n_total, sigma2=sigma2, rho=rho, delta=delta)
        assert run_saturation(cfg).extra[key] == stop

    def test_distance_to_limit(self):
        # sigma^2 (1 - rho) / n < 0.04 first at n = 13 (index 12).
        rep = run_saturation(ExperimentConfig(dimension=1, n_experts=29, rho=0.5, delta=0.04))
        assert rep.extra["stop_index_distance"] == 12 == rep.extra["n_max"]


class TestRunKinematics:
    def test_subspace_exact_step(self):
        d, k1 = 12, 5
        rep = run_kinematics(d, range(1, d + 1), 200, RngStream(70, 0), subspace_dim=k1)
        for k, p in rep.rows:
            assert p == (1.0 if k1 + k > d else 0.0)
        assert rep.extra["crossing_k"] == d - k1 + 1
        assert rep.extra["predicted_crossing"] == d - k1

    def test_cone_crossing_near_prediction(self):
        d = 40
        rep = run_kinematics(
            d, range(1, d + 1), 300, RngStream(70, 1), half_angle=math.radians(30)
        )
        pred = rep.extra["predicted_crossing"]
        assert abs(rep.rows and rep.extra["crossing_k"] - pred) <= 2 * math.ceil(math.sqrt(d))

    def test_requires_exactly_one_body(self):
        with pytest.raises(ConfigError):
            run_kinematics(10, [1], 200, RngStream(70, 2))
        with pytest.raises(ConfigError):
            run_kinematics(10, [1], 200, RngStream(70, 3), half_angle=0.5, subspace_dim=2)

    @pytest.mark.parametrize(
        "dim, k_values",
        [(0, [1]), (10, []), (10, range(5, 3)), (10, [2.5])],
        ids=["zero-dim", "empty", "empty-range", "float-k"],
    )
    def test_bad_sweep_rejected(self, dim, k_values):
        with pytest.raises(ConfigError):
            run_kinematics(dim, k_values, 200, RngStream(70, 5), half_angle=0.5)

    @pytest.mark.parametrize("deg", [20, 30, 45])
    def test_matches_committed_demo(self, deg):
        rep = run_kinematics(
            60, range(1, 61), 300, RngStream(0, deg), half_angle=math.radians(deg)
        )
        committed = Path(__file__).parents[1] / "demos" / "out" / f"kinematics_{deg}deg.csv"
        assert rep.to_csv().encode() == committed.read_bytes()

    @pytest.mark.parametrize("deg", [20, 30, 45])
    def test_curve_non_decreasing_with_unique_crossing(self, deg):
        d = 60
        rep = run_kinematics(d, range(1, d + 1), 200, RngStream(71, deg), half_angle=math.radians(deg))
        ps = [p for _, p in rep.rows]
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        crossing = rep.extra["crossing_k"]
        assert all((p >= 0.5) == (k >= crossing) for k, p in rep.rows)

    def test_one_draw_per_substream(self, monkeypatch):
        # statdim is exact and draws nothing; the whole sweep reads substream 1:
        # trials x D normals for every k together, not one block per k.
        sites, normals = {}, {}
        generator = RngStream.generator

        class Counting:
            def __init__(self, stream_id, gen):
                self.stream_id, self.gen = stream_id, gen

            def normal(self, size):
                normals[self.stream_id] = normals.get(self.stream_id, 0) + math.prod(size)
                return self.gen.normal(size=size)

        def recording(self):
            sites.setdefault((self.seed, self.stream_id), set()).add(sys._getframe(1).f_code.co_name)
            return Counting(self.stream_id, generator(self))

        monkeypatch.setattr(RngStream, "generator", recording)
        d, trials = 60, 300
        stream = RngStream(72, 4)
        run_kinematics(d, range(1, d + 1), trials, stream, subspace_dim=20)
        assert sites == {}
        run_kinematics(d, range(1, d + 1), trials, stream, half_angle=math.radians(30))
        assert sites == {(72, 6): {"kinematics_transition"}}
        assert normals == {6: trials * d}

    def test_rows_json_safe(self):
        rep = run_kinematics(8, [2, 6], 200, RngStream(70, 4), subspace_dim=4)
        json.dumps(rep.rows)
        json.dumps(rep.extra)


class TestRunRhtStudy:
    def test_deterministic_bytes(self):
        cfg = ExperimentConfig(seed=6, dimension=100, n_experts=4)
        assert run_rht_study(cfg).to_csv() == run_rht_study(cfg).to_csv()

    def test_coverage_pair_emitted(self):
        rep = run_rht_study(ExperimentConfig(seed=7, dimension=100, n_experts=3))
        extra = rep.extra
        assert extra["coverage_gaussian"] > 0
        assert extra["coverage_rht"] > 0
        assert extra["coverage_rht_exceeds"] == (
            extra["coverage_rht"] > extra["coverage_gaussian"]
        )

    def test_paired_rows_align(self):
        rep = run_rht_study(ExperimentConfig(seed=8, dimension=100, n_experts=5))
        assert [row[0] for row in rep.rows] == list(range(1, 6))
        for row in rep.rows:
            assert all(math.isfinite(v) for v in row[1:])

    def test_losses_are_exact_orientation_means(self):
        # loss = 0.5 |theta - theta*|^2 mean(lambda), so the RHT-over-baseline
        # ratio is |t - theta*|^2 / |m - theta*|^2 exactly.
        cfg = ExperimentConfig(
            seed=12, dimension=200, n_experts=4, spectrum=SpectrumDescriptor("geometric", 100.0)
        )
        rep = run_rht_study(cfg)
        experts = expert_stack(cfg)
        task = gen_quadratic_task(cfg)
        lam_mean = float(task.eigenvalues.mean())
        for n, row in enumerate(rep.rows, 1):
            m = experts[:n].mean(axis=0)
            t = rht.apply_rht(m, cfg.rht_params, RngStream(cfg.seed, 100 + n))
            dm = float(np.sum((m - task.theta_star) ** 2))
            dt = float(np.sum((t - task.theta_star) ** 2))
            assert row[1] == pytest.approx(0.5 * dm * lam_mean, rel=1e-13)
            assert row[2] == pytest.approx(0.5 * dt * lam_mean, rel=1e-13)
            assert row[2] / row[1] == pytest.approx(dt / dm, rel=1e-13)
        # sd / mean from the uncentred moments, sqrt(2 (D sum l^2 - (sum l)^2) / (D^2 (D+2))).
        lam, d = task.eigenvalues, cfg.dimension
        spread = d * float(np.sum(lam**2)) - float(np.sum(lam)) ** 2
        cv = math.sqrt(2.0 * spread / (d * d * (d + 2))) / lam_mean
        assert rep.extra["loss_orientation_cv"] == pytest.approx(cv, rel=1e-13)
        assert 0.0 < rep.extra["loss_orientation_cv"] < 1.0

    def test_more_scored_vectors_than_dimensions(self):
        rep = run_rht_study(ExperimentConfig(seed=8, dimension=4, n_experts=5))
        assert [row[0] for row in rep.rows] == list(range(1, 6))
        for row in rep.rows:
            assert row[1] >= 0 and row[2] >= 0
            assert all(math.isfinite(v) for v in row[1:])

    def test_never_builds_basis(self, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("run_rht_study built the Hessian basis")

        monkeypatch.setattr(geometry, "haar_orthogonal", no_basis)
        rep = run_rht_study(ExperimentConfig(seed=9, dimension=100, n_experts=4))
        assert len(rep.rows) == 4

    def test_each_stream_has_one_draw_site(self, monkeypatch):
        sites = {}
        generator = RngStream.generator

        def recording(self):
            sites.setdefault((self.seed, self.stream_id), set()).add(sys._getframe(1).f_code.co_name)
            return generator(self)

        monkeypatch.setattr(RngStream, "generator", recording)
        run_rht_study(ExperimentConfig(seed=10, dimension=50, n_experts=6))
        assert all(len(where) == 1 for where in sites.values()), sites
        ids = {stream_id for _, stream_id in sites}
        # Stream 2 is theta_star; streams 5 and 6 are retired.
        assert 2 in ids and not {5, 6} & ids
        assert {seed for seed, _ in sites} == {10}

    def test_large_dimension_allocates_no_square_matrix(self):
        d = 10_000
        tracemalloc.start()
        try:
            rep = run_rht_study(ExperimentConfig(seed=11, dimension=d, n_experts=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < d * d * 8 / 4
        assert rep.extra["tail_diagnostics"] is not None


def whole_stack_reports(cfg):
    """run_saturation and run_rht_study with every cell that reads the experts
    recomputed from the whole (N, D) stack, one expression each."""
    d, n = cfg.dimension, cfg.n_experts
    gen = RngStream(cfg.seed, 1).generator()
    z0 = gen.normal(size=d)
    zs = gen.normal(size=(n, d))
    experts = math.sqrt(cfg.sigma2) * (math.sqrt(cfg.rho) * z0 + math.sqrt(1.0 - cfg.rho) * zs)
    merges = np.cumsum(experts, axis=0) / np.arange(1.0, n + 1.0)[:, None]
    sat = run_saturation(cfg)
    se = math.sqrt(2.0 / max(d - 1, 1))
    for row, v in zip(sat.rows, merges.var(axis=1).tolist()):
        row[2:4] = v, v * se
    task = gen_quadratic_task(cfg)
    p = cfg.rht_params
    transformed = [rht.apply_rht(m, p, RngStream(cfg.seed, 100 + k)) for k, m in enumerate(merges, 1)]
    offsets = np.stack([*merges, *transformed], axis=1) - task.theta_star[:, None]
    losses, _ = geometry.mean_rotated_losses(task.eigenvalues, offsets)
    study = run_rht_study(cfg)
    for row, lb, lr, m, t in zip(study.rows, *losses.reshape(2, -1).tolist(), merges, transformed):
        row[1:] = lb, lr, float(m.var()), float(t.var())
    if d >= 10_000:
        study.extra["tail_diagnostics"] = dataclasses.asdict(rht.tail_diagnostics(transformed[-1]))
    return sat, study


class TestStreamedRunners:
    # Blocks of 4 rows: N = 3, 4 and 5 are below, equal to and above one
    # block, and N = 5 and 9 end on a one-row block, whose losses are still
    # summed as columns of a (D, 2) array (a lone (D, 1) column numpy sums
    # pairwise).
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    @pytest.mark.parametrize("dim", [1, 7, 500, 10_000])
    def test_reports_equal_the_whole_stack(self, dim, n, monkeypatch):
        monkeypatch.setattr(tensorio, "_BLOCK_NORMALS", 4 * dim)
        cfg = ExperimentConfig(seed=dim + n, dimension=dim, n_experts=n, sigma2=2.5, rho=0.3)
        for expected, got in zip(whole_stack_reports(cfg), (run_saturation(cfg), run_rht_study(cfg))):
            assert got.to_json() == expected.to_json()
            assert got.to_csv() == expected.to_csv()

    def test_saturation_holds_no_stack(self):
        d, n = 10_000, 1000
        cfg = ExperimentConfig(seed=13, dimension=d, n_experts=n)
        run_saturation(ExperimentConfig(dimension=10, n_experts=2))  # lazy imports, outside the trace
        tracemalloc.start()
        try:
            run_saturation(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * d * 8

    def test_rht_study_holds_no_stack(self):
        # Row blocks, O(D) vectors and the coverage proxy's fixed arrays.
        d, n = 10_000, 200
        cfg = ExperimentConfig(seed=14, dimension=d, n_experts=n)
        run_rht_study(ExperimentConfig(dimension=10, n_experts=2))  # lazy imports, outside the trace
        tracemalloc.start()
        try:
            run_rht_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 3


class TestReportIO:
    def _report(self):
        return Report(
            kind="saturation",
            columns=["n", "v"],
            rows=[[1, 1.0], [2, 0.75]],
            config={"seed": 0},
            extra={"n_max": 10},
        )

    def test_csv_idempotent(self, tmp_path):
        rep = self._report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(rep, "csv", p1)
        emit_report(rep, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_embeds_config(self, tmp_path):
        p = tmp_path / "r.csv"
        emit_report(self._report(), "csv", p)
        lines = p.read_text().splitlines()
        header = [ln for ln in lines if ln.startswith("# config:")]
        assert json.loads(header[0].split(":", 1)[1]) == {"seed": 0}
        assert "n,v" in lines

    def test_csv_floats_roundtrip_exactly(self, tmp_path):
        rep = Report("x", ["v"], [[0.1 + 0.2]], {}, {})
        p = tmp_path / "r.csv"
        emit_report(rep, "csv", p)
        data_line = p.read_text().splitlines()[-1]
        assert float(data_line) == 0.1 + 0.2

    def test_cells_are_written_as_plain_scalars(self):
        # A numpy float is a float: its CSV cell is float.__repr__, not np.float64(...).
        header = "# kind: x\n# schema_version: 1\n# config: {}\n# extra: {}\nv\n"
        plain = Report("x", ["v"], [[0.1]], {}, {}, schema_version=1)
        wrapped = Report("x", ["v"], [[np.float64(0.1)]], {}, {}, schema_version=1)
        assert wrapped.to_csv() == plain.to_csv() == header + "0.1\n"
        assert wrapped.to_json() == plain.to_json()
        rows = [[3, 0.1 + 0.2, True, None, "x,y"], [-1, 1e-300, False, None, ""]]
        mixed = Report("mix", ["i", "f", "b", "n", "s"], rows, {"seed": 0}, {}, schema_version=1)
        assert mixed.to_csv() == (
            '# kind: mix\n# schema_version: 1\n# config: {"seed": 0}\n# extra: {}\n'
            'i,f,b,n,s\n3,0.30000000000000004,True,,"x,y"\n-1,1e-300,False,,\n'
        )
        fields = {"kind": "mix", "schema_version": 1, "config": {"seed": 0}, "extra": {},
                  "columns": ["i", "f", "b", "n", "s"], "rows": rows}
        assert mixed.to_json() == json.dumps(fields, indent=2, sort_keys=True)

    def test_empty_sweep_header_only(self, tmp_path):
        rep = Report("x", ["a", "b"], [], {"seed": 1}, {})
        p = tmp_path / "r.csv"
        emit_report(rep, "csv", p)
        lines = p.read_text().splitlines()
        assert lines[-1] == "a,b"

    def test_json_roundtrip(self, tmp_path):
        rep = self._report()
        p = tmp_path / "r.json"
        emit_report(rep, "json", p)
        back = Report.from_json(p.read_text())
        assert back == rep

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_opens_no_file(self, tmp_path, fmt, value):
        for rep in (
            Report("x", ["v"], [[1.0], [value]], {}, {}),
            Report("x", ["v"], [], {"a": {"b": [value]}}, {}),
            Report("x", ["v"], [], {}, {"a": value}),
        ):
            with pytest.raises(NumericError, match="non-finite"):
                emit_report(rep, fmt, tmp_path / "r")
            assert not (tmp_path / "r").exists()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(self._report(), "yaml", tmp_path / "r.yaml")


class TestPlotSvg:
    def test_byte_deterministic(self, tmp_path):
        series = [("a", [0, 1, 2], [1.0, 0.75, 0.6])]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        plot_svg(series, p1)
        plot_svg(series, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_point(self, tmp_path):
        p = tmp_path / "p.svg"
        plot_svg([("pt", [1.0], [2.0])], p)
        text = p.read_text()
        assert "<circle" in text and text.startswith("<svg")

    def test_two_series(self, tmp_path):
        p = tmp_path / "s.svg"
        plot_svg([("a", [0, 1], [0, 1]), ("b", [0, 1], [1, 0])], p)
        assert p.read_text().count("<polyline") == 2

    def test_rejects_bad_input(self, tmp_path):
        with pytest.raises(ConfigError):
            plot_svg([], tmp_path / "x.svg")
        with pytest.raises(ConfigError):
            plot_svg([("a", [1, 2], [1.0])], tmp_path / "x.svg")
        with pytest.raises(NumericError):
            plot_svg([("a", [0.0], [math.nan])], tmp_path / "x.svg")
