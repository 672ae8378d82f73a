import json
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mergelimits import geometry, merge, rht
from mergelimits.errors import ConfigError, NumericError
from mergelimits.experiments import (
    MAX_SIZE,
    ExperimentConfig,
    Report,
    SpectrumDescriptor,
    emit_report,
    gen_experts,
    gen_quadratic_task,
    run_kinematics,
    run_rht_study,
    run_saturation,
)
from mergelimits.plotting import plot_svg
from mergelimits.tensorio import RngStream


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
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

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
        experts = gen_experts(cfg)
        for e in experts[1:]:
            assert np.allclose(e, experts[0], atol=1e-12)

    def test_independent_cross_correlation_small(self):
        cfg = ExperimentConfig(seed=4, dimension=100_000, n_experts=3, rho=0.0)
        a, b, c = gen_experts(cfg)
        for x, y in [(a, b), (a, c), (b, c)]:
            r = float(np.corrcoef(x, y)[0, 1])
            assert abs(r) <= 0.01

    def test_default_rho_recovered(self):
        cfg = ExperimentConfig(seed=5, dimension=100_000, n_experts=4, rho=0.5)
        experts = gen_experts(cfg)
        for i in range(4):
            for j in range(i + 1, 4):
                r = float(np.corrcoef(experts[i], experts[j])[0, 1])
                assert r == pytest.approx(0.5, abs=0.02)

    def test_marginal_variance(self):
        cfg = ExperimentConfig(seed=6, dimension=100_000, n_experts=2, sigma2=2.0, rho=0.3)
        for e in gen_experts(cfg):
            assert e.var() == pytest.approx(2.0, rel=0.03)

    def test_determinism(self):
        cfg = ExperimentConfig(seed=7, dimension=50, n_experts=2)
        a = gen_experts(cfg)
        b = gen_experts(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_low_rank_second_moments(self):
        cfg = ExperimentConfig(seed=8, dimension=400, n_experts=6, rank=4, sigma2=1.5)
        deltas = gen_experts(cfg, low_rank=True)
        full = gen_experts(cfg)
        for d, f in zip(deltas, full):
            assert d.shape == f.shape == (400,) and d.dtype == np.float64
            # Frobenius rescale preserves the total second moment within 5%.
            assert float((d**2).mean()) == pytest.approx(float((f**2).mean()), rel=0.05)

    @pytest.mark.parametrize(
        "seed, side, rank", [(8, 64, 4), (9, 64, 4), (10, 256, 8), (11, 256, 8)]
    )
    def test_low_rank_is_rescaled_truncated_svd(self, seed, side, rank):
        cfg = ExperimentConfig(seed=seed, dimension=side * side, n_experts=3, rank=rank)
        for d, f in zip(gen_experts(cfg, low_rank=True), gen_experts(cfg)):
            m = f.reshape(side, side)
            u, s, vt = np.linalg.svd(m)
            rescale = np.linalg.norm(s) / np.linalg.norm(s[:rank])
            ref = rescale * (u[:, :rank] * s[:rank]) @ vt[:rank]
            assert d.shape == (side * side,)
            dense = d.reshape(side, side)
            assert np.linalg.norm(dense - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.linalg.norm(dense) == pytest.approx(np.linalg.norm(m), rel=1e-12)
            assert np.linalg.matrix_rank(dense) == rank

    @pytest.mark.parametrize(
        "seed, dim, n, sigma2, rho",
        [(0, 1, 1, 1.0, 0.5), (1, 50, 12, 0.7, 0.0), (2, 500, 10, 2.5, 1.0),
         (3, 3000, 7, 1.0, 0.5), (4, 64, 200, 1e-3, 0.999), (5, 4096, 3, 9.0, 0.01)],
    )
    def test_equals_the_shared_factor_expression(self, seed, dim, n, sigma2, rho):
        # The stack is combined in place; it must hold the bits of the
        # expression sigma (sqrt(rho) z0 + sqrt(1 - rho) zs).
        cfg = ExperimentConfig(seed=seed, dimension=dim, n_experts=n, sigma2=sigma2, rho=rho)
        gen = RngStream(seed, 1).generator()
        z0 = gen.normal(size=dim)
        zs = gen.normal(size=(n, dim))
        ref = math.sqrt(sigma2) * (math.sqrt(rho) * z0 + math.sqrt(1.0 - rho) * zs)
        experts = gen_experts(cfg)
        assert experts.shape == (n, dim) and experts.dtype == np.float64
        assert experts.tobytes() == ref.tobytes()

    def test_low_rank_needs_square_dim(self):
        with pytest.raises(ConfigError):
            gen_experts(ExperimentConfig(dimension=10), low_rank=True)


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

    def test_matches_committed_demo(self):
        cfg = ExperimentConfig(seed=0, dimension=500, n_experts=10, rho=0.5, delta=0.05)
        committed = Path(__file__).parents[1] / "demos" / "out" / "saturation.csv"
        assert run_saturation(cfg).to_csv().encode() == committed.read_bytes()


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
        [(0, [1]), (10, []), (10, range(5, 3))],
        ids=["zero-dim", "empty", "empty-range"],
    )
    def test_bad_sweep_rejected(self, dim, k_values):
        with pytest.raises(ConfigError):
            run_kinematics(dim, k_values, 200, RngStream(70, 5), half_angle=0.5)

    def test_matches_committed_demo(self):
        rep = run_kinematics(60, range(1, 61), 300, RngStream(0, 30), half_angle=math.radians(30))
        committed = Path(__file__).parents[1] / "demos" / "out" / "kinematics_30deg.csv"
        assert rep.to_csv().encode() == committed.read_bytes()

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
        experts = gen_experts(cfg)
        task = gen_quadratic_task(cfg)
        lam_mean = float(task.eigenvalues.mean())
        for n, row in enumerate(rep.rows, 1):
            m = merge.merge_linear(experts[:n], merge.MergeWeights.uniform(n))
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
