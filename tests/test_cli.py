import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mergelimits
from mergelimits import cli, geometry, merge, subspace, tensorio
from mergelimits.cli import build_parser, main
from mergelimits.experiments import MAX_SIZE, ExperimentConfig, Report, gen_experts
from mergelimits.tensorio import RngStream, read_pvec, write_matrix, write_pvec


@pytest.fixture
def small_config(tmp_path):
    cfg = ExperimentConfig(seed=1, dimension=64, n_experts=3)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(cfg)))
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


def expert_stack(cfg, low_rank):
    """cfg's streamed library experts as one (N, D) array."""
    return np.concatenate([block for _, block in gen_experts(cfg, low_rank=low_rank)])


def test_import_leaves_scipy_submodules_unloaded():
    # scipy.stats and scipy.optimize cost ~1 s of import; only the calls that
    # need them import them.
    code = (
        "import sys, mergelimits.cli; "
        "print([m for m in ('scipy.stats', 'scipy.optimize', 'scipy.integrate', 'scipy.linalg')"
        " if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cone_kinematics_loads_no_scipy(tmp_path):
    # The exact statistical dimension is a numpy quadrature: importing
    # scipy.special alone would cost ~100 times the whole cone run.
    argv = ["kinematics", "--dim", "60", "--half-angle-deg", "30", "--trials", "200",
            "--out", str(tmp_path)]
    code = (
        f"import sys, mergelimits.cli; code = mergelimits.cli.main({argv!r}); "
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "kinematics.csv").exists()


def test_expert_path_loads_no_scipy(tmp_path):
    # gen-experts, merge, rht and subspace run on numpy alone: a cold run
    # pays no ~0.3 s scipy.linalg import and keeps one OpenBLAS thread pool.
    for i in range(3):
        write_pvec(np.linspace(-1.0, 1.0, 16) * (i + 1), tmp_path / f"e{i}.mmpv")
    write_matrix(np.arange(48.0).reshape(6, 8) ** 2, tmp_path / "m.mmmx")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dimension": 16, "n_experts": 2, "rank": 2}))
    out = str(tmp_path / "out")
    argvs = [
        ["gen-experts", "--config", str(config), "--out", str(tmp_path / "dense")],
        ["gen-experts", "--low-rank", "--config", str(config), "--out", str(tmp_path / "lr")],
        ["merge", *(str(tmp_path / f"e{i}.mmpv") for i in range(3)), "--out", out],
        ["rht", f"{out}/merged.mmpv", "--out", out],
        ["subspace", str(tmp_path / "m.mmmx"), "--out", out],
    ]
    code = (
        f"import sys, mergelimits.cli; codes = [mergelimits.cli.main(a) for a in {argvs!r}]; "
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"
    assert sorted(os.listdir(out)) == ["merged.mmpv", "rht.mmpv", "subspace.csv"]
    for name in ("dense", "lr"):
        assert sorted(os.listdir(tmp_path / name)) == ["expert_000.mmpv", "expert_001.mmpv"]


def test_low_rank_bits_do_not_depend_on_blas(tmp_path):
    # A factor product is a fixed-order sum of outer products, not a BLAS
    # call: the files are the same under every OpenBLAS kernel and thread count.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "dimension": 96 * 96, "n_experts": 3, "rank": 8}))
    code = (
        "import hashlib, pathlib, sys, mergelimits.cli; out = pathlib.Path(sys.argv[1]); "
        f"assert mergelimits.cli.main(['gen-experts', '--low-rank', '--config', {str(config)!r}, "
        "'--out', str(out)]) == 0; "
        "print(hashlib.sha256(b''.join(p.read_bytes() for p in sorted(out.iterdir()))).hexdigest())"
    )
    settings = [{"OPENBLAS_CORETYPE": c} for c in
                ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")]
    settings += [{"OPENBLAS_NUM_THREADS": t} for t in ("1", "2")]
    digests = set()
    for i, setting in enumerate(settings):
        env = {**os.environ, **setting, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / f"run{i}")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.split()[-1])
    assert len(digests) == 1


def test_low_rank_files_keep_their_bits(tmp_path):
    # The factor products are formed by row blocks (218 and 82 rows at side
    # 300) and hold the bits of the whole-matrix sums: sha256 over the files
    # in name order.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "dimension": 90000, "n_experts": 3, "rank": 5}))
    assert run(["gen-experts", "--low-rank", "--config", config, "--out", tmp_path / "o"]) == 0
    files = sorted((tmp_path / "o").iterdir())
    assert [p.name for p in files] == ["expert_000.mmpv", "expert_001.mmpv", "expert_002.mmpv"]
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
    assert digest == "61c97d7d6bebaba231818b89efb9252fa06e1b684e62c96140deb14f9c57f8ba"


def fixed_order_merge(rows, alphas):
    """Reference: acc = alpha_0 x_0, then acc += alpha_i x_i in row order."""
    acc = alphas[0] * rows[0]
    for alpha, x in zip(alphas[1:], rows[1:]):
        acc += alpha * x
    return acc


def test_merged_bits_do_not_depend_on_blas(tmp_path):
    # merge adds the experts in file order with no BLAS call: one output
    # under every OpenBLAS kernel and thread count, the fixed-order sum.
    stack = RngStream(13, 0).generator().normal(size=(10, 3000))
    paths = [str(tmp_path / f"e{i}.mmpv") for i in range(len(stack))]
    for row, path in zip(stack, paths):
        write_pvec(row, path)
    code = (
        "import hashlib, pathlib, sys, mergelimits.cli; out = pathlib.Path(sys.argv[1]); "
        f"assert mergelimits.cli.main(['merge', *{paths!r}, '--out', str(out)]) == 0; "
        "print(hashlib.sha256((out / 'merged.mmpv').read_bytes()).hexdigest())"
    )
    settings = [{"OPENBLAS_CORETYPE": c} for c in
                ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")]
    settings += [{"OPENBLAS_NUM_THREADS": t} for t in ("1", "2")]
    digests = set()
    for i, setting in enumerate(settings):
        env = {**os.environ, **setting, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / f"run{i}")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.split()[-1])
    assert len(digests) == 1
    assert read_pvec(tmp_path / "run0" / "merged.mmpv").tobytes() == fixed_order_merge(
        stack, merge.MergeWeights.uniform(len(stack)).alphas).tobytes()


def test_rht_study_loads_no_scipy_stats(tmp_path):
    # The tail kurtosis is numpy: importing scipy.stats alone takes longer
    # than the whole D = 10^4 study.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dimension": 10_000, "n_experts": 6}))
    argv = ["rht-study", "--config", str(config), "--format", "json", "--out", str(tmp_path)]
    code = (
        f"import sys, mergelimits.cli; code = mergelimits.cli.main({argv!r}); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    rep = Report.from_json((tmp_path / "rht_study.json").read_text())
    assert rep.extra["tail_diagnostics"] is not None


class TestGenExperts:
    def test_writes_expert_files(self, tmp_path, small_config, capsys):
        out = tmp_path / "experts"
        assert run(["gen-experts", "--config", small_config, "--out", out]) == 0
        files = sorted(os.listdir(out))
        assert files == ["expert_000.mmpv", "expert_001.mmpv", "expert_002.mmpv"]
        assert read_pvec(out / files[0]).size == 64

    def test_low_rank_variant(self, tmp_path, small_config):
        out = tmp_path / "lr"
        assert run(["gen-experts", "--config", small_config, "--low-rank", "--out", out]) == 0
        assert read_pvec(out / "expert_000.mmpv").size == 64

    def test_low_rank_files_are_library_experts(self, tmp_path):
        cfg = ExperimentConfig(seed=4, dimension=144, n_experts=3, rank=3, sigma2=2.0, rho=0.2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out = tmp_path / "lr"
        assert run(["gen-experts", "--config", path, "--low-rank", "--out", out]) == 0
        for i, e in enumerate(expert_stack(cfg, low_rank=True)):
            written = read_pvec(out / f"expert_{i:03d}.mmpv")
            assert written.tobytes() == e.tobytes()
            assert np.linalg.matrix_rank(written.reshape(12, 12)) == 6

    def test_low_rank_huge_sigma2_is_finite(self, tmp_path):
        # sigma <= 1.34e154 and a factor-product entry is O(10): no entry overflows.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dimension": 16, "n_experts": 2, "rank": 2, "sigma2": 1e308}))
        out = tmp_path / "lr"
        assert run(["gen-experts", "--config", path, "--low-rank", "--out", out]) == 0
        for name in ("expert_000.mmpv", "expert_001.mmpv"):
            e = read_pvec(out / name)
            assert np.all(np.isfinite(e)) and np.abs(e).max() > 1e153

    def test_io_error_keeps_the_experts_before_it(self, tmp_path, capsys):
        # Experts are written as they are made: an I/O error at expert 1
        # leaves expert 0's file, equal to the library's expert 0.
        cfg = ExperimentConfig(seed=1, dimension=16, n_experts=2, rank=2)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        out = tmp_path / "lr"
        (out / "expert_001.mmpv").mkdir(parents=True)
        assert run(["gen-experts", "--config", path, "--low-rank", "--out", out]) == 4
        assert "expert_001.mmpv" in capsys.readouterr().err
        first = next(gen_experts(cfg, low_rank=True))[1][0]
        assert read_pvec(out / "expert_000.mmpv").tobytes() == first.tobytes()

    @pytest.mark.parametrize(
        "cfg, message",
        [({"dimension": 10}, "square dimension"), ({"dimension": 16, "rank": 5}, "exceeds matrix side")],
        ids=["non-square", "rank-past-side"],
    )
    def test_rejected_low_rank_writes_nothing(self, tmp_path, cfg, message, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "lr"
        assert run(["gen-experts", "--config", path, "--low-rank", "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_holds_no_stack(self, tmp_path, capsys):
        # Each expert is written as its block arrives: the peak is one block of
        # 21 rows and the writes, not the 4.8 MB N x D stack.
        n, d = 200, 3000
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 5, "dimension": d, "n_experts": n}))
        assert run(["gen-experts", "--config", path, "--out", tmp_path / "warm"]) == 0  # lazy imports
        tracemalloc.start()
        try:
            assert run(["gen-experts", "--config", path, "--out", tmp_path / "e"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8 / 4
        assert len(os.listdir(tmp_path / "e")) == n

    def test_seed_override_changes_output(self, tmp_path, small_config):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(["gen-experts", "--config", small_config, "--out", out_a])
        run(["gen-experts", "--config", small_config, "--seed", 99, "--out", out_b])
        a = read_pvec(out_a / "expert_000.mmpv")
        b = read_pvec(out_b / "expert_000.mmpv")
        assert not np.array_equal(a, b)


class TestMerge:
    def test_uniform_merge(self, tmp_path):
        p1, p2 = tmp_path / "a.mmpv", tmp_path / "b.mmpv"
        write_pvec(np.array([1.0, 0.0]), p1)
        write_pvec(np.array([0.0, 1.0]), p2)
        out = tmp_path / "m"
        assert run(["merge", p1, p2, "--out", out]) == 0
        assert read_pvec(out / "merged.mmpv").tolist() == [0.5, 0.5]

    def test_explicit_weights(self, tmp_path):
        p1, p2 = tmp_path / "a.mmpv", tmp_path / "b.mmpv"
        write_pvec(np.array([1.0, 0.0]), p1)
        write_pvec(np.array([0.0, 1.0]), p2)
        out = tmp_path / "m"
        assert run(["merge", p1, p2, "--weights", "0.25,0.75", "--out", out]) == 0
        assert read_pvec(out / "merged.mmpv").tolist() == [0.25, 0.75]

    def test_bad_weights_exit_2(self, tmp_path):
        p = tmp_path / "a.mmpv"
        write_pvec(np.ones(2), p)
        assert run(["merge", p, "--weights", "0.4", "--out", tmp_path]) == 2

    @pytest.mark.parametrize("weights", ["a,b", "0.5,", "0.5;0.5", "nan,1", "inf,0", "", " "])
    def test_non_numeric_weights_exit_2(self, tmp_path, weights, capsys):
        p1, p2 = tmp_path / "a.mmpv", tmp_path / "b.mmpv"
        write_pvec(np.ones(2), p1)
        write_pvec(np.ones(2), p2)
        assert run(["merge", p1, p2, "--weights", weights, "--out", tmp_path]) == 2
        assert "--weights" in capsys.readouterr().err
        assert not (tmp_path / "merged.mmpv").exists()

    def test_unequal_lengths_exit_2(self, tmp_path, capsys):
        p1, p2, p3 = tmp_path / "a.mmpv", tmp_path / "b.mmpv", tmp_path / "c.mmpv"
        write_pvec(np.ones(3), p1)
        write_pvec(np.ones(3), p2)
        write_pvec(np.ones(4), p3)
        out = tmp_path / "m"
        assert run(["merge", p1, p2, p3, "--out", out]) == 2
        assert "experts must share one dimension" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_vectors_exit_2(self, tmp_path, capsys):
        p = tmp_path / "empty.mmpv"
        p.write_bytes(b"MMPV" + struct.pack("<IQ", 1, 0))  # a well-formed dim-0 vector
        out = tmp_path / "m"
        assert run(["merge", p, p, "--out", out]) == 2
        assert "empty vectors" in capsys.readouterr().err
        assert not (out / "merged.mmpv").exists()

    @pytest.mark.parametrize("weights", ["0.5,0.5", "0.25,0.25,0.25,0.25"])
    def test_weight_count_checked_before_any_read(self, tmp_path, weights, capsys, monkeypatch):
        def no_read(path):
            raise AssertionError(f"{path} was read before the weights were checked")

        monkeypatch.setattr(tensorio, "read_pvec", no_read)
        paths = [tmp_path / f"missing{i}.mmpv" for i in range(3)]
        assert run(["merge", *paths, "--weights", weights, "--out", tmp_path / "m"]) == 2
        n_weights = weights.count(",") + 1
        assert f"3 experts but {n_weights} weights" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_merge_holds_one_expert_not_the_stack(self, tmp_path):
        # The files are read one at a time into a running sum: the traced
        # peak is the sum and two more D-sized arrays (3.1 D), not the n x D
        # stack.
        n, dim = 24, 1 << 15
        gen = RngStream(14, 0).generator()
        paths = [tmp_path / f"e{i}.mmpv" for i in range(n)]
        for path in paths:
            write_pvec(gen.normal(size=dim), path)
        run(["merge", *paths[:2], "--out", tmp_path / "warm"])  # lazy imports, outside the trace
        tracemalloc.start()
        try:
            assert run(["merge", *paths, "--out", tmp_path / "m"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * dim * 8 < n * dim * 8 / 4

    @pytest.mark.parametrize("weights", [None, "0.1,0.2,0.3,0.4"])
    def test_streamed_merge_is_the_fixed_order_sum(self, tmp_path, weights):
        # From files, from an iterator, from a stack or from a list of rows:
        # the same bits, those of the fixed-order sum.
        stack = RngStream(15, 0).generator().normal(size=(4, 1001))
        paths = [tmp_path / f"e{i}.mmpv" for i in range(len(stack))]
        for row, path in zip(stack, paths):
            write_pvec(row, path)
        flags = [] if weights is None else ["--weights", weights]
        assert run(["merge", *paths, *flags, "--out", tmp_path / "m"]) == 0
        w = (merge.MergeWeights.uniform(4) if weights is None
             else merge.MergeWeights(np.array([float(x) for x in weights.split(",")])))
        ref = fixed_order_merge(stack, w.alphas).tobytes()
        assert read_pvec(tmp_path / "m" / "merged.mmpv").tobytes() == ref
        for experts in (iter(stack), (row for row in stack), stack, list(stack)):
            assert merge.merge_linear(experts, w).tobytes() == ref

    def test_missing_file_exit_4(self, tmp_path):
        assert run(["merge", tmp_path / "nope.mmpv", "--out", tmp_path]) == 4

    def test_corrupt_file_exit_4(self, tmp_path):
        bad = tmp_path / "bad.mmpv"
        bad.write_bytes(b"XXXX" + b"\x00" * 20)
        assert run(["merge", bad, "--out", tmp_path]) == 4


class TestRht:
    def test_transforms_vector(self, tmp_path, small_config):
        p = tmp_path / "v.mmpv"
        write_pvec(np.linspace(-2, 2, 32), p)
        out = tmp_path / "o"
        assert run(["rht", p, "--config", small_config, "--out", out]) == 0
        v = read_pvec(out / "rht.mmpv")
        assert v.size == 32 and np.all(np.isfinite(v))

    def test_empty_vector_exit_2(self, tmp_path, capsys):
        p = tmp_path / "empty.mmpv"
        p.write_bytes(b"MMPV" + struct.pack("<IQ", 1, 0))  # a well-formed dim-0 vector
        out = tmp_path / "o"
        assert run(["rht", p, "--out", out]) == 2
        assert "empty vector" in capsys.readouterr().err
        assert not (out / "rht.mmpv").exists()


class TestWidth:
    def test_emits_both_estimates(self, tmp_path, small_config):
        out = tmp_path / "w"
        assert run(["width", "--config", small_config, "--out", out, "--format", "json"]) == 0
        rep = Report.from_json((out / "width.json").read_text())
        methods = {row[0]: row[1] for row in rep.rows}
        assert methods["monte_carlo"] <= methods["jensen"]

    def test_never_builds_basis(self, tmp_path, small_config, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("width built the Hessian basis")

        monkeypatch.setattr(geometry, "haar_orthogonal", no_basis)
        assert run(["width", "--config", small_config, "--out", tmp_path]) == 0


class TestKinematics:
    def test_subspace_sweep_with_plot(self, tmp_path):
        out = tmp_path / "k"
        code = run(
            ["kinematics", "--dim", 10, "--subspace-dim", 4, "--k-max", 10,
             "--trials", 200, "--out", out, "--plot", "--format", "json"]
        )
        assert code == 0
        rep = Report.from_json((out / "kinematics.json").read_text())
        assert rep.extra["crossing_k"] == 7
        assert (out / "kinematics.svg").exists()

    def test_requires_body_choice_exit_2(self, tmp_path):
        assert run(["kinematics", "--dim", 10, "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--k-step", 0, "--subspace-dim", 4],
            ["--dim", 0, "--half-angle-deg", 30],
            ["--k-min", 5, "--k-max", 2, "--subspace-dim", 4],
            ["--dim", 10, "--k-max", 11, "--half-angle-deg", 30],
            ["--k-min", 0, "--subspace-dim", 4],
        ],
        ids=["zero-step", "zero-dim", "empty-range", "k-max-past-dim", "zero-k-min"],
    )
    def test_bad_sweep_exit_2(self, tmp_path, flags):
        assert run(["kinematics", *flags, "--trials", 200, "--out", tmp_path]) == 2
        assert not (tmp_path / "kinematics.csv").exists()


class TestSaturate:
    def test_csv_and_plot(self, tmp_path, small_config):
        out = tmp_path / "s"
        assert run(["saturate", "--config", small_config, "--out", out, "--plot"]) == 0
        text = (out / "saturation.csv").read_text()
        assert text.startswith("# kind: saturation")
        assert (out / "saturation.svg").exists()

    @pytest.mark.parametrize(
        "cfg, stops",
        [({"rho": 1.0}, (1, 0)), ({"n_experts": 1}, (None, None)), ({"dimension": 1}, (3, None))],
        ids=["rho-1", "one-expert", "one-dimension"],
    )
    def test_edge_configs_exit_0(self, tmp_path, cfg, stops):
        # rho = 1 leaves no margin above the limit (n_max 0), so both stops fall at once.
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["saturate", "--config", path, "--format", "json", "--out", tmp_path]) == 0
        extra = Report.from_json((tmp_path / "saturation.json").read_text()).extra
        assert (extra["stop_n_successive"], extra["stop_index_distance"]) == stops

    def test_missing_config_exit_4(self, tmp_path):
        assert run(["saturate", "--config", tmp_path / "nope.json", "--out", tmp_path]) == 4

    def test_invalid_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"seed": 1, "rho": 2.0}))
        assert run(["saturate", "--config", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "cfg",
        [
            [1, 2],
            {"spectrum": {"bogus": 1}},
            {"spectrum": 5},
            {"rht_params": {"bogus": 1}},
            {"rht_params": {"target": "x"}},
            {"out_dir": "x"},
            {"rht_params": {"alpha": float("nan")}},
            {"rht_params": {"sigma_g_ratio": float("nan")}},
            {"rht_params": {"alpha": float("inf")}},
            {"sigma2": float("inf")},
            {"sigma2": 10**400},
            {"rht_params": {"gamma": 0.5, "alpha": 5.0, "beta": 1e12}},
            {"delta": 1e-320},
        ],
        ids=["not-object", "spectrum-key", "spectrum-type", "rht-key", "rht-target", "out-dir",
             "rht-alpha-nan", "rht-sigma-g-nan", "rht-alpha-inf", "sigma2-inf", "sigma2-huge-int",
             "rht-non-monotone", "n-max-overflow"],
    )
    def test_malformed_config_exit_2(self, tmp_path, cfg):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(["saturate", "--config", bad, "--out", tmp_path]) == 2

    @pytest.mark.parametrize(
        "cfg",
        [{"seed": "a"}, {"seed": 1.5}, {"dimension": True}, {"rank": None}, {"rho": "0.5"},
         {"rht_params": {"alpha": True}}, {"spectrum": {"condition_number": True}},
         {"rht_params": {"alpha": 10**400}}],
        ids=["seed-str", "seed-float", "dimension-bool", "rank-null", "rho-str",
             "rht-alpha-bool", "condition-number-bool", "rht-alpha-huge-int"],
    )
    def test_mistyped_config_exit_2(self, tmp_path, cfg):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert run(["saturate", "--config", bad, "--out", tmp_path]) == 2
        assert not (tmp_path / "saturation.csv").exists()

    def test_non_utf8_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        assert run(["saturate", "--config", bad, "--out", tmp_path]) == 2

    # The merged variance overflows: at 1e305 var_mc and its stderr are inf
    # for n = 1; at 1e306 and D = 20000 expected_loss is inf as well.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "cfg",
        [{"sigma2": 1e305, "dimension": 2000, "n_experts": 3},
         {"sigma2": 1e306, "dimension": 20000, "n_experts": 3}],
        ids=["var-mc-inf", "expected-loss-inf"],
    )
    def test_non_finite_report_exit_3(self, tmp_path, cfg, fmt, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(["saturate", "--config", path, "--format", fmt, "--out", out]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (out / f"saturation.{fmt}").exists()


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["kinematics", "--dim", 10**12, "--half-angle-deg", 30], None),
        (["saturate"], {"dimension": 10**12, "n_experts": 2}),
        (["saturate"], {"n_experts": 10**12, "dimension": 4}),
        (["rht-study"], {"n_experts": 10**12, "dimension": 4}),
        (["gen-experts"], {"dimension": 10**12, "n_experts": 2}),
    ],
    ids=["kinematics-dim", "saturate-dimension", "saturate-n-experts", "rht-study-n-experts",
         "gen-experts-dimension"],
)
def test_unallocatable_size_exit_2(tmp_path, argv, cfg, capsys):
    if cfg is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", path]
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert run([*argv, "--out", tmp_path]) == 2
    assert "too large to allocate" in capsys.readouterr().err
    # The first allocation of the requested size fails, so the peak does not move
    # (ru_maxrss is in KiB on Linux; tracemalloc cannot tell, numpy traces failed requests).
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before < 64 * 1024
    assert list(tmp_path.iterdir()) == ([path] if cfg is not None else [])


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["width", "--samples", 10**20], None),
        (["kinematics", "--dim", 10**20, "--half-angle-deg", 30], None),
        (["kinematics", "--dim", 10**20, "--subspace-dim", 3], None),
        (["saturate"], {"dimension": 10**20}),
        (["saturate"], {"rank": 10**20}),
        (["width", "--samples", 10**17], None),
        (["saturate"], {"n_experts": 10**18, "dimension": 4}),
        (["gen-experts"], {"n_experts": 10**18, "dimension": 4}),
    ],
    ids=["width-samples", "kinematics-cone-dim", "kinematics-subspace-dim",
         "saturate-dimension", "saturate-rank", "width-samples-times-dim",
         "saturate-experts-times-dim", "gen-experts-experts-times-dim"],
)
def test_size_past_index_range_exit_2(tmp_path, argv, cfg, capsys):
    # numpy raises ValueError or OverflowError, not MemoryError, for these, so
    # the flag parser, ExperimentConfig and the draw sites of size products
    # reject them before any allocation.
    if cfg is not None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        argv = [*argv, "--config", path]
    try:
        code = run([*argv, "--out", tmp_path])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert str(MAX_SIZE) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == ([path] if cfg is not None else [])


@pytest.mark.parametrize("normals", [1, 3 * 3025, 1 << 40], ids=["one-row", "few-rows", "all-rows"])
def test_block_size_changes_no_output(tmp_path, normals, monkeypatch, capsys):
    # Every streamed draw but the low-rank factors goes through
    # tensorio.normal_blocks. The default blocks split each draw here in two
    # (21 of 25 experts, 218 of 300 trials); blocks of one row, a few rows
    # (3 experts, 30 trials) or all rows give the same bytes.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"seed": 3, "dimension": 55 * 55, "n_experts": 25, "rank": 3, "rho": 0.3}))
    argvs = {
        "kinematics": ["kinematics", "--seed", 45, "--dim", 300, "--half-angle-deg", 30,
                       "--trials", 300, "--format", "json"],
        "saturate": ["saturate", "--config", cfg, "--format", "json"],
        "rht-study": ["rht-study", "--config", cfg, "--format", "json"],
        "dense": ["gen-experts", "--config", cfg],
        "low-rank": ["gen-experts", "--config", cfg, "--low-rank"],
    }

    def outputs(root):
        for name, argv in argvs.items():
            assert run([*argv, "--out", root / name]) == 0
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    before = outputs(tmp_path / "default")
    assert len(before) == 3 + 2 * 25
    probs = [p for _, p in Report.from_json(before[Path("kinematics/kinematics.json")].decode()).rows]
    assert probs[0] == 0.0 and probs[-1] == 1.0 and any(0.0 < p < 1.0 for p in probs)
    monkeypatch.setattr(tensorio, "_BLOCK_NORMALS", normals)
    assert outputs(tmp_path / "patched") == before


class TestRhtStudy:
    def test_runs_and_emits(self, tmp_path, small_config):
        out = tmp_path / "r"
        assert run(["rht-study", "--config", small_config, "--out", out,
                    "--format", "json"]) == 0
        rep = Report.from_json((out / "rht_study.json").read_text())
        assert "coverage_gaussian" in rep.extra

    # The std of the merged expert overflows, so apply_rht stops before it
    # draws; numpy warns of nothing, and the suite turns warnings into errors.
    @pytest.mark.parametrize(
        "cfg",
        [{"sigma2": 1e305, "dimension": 2000, "n_experts": 3},
         {"sigma2": 1e306, "dimension": 20000, "n_experts": 3}],
        ids=["d2000", "d20000"],
    )
    def test_overflowing_merge_exit_3(self, tmp_path, cfg, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(["rht-study", "--config", path, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error: non-finite") and err.count("\n") == 1
        assert not out.exists()


# epsilon / lambda_min past the float range: the radii, widths and losses
# overflow. Every output passes a finiteness gate, so a run that writes a
# non-finite value exits 3 and one whose outputs stay finite exits 0; numpy
# warns of nothing either way, and the suite turns warnings into errors.
_OVERFLOW_CONFIGS = {
    "eps1e308": {"epsilon": 1e308, "dimension": 20},
    "cond1e300": {"spectrum": {"kind": "geometric", "condition_number": 1e300},
                  "dimension": 20, "epsilon": 1e10},
    "cond1e308": {"spectrum": {"kind": "geometric", "condition_number": 1e308}, "dimension": 20},
}
_OVERFLOW_EXIT = {  # (saturate, width, rht-study)
    "eps1e308": (3, 3, 0),
    "cond1e300": (3, 3, 0),
    "cond1e308": (0, 3, 0),
}


@pytest.mark.parametrize("i, argv", enumerate([["saturate"], ["width", "--samples", 1000],
                                               ["rht-study"]]), ids=["saturate", "width", "rht-study"])
@pytest.mark.parametrize("name", list(_OVERFLOW_CONFIGS))
def test_overflowing_task_exits_without_warning(tmp_path, name, i, argv, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_OVERFLOW_CONFIGS[name]))
    out = tmp_path / "o"
    code = _OVERFLOW_EXIT[name][i]
    assert run([*argv, "--config", path, "--out", out]) == code
    assert "Warning" not in capsys.readouterr().err
    assert [p.suffix for p in out.iterdir()] == ([".csv"] if code == 0 else [])


class TestSubspace:
    def test_pca_of_stacked_experts(self, tmp_path):
        gen = np.random.default_rng(1)
        m = gen.normal(size=(4, 9))
        p = tmp_path / "stack.mmmx"
        write_matrix(m, p)
        out = tmp_path / "sub"
        assert run(["subspace", p, "--out", out, "--format", "json"]) == 0
        rep = Report.from_json((out / "subspace.json").read_text())
        assert len(rep.rows) == 4
        assert sum(r[2] for r in rep.rows) == pytest.approx(1.0, abs=1e-9)

    def test_certified_report_extra(self, tmp_path):
        gen = np.random.default_rng(2)
        m = gen.normal(size=(300, 4)) @ gen.normal(size=(4, 200))
        p = tmp_path / "stack.mmmx"
        write_matrix(m, p)
        out = tmp_path / "sub"
        assert run(["subspace", p, "--out", out, "--format", "json", "--no-center"]) == 0
        rep = Report.from_json((out / "subspace.json").read_text())
        assert rep.extra["rank"] == len(rep.rows) == 4
        assert rep.extra["tail_count"] == 200 - 4
        assert 0 < rep.extra["tail_bound"] < math.exp(-13)
        assert rep.extra["band_counts"][-1] == rep.extra["tail_count"]
        assert sum(rep.extra["band_counts"]) == 200

    def test_full_svd_report_extra(self, tmp_path):
        p = tmp_path / "stack.mmmx"
        write_matrix(np.random.default_rng(3).normal(size=(4, 9)), p)
        assert run(["subspace", p, "--out", tmp_path, "--format", "json"]) == 0
        rep = Report.from_json((tmp_path / "subspace.json").read_text())
        assert rep.extra["tail_count"] == 0 and rep.extra["tail_bound"] == 0.0

    @pytest.mark.parametrize("flags", [[], ["--no-center"]], ids=["centered", "uncentered"])
    def test_zero_experts_exit_2(self, tmp_path, flags, capsys):
        p = tmp_path / "empty.mmmx"
        write_matrix(np.zeros((0, 9)), p)
        assert run(["subspace", p, "--out", tmp_path / "sub", *flags]) == 2
        assert "zero rows" in capsys.readouterr().err
        assert not (tmp_path / "sub" / "subspace.csv").exists()
        p = tmp_path / "no_columns.mmmx"
        write_matrix(np.zeros((3, 0)), p)
        assert run(["subspace", p, "--out", tmp_path / "sub", *flags]) == 2
        assert "zero columns" in capsys.readouterr().err
        assert not (tmp_path / "sub" / "subspace.csv").exists()


    @pytest.mark.parametrize("flags", [[], ["--no-center"]], ids=["centered", "uncentered"])
    def test_report_is_the_library_spectrum(self, tmp_path, flags):
        # The CLI centers the matrix it read in place: the report holds the
        # bits of pca_explained on the caller's matrix, certified or full SVD.
        gen = np.random.default_rng(5)
        for name, m in [("low_rank", gen.normal(size=(300, 4)) @ gen.normal(size=(4, 200)) + 3.0),
                        ("full", gen.normal(size=(40, 90)))]:
            p = tmp_path / f"{name}.mmmx"
            write_matrix(m, p)
            out = tmp_path / name
            assert run(["subspace", p, "--format", "json", "--out", out, *flags]) == 0
            rep = json.loads((out / "subspace.json").read_text())
            lib = subspace.pca_explained(m, center=not flags)
            assert [r[1] for r in rep["rows"]] == lib.singular_values.tolist()
            assert [r[2] for r in rep["rows"]] == lib.explained_fractions.tolist()
            assert rep["extra"]["tail_bound"] == lib.tail_bound
            assert rep["extra"]["band_counts"] == lib.counts_per_log_band.tolist()

    def test_overflowing_column_mean_exit_3(self, tmp_path, capsys):
        m = np.ones((6, 9))
        m[:2, 3] = 1.7e308
        p = tmp_path / "huge.mmmx"
        write_matrix(m, p)
        assert run(["subspace", p, "--out", tmp_path / "sub"]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "sub").exists()

    def test_overflowing_singular_values_exit_3(self, tmp_path, capsys):
        p = tmp_path / "huge.mmmx"
        write_matrix(1e160 * np.random.default_rng(4).normal(size=(6, 9)), p)
        assert run(["subspace", p, "--out", tmp_path / "sub"]) == 3
        assert "overflows" in capsys.readouterr().err
        assert not (tmp_path / "sub" / "subspace.csv").exists()


def _report_text(**fields):
    return json.dumps({**json.loads(Report("demo", ["a"], [[1]], {}).to_json()), **fields})


class TestReport:
    def test_reemit_json_to_csv(self, tmp_path):
        rep = Report("demo", ["a"], [[1]], {"seed": 0}, {})
        src = tmp_path / "in.json"
        src.write_text(rep.to_json())
        out = tmp_path / "o"
        assert run(["report", src, "--out", out, "--format", "csv"]) == 0
        assert (out / "demo.csv").read_text().startswith("# kind: demo")

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "[1]",
            json.dumps({"kind": "demo"}),
            "[" * 100_000,
            *(_report_text(kind=k) for k in ["../escaped", "", ".", "..", "a/b", "a\0b", "a\nb", 5]),
            *(_report_text(columns=c) for c in ["ab", [1], None]),
            *(_report_text(rows=r) for r in ["x", [1], {"a": [1]}]),
            _report_text(config=[1]),
            _report_text(extra="x"),
            *(_report_text(schema_version=v) for v in [True, "2", 2.5]),
            # json.dumps writes these as the NaN, Infinity and -Infinity tokens.
            *(_report_text(rows=[[v]]) for v in [math.nan, math.inf]),
            _report_text(extra={"x": -math.inf}),
            _report_text(config={"x": [math.nan]}),
            _report_text(columns=["a", "b"], rows=[[1]]),
            _report_text(rows=[[1, 2]]),
            _report_text(rows=[[[1]]]),
            _report_text(rows=[[{"a": 1}]]),
        ],
        ids=["not-json", "not-object", "missing-keys", "too-deep",
             "kind-escapes", "kind-empty", "kind-dot", "kind-dotdot", "kind-sep", "kind-nul",
             "kind-newline", "kind-int", "columns-str", "columns-int", "columns-null", "rows-str",
             "row-int", "rows-object", "config-list", "extra-str",
             "version-bool", "version-str", "version-float",
             "rows-nan", "rows-inf", "extra-minus-inf", "config-nested-nan",
             "row-short", "row-long", "cell-list", "cell-object"],
    )
    def test_malformed_report_exit_2(self, tmp_path, text):
        src = tmp_path / "in.json"
        src.write_text(text)
        assert run(["report", src, "--out", tmp_path / "out", "--format", "csv"]) == 2
        assert [p.name for p in tmp_path.rglob("*")] == ["in.json"]

    def test_overflowing_number_exit_3(self, tmp_path):
        # 1e400 is valid JSON that parses to inf; the report check catches it.
        src = tmp_path / "in.json"
        src.write_text(_report_text(rows=[[1]]).replace("[1]", "[1e400]"))
        out = tmp_path / "out"
        assert run(["report", src, "--out", out, "--format", "csv"]) == 3
        assert not (out / "demo.csv").exists()

    def test_non_utf8_report_exit_2(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_bytes(b"\xff\xfe{}")
        assert run(["report", src, "--out", tmp_path]) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_are_utf8_under_ascii_locale(self, tmp_path, fmt):
        def report(text, out, locale):
            src = tmp_path / "in.json"
            src.write_text(text, encoding="utf-8")
            env = {**os.environ, **locale,
                   "PYTHONPATH": str(Path(mergelimits.__file__).parents[1])}
            return subprocess.run(
                [sys.executable, "-m", "mergelimits.cli", "report", src, "--format", fmt,
                 "--out", out], env=env, capture_output=True, timeout=120,
            )

        ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        plain = Report("plain", ["\u03c3"], [[1.5]], {}).to_json()
        assert report(plain, tmp_path / "utf8", {"PYTHONUTF8": "1"}).returncode == 0
        done = report(plain, tmp_path / "c", ascii_locale)
        assert done.returncode == 0, done.stderr
        written = (tmp_path / "c" / f"plain.{fmt}").read_bytes()
        assert written == (tmp_path / "utf8" / f"plain.{fmt}").read_bytes()
        if fmt == "csv":
            assert "\u03c3".encode("utf-8") in written
        # A kind the filesystem encoding cannot hold is an i/o error, with no file left.
        done = report(_report_text(kind="\u03ba"), tmp_path / "k", ascii_locale)
        assert done.returncode == 4, done.stderr
        assert b"i/o error" in done.stderr
        assert list((tmp_path / "k").iterdir()) == []


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return parser, action.choices


def _minimal_argv(name, tmp_path):
    """The shortest argv on which each subcommand runs to completion."""
    vec, stacked, report = tmp_path / "v.mmpv", tmp_path / "m.mmmx", tmp_path / "r.json"
    write_pvec(np.linspace(-1, 1, 16), vec)
    write_matrix(np.arange(12.0).reshape(3, 4) ** 2, stacked)
    report.write_text(Report("demo", ["a"], [[1]], {}).to_json())
    return {
        "gen-experts": ["gen-experts"],
        "merge": ["merge", vec],
        "rht": ["rht", vec],
        "width": ["width", "--samples", 1000],
        "kinematics": ["kinematics", "--dim", 10, "--subspace-dim", 4, "--trials", 200],
        "saturate": ["saturate"],
        "rht-study": ["rht-study"],
        "subspace": ["subspace", stacked],
        "report": ["report", report],
    }[name] + ["--out", tmp_path / "out"]


class TestFlags:
    @pytest.mark.parametrize("name", sorted(_subcommands()[1]))
    def test_every_declared_flag_is_read(self, tmp_path, name, capsys):
        parser, subparsers = _subcommands()
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, attr):
                reads.add(attr)
                return super().__getattribute__(attr)

        argv = [str(a) for a in _minimal_argv(name, tmp_path)]
        args = parser.parse_args(argv, namespace=Recording())
        reads.clear()  # argparse itself reads attributes while it parses
        args.func(args)
        declared = {a.dest for a in subparsers[name]._actions if a.dest != "help"}
        assert declared - reads == set()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-experts", "--format", "json"],
            ["merge", "a.mmpv", "--config", "c.json"],
            ["merge", "a.mmpv", "--seed", "9"],
            ["merge", "a.mmpv", "--format", "json"],
            ["rht", "v.mmpv", "--format", "json"],
            ["subspace", "m.mmmx", "--config", "c.json"],
            ["subspace", "m.mmmx", "--seed", "1"],
            ["report", "r.json", "--config", "c.json"],
            ["report", "r.json", "--seed", "1"],
            ["kinematics", "--config", "c.json"],
        ],
        ids=lambda argv: f"{argv[0]}{argv[-2]}",
    )
    def test_removed_flag_exit_2(self, tmp_path, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_kinematics_seed_defaults_to_zero(self):
        parser, _ = _subcommands()
        assert parser.parse_args(["kinematics"]).seed == 0


class TestRepeatedMain:
    """main shares one parser across calls; no call may see another's flags."""

    def test_k_max_does_not_carry_over(self, tmp_path):
        common = ["kinematics", "--dim", 12, "--subspace-dim", 4, "--trials", 200, "--format", "json"]
        assert run([*common, "--k-max", 10, "--out", tmp_path / "a"]) == 0
        assert run([*common, "--out", tmp_path / "b"]) == 0
        first = Report.from_json((tmp_path / "a" / "kinematics.json").read_text())
        second = Report.from_json((tmp_path / "b" / "kinematics.json").read_text())
        assert [r[0] for r in first.rows] == list(range(1, 11))
        assert [r[0] for r in second.rows] == list(range(1, 13))

    def test_low_rank_does_not_carry_over(self, tmp_path):
        cfg = ExperimentConfig(seed=4, dimension=144, n_experts=2, rank=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        assert run(["gen-experts", "--config", path, "--low-rank", "--out", tmp_path / "lr"]) == 0
        assert run(["gen-experts", "--config", path, "--out", tmp_path / "dense"]) == 0
        for i, e in enumerate(expert_stack(cfg, low_rank=False)):
            written = read_pvec(tmp_path / "dense" / f"expert_{i:03d}.mmpv")
            assert written.tobytes() == e.tobytes()
            assert np.linalg.matrix_rank(written.reshape(12, 12)) == 12

    def test_valid_call_after_usage_error(self, tmp_path, small_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["saturate", "--no-such-flag"])
        assert exc.value.code == 2
        assert run(["saturate", "--config", small_config, "--out", tmp_path]) == 0
        assert (tmp_path / "saturation.csv").exists()

    def test_parser_built_once(self, tmp_path, small_config, monkeypatch):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        try:
            assert run(["saturate", "--config", small_config, "--out", tmp_path / "s"]) == 0
            assert run(["gen-experts", "--config", small_config, "--out", tmp_path / "e"]) == 0
            assert run(["kinematics", "--dim", 8, "--subspace-dim", 2, "--trials", 200,
                        "--out", tmp_path / "k"]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert build_parser() is not build_parser()
