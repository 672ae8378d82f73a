"""Self-tests of the benchmark: its checks, its tracer and its inputs.

Run from the repository root with ``python3 -m pytest perfbench -q``. Each
workload's op runs once for real (about 20 s in all), because the checks
are tested against genuine outputs with one value tampered.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import worker
import workloads
from mergelimits import geometry, merge, tensorio

ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def chdir(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """Each workload set up at seed 3 with op 0 run untraced and traced."""
    base = tmp_path_factory.mktemp("ops")
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wd = base / name
        wd.mkdir()
        with chdir(wd):
            wl = cls(3)
            wl.setup()
            assert worker.run_op(wl.argvs(0, "plain")) is None
            tracer = tracing.Tracer()
            tracer.op_id = 0
            with tracer.installed():
                assert worker.run_op(wl.argvs(0, "traced")) is None
        out[name] = (wl, wd, tracer)
    return out


def _tamper_json(src: Path, dst: Path, edit) -> None:
    rep = json.loads(src.read_text())
    edit(rep)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text(json.dumps(rep))


def _copy_op(wd: Path, name: str) -> Path:
    dst = wd / name
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(wd / "plain", dst)
    return dst


def _check(wl, wd: Path, out: Path):
    with chdir(wd):
        return wl.check(0, out.relative_to(wd))


def test_genuine_outputs_pass(genuine):
    for wl, wd, _ in genuine.values():
        _check(wl, wd, wd / "plain")


def test_saturate_check_rejects_perturbed_var_analytic(genuine):
    wl, wd, _ = genuine["saturate-d3000"]
    bad = _copy_op(wd, "bad")
    col = json.loads((bad / "saturation.json").read_text())["columns"].index("var_analytic")

    def edit(rep):
        rep["rows"][3][col] *= 1 + 1e-9

    _tamper_json(wd / "plain" / "saturation.json", bad / "saturation.json", edit)
    with pytest.raises(workloads.CheckFailed, match="var_analytic"):
        _check(wl, wd, bad)


def test_saturate_check_rejects_wrong_n_max(genuine):
    wl, wd, _ = genuine["saturate-d3000"]
    bad = _copy_op(wd, "bad")
    _tamper_json(wd / "plain" / "saturation.json", bad / "saturation.json",
                 lambda rep: rep["extra"].update(n_max=rep["extra"]["n_max"] + 1))
    with pytest.raises(workloads.CheckFailed, match="n_max"):
        _check(wl, wd, bad)


def test_kinematics_check_rejects_flipped_subspace_row(genuine):
    wl, wd, _ = genuine["kinematics-d60"]
    bad = _copy_op(wd, "bad")

    def edit(rep):
        rep["rows"][0][1] = 1.0 - rep["rows"][0][1]

    _tamper_json(wd / "plain" / "subspace" / "kinematics.json",
                 bad / "subspace" / "kinematics.json", edit)
    with pytest.raises(workloads.CheckFailed, match="k=1"):
        _check(wl, wd, bad)


def test_kinematics_check_rejects_shifted_crossing(genuine):
    wl, wd, _ = genuine["kinematics-d60"]
    bad = _copy_op(wd, "bad")
    _tamper_json(wd / "plain" / "cone" / "kinematics.json", bad / "cone" / "kinematics.json",
                 lambda rep: rep["extra"].update(crossing_k=rep["extra"]["crossing_k"] + 4))
    with pytest.raises(workloads.CheckFailed, match="crossing_k"):
        _check(wl, wd, bad)


def test_cone_crossing_tolerance_is_a_few_steps():
    # D = 60, 30 degrees, 500 trials: slope ~0.085 per k, so about 1 + 0.15 + 1.3.
    tol = workloads.cone_crossing_tolerance(60, math.radians(30), 500, 15.5, 0.03)
    assert 2.0 < tol < 3.0


def test_rht_study_check_rejects_lost_coverage_gain_and_nan(genuine):
    wl, wd, _ = genuine["rht-study-d500"]
    src = wd / "plain" / "rht_study.json"
    bad = _copy_op(wd, "bad")
    _tamper_json(src, bad / "rht_study.json",
                 lambda rep: rep["extra"].update(coverage_rht=rep["extra"]["coverage_gaussian"]))
    with pytest.raises(workloads.CheckFailed, match="coverage_rht"):
        _check(wl, wd, bad)

    def nan(rep):
        rep["rows"][2][2] = float("nan")

    _tamper_json(src, bad / "rht_study.json", nan)
    with pytest.raises(workloads.CheckFailed, match="non-finite"):
        _check(wl, wd, bad)


def test_pipeline_check_rejects_perturbed_merge_and_component_count(genuine):
    wl, wd, _ = genuine["expert-pipeline"]
    bad = _copy_op(wd, "bad")
    raw = bytearray((bad / "merged.mmpv").read_bytes())
    v = np.frombuffer(bytes(raw[16:24]), "<f8")[0]
    raw[16:24] = np.array([v + 1e-9 * max(1.0, abs(v))], "<f8").tobytes()
    (bad / "merged.mmpv").write_bytes(bytes(raw))
    with pytest.raises(workloads.CheckFailed, match="mean of the experts"):
        _check(wl, wd, bad)

    bad = _copy_op(wd, "bad")
    _tamper_json(wd / "plain" / "subspace.json", bad / "subspace.json",
                 lambda rep: rep["extra"].update(components_for_95pct=7))
    with pytest.raises(workloads.CheckFailed, match="components_for_95pct"):
        _check(wl, wd, bad)


def test_pipeline_records_subspace_rank_without_gating(genuine):
    wl, wd, _ = genuine["expert-pipeline"]
    notes = _check(wl, wd, wd / "plain")
    assert "subspace_reported_rank" in notes


def test_tracing_changes_no_output(genuine):
    for wl, wd, _ in genuine.values():
        assert worker.digest_dir(wd / "plain") == worker.digest_dir(wd / "traced"), wl.name


def test_tracer_restores_every_binding_and_records_spans(genuine):
    bindings = [(geometry, "haar_orthogonal"), (geometry, "as_pvec"), (merge, "as_pvec"),
                (tensorio, "as_pvec"), (geometry.QuadraticTask, "loss"),
                (tensorio.RngStream, "generator")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with tracing.Tracer().installed():
        assert all(getattr(o, a) is not b for (o, a), b in zip(bindings, before))
    assert all(getattr(o, a) is b for (o, a), b in zip(bindings, before))

    _, _, traced = genuine["kinematics-d60"]
    assert traced.missing == []
    metrics = tracing.layer_metrics(traced, 1)
    # kinematics_transition builds a 60x60 Haar matrix per trial and reads k columns.
    assert metrics["geometry.kinematics_transition.trials"] == metrics["geometry.haar_orthogonal.calls"]
    assert 0.0 < metrics["geometry.haar_orthogonal.columns_used_ratio"] < 1.0
    _, _, rht_traced = genuine["rht-study-d500"]
    assert tracing.layer_metrics(rht_traced, 1)["geometry.QuadraticTask.basis_read_ratio"] == 1.0
    _, _, sat_traced = genuine["saturate-d3000"]
    assert tracing.layer_metrics(sat_traced, 1)["geometry.QuadraticTask.basis_read_ratio"] == 0.0


def test_self_times_partition_the_root_spans(genuine):
    _, _, tracer = genuine["expert-pipeline"]
    summ = tracer.summary()
    a = tracer.arrays()
    roots = a["parent"] < 0
    root_time = float(np.sum(a["end"][roots] - a["start"][roots]))
    total_self = sum(v["self_s"] for v in summ.values())
    assert total_self == pytest.approx(root_time, rel=1e-9)
    assert all(v["self_s"] >= -1e-9 and v["self_s"] <= v["s"] + 1e-9 for v in summ.values())
    assert summ["cli.main"]["calls"] == 4
    assert set(a["op"]) == {0}


def _input_digests(name: str, seed: int, where: Path) -> dict:
    where.mkdir()
    with chdir(where):
        workloads.WORKLOADS[name](seed).setup()
        return {p.name: workloads.sha256_file(p) for p in sorted(workloads.INPUTS.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    a = _input_digests(name, 5, tmp_path / "a")
    b = _input_digests(name, 5, tmp_path / "b")
    c = _input_digests(name, 6, tmp_path / "c")
    assert a == b
    assert a != c


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: cls.why for name, cls in workloads.WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS + tracing.TRACE_METRICS
    ]
