"""In-process fuzzing of the parsers of outside input.

Binary containers may fail only with FormatError, config and report JSON
only with ConfigError; the CLI maps those to exit codes 4 and 2, and on
any argv built from its declared flags returns 0, 2, 3 or 4 or exits
through argparse with 2. Nothing here starts a subprocess.
"""

import argparse
import dataclasses
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from mergelimits.cli import build_parser, main
from mergelimits.errors import ConfigError, FormatError
from mergelimits.experiments import ExperimentConfig, Report
from mergelimits.tensorio import read_matrix, read_pvec, write_matrix, write_pvec

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _container(magic: bytes, n_dims: int):
    dims = st.lists(st.integers(0, 4) | st.integers(0, 2**64 - 1), min_size=n_dims, max_size=n_dims)
    return st.builds(
        lambda d, tail: magic + struct.pack(f"<I{n_dims}Q", 1, *d) + tail,
        dims,
        st.binary(max_size=48),
    )


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64) | _container(b"MMPV", 1) | _container(b"MMMX", 2))
@example(b"MMMX" + struct.pack("<IQQ", 1, 2**64 - 1, 0))
def test_binary_readers_raise_only_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "input.bin"
    path.write_bytes(data)
    for reader in (read_pvec, read_matrix):
        try:
            reader(path)
        except FormatError:
            pass


def _object(fields: dict):
    return st.fixed_dictionaries({}, optional=fields)


config_objects = _object(
    {
        **{k: scalars for k in ("seed", "dimension", "n_experts", "rank")},
        **{k: scalars for k in ("sigma2", "rho", "delta", "epsilon")},
        "spectrum": _object(
            {"kind": st.sampled_from(["uniform", "geometric"]) | scalars, "condition_number": scalars}
        )
        | json_values,
        "rht_params": _object({k: scalars for k in ("gamma", "alpha", "beta", "sigma_g_ratio")})
        | json_values,
    }
)


@settings(max_examples=200, deadline=None)
@given(config_objects | json_values)
@example({"rht_params": {"alpha": 10**400}})
def test_config_json_raises_only_config_error(value):
    try:
        ExperimentConfig.from_json(json.dumps(value))
    except ConfigError:
        pass


report_objects = st.fixed_dictionaries(
    {
        "kind": st.text(max_size=8) | json_values,
        "columns": st.lists(st.text(max_size=6), max_size=4) | json_values,
        "rows": st.lists(st.lists(json_values, max_size=4), max_size=4) | json_values,
        "config": st.dictionaries(st.text(max_size=6), json_values, max_size=4) | json_values,
        "extra": st.dictionaries(st.text(max_size=6), json_values, max_size=4) | json_values,
        "schema_version": st.integers() | json_values,
    }
)


@settings(max_examples=200, deadline=None)
@given(report_objects | json_values)
@example({"kind": "k", "columns": 5, "rows": [], "config": {}, "extra": {}, "schema_version": 2})
@example({"kind": "k", "columns": [], "rows": [1], "config": {}, "extra": {}, "schema_version": 2})
def test_report_json_raises_only_config_error(value):
    try:
        report = Report.from_json(json.dumps(value))
    except ConfigError:
        return
    report.to_csv()
    report.to_json()


def _declared_actions() -> dict:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if a.dest != "help"] for name, p in sorted(sub.choices.items())}


_ACTIONS = _declared_actions()
# Flags whose defaults cost far more than a fuzz example should: always given, at most
# the smallest size the runner accepts.
_CAPPED = {"--samples": ["1000"], "--trials": ["200"], "--dim": []}
_SMALL = ["-1", "0", "1", "2", "3", "16", "30"]
_JUNK = ["x", "nan", "inf", "1e400"]


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """Small valid and junk inputs, plus a path that does not exist."""
    d = tmp_path_factory.mktemp("argv-inputs")
    write_pvec(np.linspace(-1, 1, 16), d / "v.mmpv")
    write_matrix(np.arange(12.0).reshape(3, 4) ** 2, d / "m.mmmx")
    cfg = ExperimentConfig(seed=1, dimension=16, n_experts=3, rank=2)
    (d / "cfg.json").write_text(json.dumps(dataclasses.asdict(cfg)))
    (d / "r.json").write_text(Report("demo", ["a"], [[1]], {}).to_json())
    (d / "junk.mmpv").write_bytes(b"MMPV\x01\x00\x00\x00\xff")
    (d / "junk.json").write_text('{"seed": ')
    names = ("v.mmpv", "m.mmmx", "cfg.json", "r.json", "junk.mmpv", "junk.json", "missing.mmpv")
    return [str(d / n) for n in names]


def _value(data, action, files):
    """A word for one flag or positional: typed ones are valid nine times in ten."""
    if action.choices:
        valid = list(action.choices)
    elif action.type in (int, float):
        valid = _SMALL + _CAPPED.get(action.option_strings[0], [])
    else:
        return data.draw(st.sampled_from(files + _JUNK + ["out", ".", "0.25,0.75"]))
    return data.draw(st.sampled_from(valid if data.draw(st.integers(0, 9)) < 9 else _JUNK))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_on_declared_flags_exits_with_documented_code(tmp_path_factory, argv_files, data):
    name = data.draw(st.sampled_from(sorted(_ACTIONS)))
    argv = [name]
    for action in _ACTIONS[name]:
        flag = action.option_strings[:1]
        if not flag:
            count = 1 if action.nargs is None else data.draw(st.integers(1, 3))
            argv += [_value(data, action, argv_files) for _ in range(count)]
        elif flag[0] in _CAPPED or data.draw(st.booleans()):
            argv += flag if action.nargs == 0 else [*flag, _value(data, action, argv_files)]
    note(f"argv: {argv}")
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("argv-cwd"))
    try:
        code = main(argv)
    except SystemExit as e:
        assert e.code == 2
    else:
        assert code in (0, 2, 3, 4)
    finally:
        os.chdir(cwd)
