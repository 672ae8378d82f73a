"""In-process fuzzing of the parsers of outside input.

Binary containers may fail only with FormatError, config and report JSON
only with ConfigError; the CLI maps those to exit codes 4 and 2. Nothing
here starts a subprocess.
"""

import json
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mergelimits.errors import ConfigError, FormatError
from mergelimits.experiments import ExperimentConfig, Report
from mergelimits.tensorio import read_matrix, read_pvec

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
