"""Every function and method the benchmark tracer wraps still exists.

perfbench/tracing.py lists its targets in TARGETS and, for one it cannot
resolve, records the name as missing and reads its per-layer metrics as 0.
Deleting a traced name would therefore zero those metrics without a failure.
This test loads the tracer by file path (perfbench is not an installed
package) and resolves each target the way the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _targets() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for module, qualname, _ in targets:
        owner = importlib.import_module(f"mergelimits.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{qualname}")
    assert missing == []
