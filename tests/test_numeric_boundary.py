"""numpy floating-point warnings are silenced in one place, cli.main, and
otherwise only where the code turns the condition into its own error or
fallback.

Every CLI output passes a finiteness gate (emit_report for reports, as_pvec
for vectors, plot_svg for plots) that exits 3, so an overflow warning only
repeats that exit code, or fires on a value no output reads. cli.main runs
each subcommand under np.errstate for that reason; a runner needs no errstate
of its own. The library functions the tests call directly, under the suite's
warnings-as-errors setting, keep theirs where they check the result
themselves. ALLOWED names each function that may refer to np.errstate or
np.seterr, with the reason it does.
"""

import ast
from pathlib import Path

import mergelimits

SRC = Path(mergelimits.__file__).parent

ALLOWED = {
    "cli.main": "the boundary: every output it writes passes a finiteness gate (exit 3)",
    "rht.apply_rht": "raises NumericError on a non-finite std of its input",
    "subspace.spectrum_report": "raises NumericError on an overflowing sum of squares",
    "subspace._sketch_spectrum": "falls back to the full SVD when the power step overflows",
}

_SWITCHES = {"errstate", "seterr"}


def _switch_users(node: ast.AST, scope: str) -> set:
    """Qualified names of the functions under node that refer to a switch."""
    found = set()
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= _switch_users(child, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Attribute) and child.attr in _SWITCHES) or (
            isinstance(child, ast.Name) and child.id in _SWITCHES
        ):
            found.add(scope)
        found |= _switch_users(child, scope)
    return found


def _errstate_scopes() -> set:
    scopes = set()
    for path in SRC.glob("*.py"):
        scopes |= _switch_users(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return scopes


def test_errstate_only_where_allowed():
    assert _errstate_scopes() == set(ALLOWED)


def test_finds_a_switch_in_any_scope():
    tree = ast.parse(
        "import numpy as np\n"
        "np.seterr(all='ignore')\n"
        "class A:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            with np.errstate(over='ignore'):\n"
        "                pass\n"
    )
    assert _switch_users(tree, "m") == {"m", "m.A.f.g"}
