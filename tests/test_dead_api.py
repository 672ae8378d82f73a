"""Every public top-level function and class of mergelimits, and every public
method of those classes, has a reader, and every option they default is
set by one and left unset by one.

A name counts as read when the package source outside its own definition,
a demo script, or the acceptance tests refer to it: a function or class by
any use of its name, a method only through an attribute access or an import
whose bound name the file then uses (a local variable of the same name, or
an import left unused, is not a read). An option is a defaulted parameter
of a public function, method or class (dataclass fields included); it
counts as set when a call in those places, outside the function's own
body, passes it by keyword, by position, or through `*` or
`**` unpacking. Each option must also have a call that leaves it: one that
omits it or unpacks `*` or `**`. When every call passes the value, the
default is dead, and for a None default so is the branch that works the
value out. Callees are matched by name. Unit tests alone do not count: code
that only its own tests call is dead weight, and so is an option only they
set or only they leave. ALLOWED, ALLOWED_OPTIONS and ALLOWED_PASSED_DEFAULTS
name the few exceptions, each with the reason it stays.
"""

import ast
from pathlib import Path

import mergelimits

SRC = Path(mergelimits.__file__).parent
ROOT = SRC.parents[1]
OUTSIDE = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "demos").glob("*.py")]

ALLOWED = {
    "tensorio.write_matrix": "the way to write the MMMX input that `subspace` reads",
    "geometry.QuadraticTask.sample_sublevel": "perfbench traces it until ROADMAP item 6",
    "geometry.haar_orthogonal": "perfbench traces it and its self-test binds it (ROADMAP item 6)",
    "geometry.QuadraticTask.loss": "the fixed-basis reference of the closed-form cross-check "
    "of mean_rotated_losses (TestRotatedLosses)",
    "merge.termination_check": "perfbench traces it until ROADMAP item 6, and it is the "
    "brute-force reference of run_saturation's closed-form stops (TestSaturationStops)",
    "geometry.redundancy_bound_check": "perfbench traces it until ROADMAP item 6",
}

ALLOWED_OPTIONS = {
    "cli.main(argv)": "the console entry point calls main(); tests pass argv",
    "geometry.QuadraticTask.sample_sublevel(n)": "perfbench traces it until ROADMAP item 6",
}

ALLOWED_PASSED_DEFAULTS = {
    "experiments.run_kinematics(half_angle)": "cmd_kinematics forwards --half-angle-deg, "
    "which is None for a subspace sweep",
    "geometry.QuadraticTask.sample_sublevel(n)": "perfbench traces it until ROADMAP item 6",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> tuple[set, set]:
    """(bare names, attributes and used imports) in tree, leaving out the
    subtree skip. An import counts only if its bound name is used."""
    bare, dotted, aliases, todo = set(), set(), [], [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            dotted.add(node.attr)
        elif isinstance(node, ast.alias):
            aliases.append(node)
        todo.extend(ast.iter_child_nodes(node))
    dotted |= {a.name for a in aliases if (a.asname or a.name.split(".")[0]) in bare}
    return bare, dotted


def _public_defs(stem: str, tree: ast.Module):
    """(qualified name, node, is method) of each public top-level function and
    class and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{stem}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{stem}.{node.name}.{item.name}", item, True


def _unread_public_names() -> set:
    src = {p.stem: _parse(p) for p in SRC.glob("*.py")}
    whole = {stem: _referenced(tree) for stem, tree in src.items()}
    outside = [_referenced(_parse(p)) for p in OUTSIDE]
    unread = set()
    for stem, tree in src.items():
        # A definition lies in its own module only: the others are walked once.
        others = outside + [refs for s, refs in whole.items() if s != stem]
        for name, node, method in _public_defs(stem, tree):
            seen = others + [_referenced(tree, node)]
            if any(node.name in dotted or (not method and node.name in bare) for bare, dotted in seen):
                continue
            unread.add(name)
    return unread


def _decorators(node) -> set:
    names = set()
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name):
            names.add(d.id)
    return names


def _options(node, method: bool):
    """(option, position or None if keyword-only, default) of each defaulted
    parameter a call to node can pass."""
    if isinstance(node, ast.ClassDef):
        if "dataclass" in _decorators(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield f.target.id, i, f.value
        else:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield from _options(item, True)
        return
    if "property" in _decorators(node):
        return
    a = node.args
    positional = a.posonlyargs + a.args
    first_default = len(positional) - len(a.defaults)
    drop = 1 if method and "staticmethod" not in _decorators(node) else 0
    defaulted = zip(positional[first_default:], a.defaults)
    for i, (arg, default) in enumerate(defaulted, first_default):
        yield arg.arg, i - drop, default
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None, default


def _calls(tree: ast.AST, skip: ast.AST | None = None):
    """(callee name, call) of each call in tree outside the subtree skip."""
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is not None:
                yield name, node
        todo.extend(ast.iter_child_nodes(node))


def _passes(call: ast.Call, option: str, position: int | None) -> bool:
    if any(k.arg in (option, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _leaves(call: ast.Call, option: str, position: int | None) -> bool:
    """Whether call may leave option at its default: it omits it or unpacks."""
    if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred) for a in call.args):
        return True
    named = any(k.arg == option for k in call.keywords)
    return not named and (position is None or len(call.args) <= position)


def _option_calls():
    """(qualified option, option, position, default, calls) of each option,
    with the calls outside its own definition that name its callee."""
    src = {p.stem: _parse(p) for p in SRC.glob("*.py")}
    whole = {stem: list(_calls(tree)) for stem, tree in src.items()}
    outside = [call for p in OUTSIDE for call in _calls(_parse(p))]
    for stem, tree in src.items():
        others = outside + [c for s, calls in whole.items() if s != stem for c in calls]
        for name, node, method in _public_defs(stem, tree):
            # A class's own methods that build it (from_dict, from_json) are callers.
            own = whole[stem] if isinstance(node, ast.ClassDef) else list(_calls(tree, node))
            calls = [call for callee, call in others + own if callee == node.name]
            for option, position, default in _options(node, method):
                yield f"{name}({option})", option, position, default, calls


def test_every_public_name_has_a_reader():
    assert _unread_public_names() == set(ALLOWED)


def test_every_option_is_set_by_a_reader():
    unset = {
        q
        for q, option, position, _, calls in _option_calls()
        if not any(_passes(c, option, position) for c in calls)
    }
    assert unset == set(ALLOWED_OPTIONS)


def test_every_default_is_left_by_a_caller():
    always_passed = {
        q
        for q, option, position, _, calls in _option_calls()
        if not any(_leaves(c, option, position) for c in calls)
    }
    assert always_passed == set(ALLOWED_PASSED_DEFAULTS)
