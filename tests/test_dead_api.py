"""Every public top-level function and class of mergelimits, and every public
method of those classes, has a reader.

A name counts as read when the package source outside its own definition,
a demo script, or the acceptance tests refer to it. Unit tests alone do not
count: code that only its own tests call is dead weight. ALLOWED names the
few exceptions, each with the reason it stays.
"""

import ast
from pathlib import Path

import mergelimits

SRC = Path(mergelimits.__file__).parent
ROOT = SRC.parents[1]

ALLOWED = {
    "tensorio.write_matrix": "the way to write the MMMX input that `subspace` reads",
    "merge.merged_variance": "the paper's general variance law, over a CorrelationSpec",
    "geometry.QuadraticTask.sample_sublevel": "perfbench traces it until ROADMAP item 6",
}


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names and attributes used in tree, leaving out the subtree skip."""
    names, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _public_defs(stem: str, tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    and of each public method of those classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield f"{stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{stem}.{node.name}.{item.name}", item


def _unread_public_names() -> set:
    src = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    outside = [ROOT / "tests" / "test_acceptance.py", *(ROOT / "demos").glob("*.py")]
    read = set().union(*(_referenced(ast.parse(p.read_text(encoding="utf-8"))) for p in outside))
    unread = set()
    for stem, tree in src.items():
        for name, node in _public_defs(stem, tree):
            if node.name in read or any(node.name in _referenced(t, node) for t in src.values()):
                continue
            unread.add(name)
    return unread


def test_every_public_name_has_a_reader():
    assert _unread_public_names() == set(ALLOWED)
