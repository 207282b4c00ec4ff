"""Library code that no check, demo or paper statement needs is removed.

Every top-level function and class of `src/frontlab` and `demos` must be
referenced, by name or as an attribute, somewhere in those files outside its
own body.  Tests do not count as callers: a definition only tests reach is
either moved into the tests or named in ALLOWED with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # the tests' builder of a field from a formula, kept next to the grid
    "grid.field_from_function",
}


def _names(node) -> Counter:
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_top_level_definition_has_a_caller():
    paths = sorted((ROOT / "src" / "frontlab").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.stem}.{node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == _names(node)[node.name]
    ]
    dead = sorted(set(unused) - ALLOWED)
    assert not dead, f"no caller outside its own body: {', '.join(dead)}"
    called = sorted(ALLOWED - set(unused))
    assert not called, f"allowed but now called, so drop from ALLOWED: {', '.join(called)}"
