"""Library code that no check, demo or paper statement needs is removed.

Every top-level function and class of `src/frontlab` and `demos` must be
referenced, by name or as an attribute, somewhere in those files outside its
own body.  Every defaulted parameter of a function of `src/frontlab` must be
set, by keyword or by position, by some call in those files; a class call
counts for its `__init__`.  Tests do not count as callers: a definition or a
knob only tests reach is either moved into the tests or named in ALLOWED or
UNSET_ALLOWED with its reason.
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


def _trees() -> dict:
    paths = sorted((ROOT / "src" / "frontlab").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def test_every_top_level_definition_has_a_caller():
    trees = _trees()
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


# defaulted parameters no call in src/frontlab or demos sets, each with why
# it stays
UNSET_ALLOWED = {
    "cli.main(argv)": "the entry point: the console script calls it bare, tests pass argv",
    "verify.key_estimate_report(lambda_bar)": "tests probe lambda_bar past lambda0",
    "verify.continuous_dependence_report(kappa1)": "tests probe the degenerate kappa branches",
    "verify.continuous_dependence_report(kappa2)": "tests probe the degenerate kappa branches",
    "geometry.verify_I2(lambda_samples)": "tests refine the lambda grid of condition (I2)",
}


def _defaulted(fn, in_class: bool) -> list:
    """(name, positional index or None) of each defaulted parameter of fn;
    the index counts from the first argument a call passes."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = int(in_class and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list))
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_every_defaulted_parameter_is_set_by_some_call():
    trees = _trees()
    # the keywords and the most positional arguments of every call, by the
    # name it calls; a starred argument sets every parameter
    keywords, positional = {}, {}
    for tree in trees.values():
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
            positional[name] = max(positional.get(name, 0), 10**6 if starred else len(call.args))
    unset = []
    for path, tree in trees.items():
        if path.parent.name != "frontlab":
            continue
        classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        methods = {id(fn): cls.name for cls in classes for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = methods.get(id(fn))
            name = owner if fn.name == "__init__" else fn.name
            for param, index in _defaulted(fn, owner is not None):
                kw = keywords.get(name, set())
                if not (param in kw or None in kw or (
                        index is not None and positional.get(name, 0) > index)):
                    unset.append(f"{path.stem}.{name}({param})")
    stale = sorted(set(unset) - set(UNSET_ALLOWED))
    assert not stale, f"defaulted but set by no call: {', '.join(stale)}"
    set_now = sorted(set(UNSET_ALLOWED) - set(unset))
    assert not set_now, f"allowed but now set, so drop from UNSET_ALLOWED: {', '.join(set_now)}"
