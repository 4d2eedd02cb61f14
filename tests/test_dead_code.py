"""Every function, class and method in the library has a caller.

A definition counts as used when its name occurs outside its own body
somewhere in ``src/`` or ``perfbench/``: as a name, an attribute, or a
string constant (``setattr``/``getattr`` targets), or when ``__init__.py``
imports it as public API.  Imports elsewhere do not count, and dunder
methods are called by the language.  Matching is by name, so the guard is
conservative: a dead method that shares its name with a used one passes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cantorshift"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node, in_init):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value
        elif isinstance(sub, ast.ImportFrom) and in_init:
            yield from (alias.asname or alias.name for alias in sub.names)


def test_every_definition_has_a_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for base in (ROOT / "src", ROOT / "perfbench")
             for path in sorted(base.rglob("*.py"))}
    used = Counter()
    for path, tree in trees.items():
        used.update(_names(tree, path.name == "__init__.py"))
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = sum(1 for n in _names(node, False) if n == name)
            if used[name] - inside <= 0:
                dead.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not dead, "definitions without a caller:\n" + "\n".join(dead)
