"""Every function, class, method and constant in the library has a caller.

A definition counts as used when its name occurs outside its own body
somewhere in ``src/`` or ``perfbench/``: as a name, an attribute, or a
string constant (``setattr``/``getattr`` targets), or when ``__init__.py``
imports it as public API.  Imports elsewhere do not count, and dunder
methods are called by the language.

A module-level or class-level constant counts as used when its name is
read (loaded, not assigned) somewhere in ``src/`` or ``perfbench/``, or when
``__init__.py`` imports it; dunders such as ``__all__`` are exempt.

Matching by name cannot tell apart the methods of different classes that
share a name: a dead ``A.name`` passes as long as some ``B.name`` is called.
So every such method names its caller in ``CALLERS``, a function in
``src/`` or ``perfbench/`` that reads the attribute.  The table is checked
both ways: a caller that stops reading the attribute, or an entry for a
method that is gone or no longer shares its name, fails as stale.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cantorshift"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# "module.Class.method" of a method whose name another class also defines ->
# "path::function" of a caller that uses it on that class's instances
CALLERS = {
    "coding.ChiResult.to_json_dict": "src/cantorshift/cli.py::cmd_chi",
    "coding.VerificationReport.to_json_dict": "src/cantorshift/cli.py::cmd_verify",
    "tree.PuzzleTree.to_json_dict": "src/cantorshift/cli.py::cmd_analyze",
    "coding.VerificationReport.summary_lines": "src/cantorshift/cli.py::cmd_verify",
    "maps.RestrictionReport.summary_lines": "src/cantorshift/cli.py::cmd_analyze",
}


def _names(node, in_init, reads_only=False):
    """The names a node uses; with ``reads_only``, assigned ones left out."""
    for sub in ast.walk(node):
        if reads_only and isinstance(getattr(sub, "ctx", None), (ast.Store, ast.Del)):
            continue
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                yield sub.value
        elif isinstance(sub, ast.ImportFrom) and in_init:
            yield from (alias.asname or alias.name for alias in sub.names)


def _trees():
    return {path: ast.parse(path.read_text(), str(path))
            for base in (ROOT / "src", ROOT / "perfbench")
            for path in sorted(base.rglob("*.py"))}


def _qualified(tree):
    """(qualified name, node) of every definition in a module, nested ones
    under their parents' names."""
    stack = [("", node) for node in tree.body]
    while stack:
        prefix, node = stack.pop()
        if isinstance(node, DEFS):
            name = prefix + node.name
            yield name, node
            stack.extend((name + ".", sub) for sub in node.body)


def test_every_definition_has_a_caller():
    trees = _trees()
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


def test_shared_method_names_name_their_callers():
    trees = _trees()
    functions = {}    # "path::qualname" -> node, for the callers
    methods = defaultdict(list)   # method name -> ["module.Class.method"]
    for path, tree in trees.items():
        rel = path.relative_to(ROOT).as_posix()
        for qual, node in _qualified(tree):
            functions[f"{rel}::{qual}"] = node
        if not path.is_relative_to(PACKAGE):
            continue
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, DEFS) and not node.name.startswith("__"):
                        methods[node.name].append(f"{path.stem}.{cls.name}.{node.name}")
    shared = {m for owners in methods.values() if len(owners) > 1 for m in owners}
    problems = [f"{m}: shares its name, so CALLERS must name its caller"
                for m in sorted(shared - set(CALLERS))]
    problems += [f"{m}: stale entry, no such method shares its name"
                 for m in sorted(set(CALLERS) - shared)]
    for method, caller in sorted(CALLERS.items()):
        name = method.rsplit(".", 1)[1]
        node = functions.get(caller)
        if node is None:
            problems.append(f"{method}: stale caller {caller}, no such function")
        elif not any(isinstance(sub, ast.Attribute) and sub.attr == name
                     for sub in ast.walk(node)):
            problems.append(f"{method}: stale caller {caller} does not use .{name}")
    assert not problems, "\n".join(problems)


def _constants(tree):
    """(name, line) of every module-level and class-level assignment."""
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def test_every_constant_has_a_reader():
    trees = _trees()
    read = Counter()
    for path, tree in trees.items():
        read.update(_names(tree, path.name == "__init__.py", reads_only=True))
    unread = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path, tree in trees.items() if path.is_relative_to(PACKAGE)
              for name, line in _constants(tree)
              if not (name.startswith("__") and name.endswith("__")) and not read[name]]
    assert not unread, "constants without a reader:\n" + "\n".join(unread)
