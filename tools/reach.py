"""Run the tier-1 tests under a line tracer and list the statements of
``src/cantorshift`` that no test runs.

A statement counts as run when any line of its own runs: its first line
through its last, leaving out the lines of the statements nested in it, and
counting a decorated definition from its first decorator.  Docstrings and
``global``/``nonlocal`` declarations run no code and are left out.  The
tests run in this process, under ``sys.settrace`` and ``threading.settrace``
(stdlib only), with the repository's ``src`` first on ``sys.path``; frames
outside ``src/cantorshift`` are not traced line by line.  Code that tests
run only in a subprocess counts as unrun.

``tools/reach.json`` keeps the accepted misses: per entry the file, the
qualified name of the enclosing function or class (``<module>`` at the top
level), the statement's first line stripped of indentation, and the reason
it stays unrun.  Every unrun statement is printed with its reason, or as
``NOT ACCEPTED``; an entry that matches no unrun statement is printed as
stale.

Usage, from anywhere (pytest and the test dependencies must be
importable)::

    python tools/reach.py

Exits 0 when the tests pass, every unrun statement is accepted and no entry
is stale; 1 otherwise.
"""

import ast
import json
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cantorshift"
NO_CODE = (ast.Global, ast.Nonlocal)


def _children(node):
    """The statements nested directly in a statement's bodies."""
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(node, field, ())
    for handler in getattr(node, "handlers", ()):
        yield from handler.body
    for case in getattr(node, "cases", ()):
        yield from case.body


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _statements(path):
    """(qualified name, first line, own lines) of each statement of a
    module that runs code."""
    source = path.read_text()
    stack = [("<module>", node) for node in ast.parse(source, str(path)).body]
    while stack:
        scope, node = stack.pop()
        kids = list(_children(node))
        if not (isinstance(node, NO_CODE) or _is_docstring(node)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            own = set(range(first, node.end_lineno + 1))
            for kid in kids:
                own -= set(range(kid.lineno, kid.end_lineno + 1))
            yield scope, node.lineno, own
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
        stack.extend((scope, kid) for kid in kids)


def _trace_tests():
    """Run the tests, returning pytest's exit status and the (file, line)
    pairs run in the package."""
    run = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            run.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, run


def main():
    status, run = _trace_tests()
    accepted = {(e["file"], e["scope"], e["text"]): e["reason"]
                for e in json.loads((ROOT / "tools" / "reach.json").read_text())}
    used, unrun, missing = set(), 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        name = str(path.relative_to(ROOT))
        for scope, line, own in sorted(_statements(path), key=lambda s: s[1]):
            if any((str(path), n) in run for n in own):
                continue
            key = (name, scope, lines[line - 1].strip())
            reason = accepted.get(key)
            used.add(key)
            unrun += 1
            missing += reason is None
            print(f"{name}:{line} [{scope}] {key[2]}\n    "
                  + (f"accepted: {reason}" if reason else "NOT ACCEPTED"))
    stale = sorted(set(accepted) - used)
    for name, scope, text in stale:
        print(f"stale entry: {name} [{scope}] {text}")
    print(f"tests: pytest exit status {status}; unrun statements: {unrun}, "
          f"{missing} not accepted; stale entries: {len(stale)}")
    return 0 if status == 0 and not missing and not stale else 1


if __name__ == "__main__":
    sys.exit(main())
