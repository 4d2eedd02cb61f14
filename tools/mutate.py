"""Apply each mutation of ``tools/mutations.json`` to a copy of the code and
check that the tests it names catch it.

Each entry gives a file (relative to the repository root), an exact old
text that must occur in it exactly once, the new text and the tests that
must fail.  Per entry, ``src/`` and ``tests/`` are copied to a temporary
directory, the text is replaced there and the named tests run with
``python -m pytest -q -x -p no:cacheprovider`` and the copy's ``src``
first on ``PYTHONPATH``.  A mutation is killed when pytest reports a
failing test (exit status 1) and survives when every named test passes.
Before any mutation, the named tests must pass on an unmutated copy, so
that a kill means the mutation was seen.

Usage, from anywhere (standard library only; pytest and the test
dependencies must be importable)::

    python tools/mutate.py

Exits 0 when every mutation is killed, 1 when any survives or cannot be
applied or run.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _copy(dest):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))


def _pytest(copy, tests):
    """Run the tests on a copy; returns pytest's exit status."""
    path = [str(copy / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _run(entry):
    """Apply one mutation to a fresh copy and run its tests: "killed",
    "survived", or the reason it could not be run."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        path = copy / entry["file"]
        text = path.read_text()
        found = text.count(entry["old"])
        if found != 1:
            return f"not applied: the old text occurs {found} times"
        path.write_text(text.replace(entry["old"], entry["new"]))
        status = _pytest(copy, entry["tests"])
    if status == 1:
        return "killed"
    return "survived" if status == 0 else f"not run: pytest exit status {status}"


def main():
    entries = json.loads((ROOT / "tools" / "mutations.json").read_text())
    tests = sorted({test for entry in entries for test in entry["tests"]})
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        _copy(Path(tmp))
        status = _pytest(Path(tmp), tests)
    if status != 0:
        print(f"the named tests do not pass on the unmutated code (pytest exit status {status})")
        return 1
    killed = 0
    for entry in entries:
        outcome = _run(entry)
        killed += outcome == "killed"
        print(f"{entry['name']}: {outcome}", flush=True)
    print(f"{killed} of {len(entries)} mutations killed")
    return 0 if killed == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
