"""The traced benchmark wraps library names it looks up with getattr; a
refactor that drops one would break only ``perfbench/run.py --trace 1``."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises AttributeError on a missing name
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert not tracer._patches
