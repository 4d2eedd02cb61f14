"""The traced benchmark wraps library names it looks up with getattr; a
refactor that drops one would break only ``perfbench/run.py --trace 1``."""

import sys
from pathlib import Path

from cantorshift import ResolutionPolicy
from cantorshift import tree as tree_mod

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_every_traced_name_exists():
    tracing = _tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises AttributeError on a missing name
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    assert not tracer._patches


def test_traced_build_counts_certify_attempts(monkeypatch, quadratic_map, quadratic_disk):
    # the tracer reads the pavement size from the second positional argument
    # of tree's paved_clusters call and counts one attempt per call
    tracing = _tracing()
    pavements = []
    certify = tree_mod._TreeBuilder._certify

    def counted(self, k, pavement, *args):
        pavements.append(len(pavement))
        return certify(self, k, pavement, *args)

    monkeypatch.setattr(tree_mod._TreeBuilder, "_certify", counted)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        tree_mod.build_tree(quadratic_map, quadratic_disk, 3,
                            policy=ResolutionPolicy(max_resolution=30))
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer)
    assert m["covers.paved_clusters.cells"] == sum(pavements) > 0
    assert m["tree.certify_attempts"] == m["covers.paved_clusters.calls"] == len(pavements)
