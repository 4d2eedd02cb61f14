"""Traced mode: pass-through wrappers around the library's entry points.

Each wrapper is installed where its caller looks the name up (for example
``cantorshift.tree.certified_roots``, which the tree builder calls, or the
``PavedCover`` class attributes, which every module reaches through the
class), so nothing under ``src/`` changes.  Calls are aggregated per
(parent span, name) as a count and inclusive seconds, plus a work size
where one exists; nothing is stored per call, so the hottest leaves
(``ancestor_of``, ``overlapping_cells``, ``eval_box``) cost one counter
update each.  A name's self time is its inclusive time minus the time of
the spans it caused.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from cantorshift import coding, covers, maps, oracle, render
from cantorshift import tree as tree_mod


class Tracer:
    def __init__(self):
        self._stack = []  # [name, seconds of child spans] per open span
        self._patches = []
        self.names = []   # wrapped entry points, in install order
        self.reset()

    def reset(self):
        self.calls = defaultdict(int)       # (parent, name) -> calls
        self.seconds = defaultdict(float)   # (parent, name) -> inclusive s
        self.self_seconds = defaultdict(float)
        self.work = defaultdict(int)        # name -> work units

    def _exit(self, dt):
        name, child = self._stack.pop()
        parent = None
        if self._stack:
            self._stack[-1][1] += dt
            parent = self._stack[-1][0]
        self.calls[(parent, name)] += 1
        self.seconds[(parent, name)] += dt
        self.self_seconds[name] += dt - child

    @contextmanager
    def span(self, name):
        self._stack.append([name, 0.0])
        t0 = perf_counter()
        try:
            yield
        finally:
            self._exit(perf_counter() - t0)

    def wrap(self, owner, attr, name, work=None):
        fn = getattr(owner, attr)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append([name, 0.0])
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(perf_counter() - t0)
            if work is not None:
                self.work[name] += work(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))
        self.names.append(name)

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def total_calls(self, name):
        return sum(n for (_, nm), n in self.calls.items() if nm == name)

    def total_seconds(self, name):
        return sum(s for (_, nm), s in self.seconds.items() if nm == name)

    def breakdown(self):
        """(parent, name, calls, seconds) rows, heaviest first."""
        rows = [(p, n, self.calls[(p, n)], s) for (p, n), s in self.seconds.items()]
        return sorted(rows, key=lambda r: -r[3])


def install(tracer: Tracer):
    """Wrap the public entry points of maps, intervals, covers, tree,
    coding, oracle and render at the places the library calls them."""
    w = tracer.wrap
    w(tree_mod, "certified_roots", "maps.certified_roots")
    w(tree_mod, "validate_restriction", "maps.validate_restriction")
    w(maps.PolynomialMap, "eval_boxes_sharp", "maps.eval_boxes_sharp",
      lambda a, r: len(a[1][0]))
    w(maps.PolynomialMap, "eval_box", "maps.eval_box")
    w(tree_mod, "vbabs2", "intervals.vbabs2", lambda a, r: len(a[0][0]))
    w(tree_mod, "paved_clusters", "covers.paved_clusters", lambda a, r: len(a[1]))
    w(covers.PavedCover, "__init__", "covers.PavedCover.init", lambda a, r: len(a[0]))
    w(covers.PavedCover, "overlapping_cells", "covers.PavedCover.overlapping_cells")
    w(covers.PavedCover, "ancestor_of", "covers.PavedCover.ancestor_of")
    w(tree_mod, "build_tree", "tree.build_tree")
    w(tree_mod, "locate", "tree.locate")
    w(tree_mod.PuzzleTree, "to_json_dict", "tree.to_json_dict")
    w(coding, "assign_symbols", "coding.assign_symbols")
    w(coding, "fibers", "coding.fibers", lambda a, r: r.degree ** r.level)
    w(coding, "verify_semiconjugacy", "coding.verify_semiconjugacy")
    w(coding, "cylinder_component", "coding.cylinder_component")
    w(coding, "coding_to_json_dict", "coding.coding_to_json_dict")
    w(coding, "chi", "coding.chi")
    w(oracle, "generate", "oracle.generate")
    w(oracle, "brute_force_fibers", "oracle.brute_force_fibers",
      lambda a, r: sum(r.values()))
    w(render, "render_svg", "render.render_svg")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one iteration, keyed as in BENCHMARK.json."""
    m = {}
    for name in tracer.names:
        m[f"{name}.calls"] = tracer.total_calls(name)
        m[f"{name}.s"] = tracer.total_seconds(name)
    m["maps.eval_boxes_sharp.boxes"] = tracer.work["maps.eval_boxes_sharp"]
    m["intervals.vbabs2.boxes"] = tracer.work["intervals.vbabs2"]
    m["covers.paved_clusters.cells"] = tracer.work["covers.paved_clusters"]
    m["covers.PavedCover.init.cells"] = tracer.work["covers.PavedCover.init"]
    m["coding.fibers.words"] = tracer.work["coding.fibers"]
    m["oracle.brute_force_fibers.words"] = tracer.work["oracle.brute_force_fibers"]
    m["tree.self_s"] = tracer.self_seconds["tree.build_tree"]
    attempts = sum(n for (p, nm), n in tracer.calls.items()
                   if nm == "covers.paved_clusters" and p == "tree.build_tree")
    m["tree.certify_attempts"] = attempts
    return m
