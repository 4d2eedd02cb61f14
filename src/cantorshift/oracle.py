"""Abstract admissible component trees and brute-force fiber counting.

The generator emits random ``AbstractTree``s: the combinatorial tree
(container edges, image edges, local degrees) that ``PuzzleTree`` extends
with geometry, admissible by construction: level-1 degrees are a
composition of d into N >= 2 parts, and below that the children of a
parent P over each component V carry degrees composing local_degree(P).

``brute_force_fibers`` recounts cylinder fibers by iterative table-filling
over word lists, sharing no code with the per-level carrier arrays and word
codes behind ``coding.fibers``; agreement of the two on generated trees is
the correctness oracle for the coding construction.
"""

from __future__ import annotations

import random

from .errors import BudgetExceeded, InconsistentTree
from .tree import AbstractComponent, AbstractTree

# most words ``brute_force_fibers`` enumerates; 2^18 take 1-3 s, 80-150 MB traced
_MAX_WORDS = 2 ** 18


def _random_composition(rng: random.Random, total: int, bias: float, min_parts: int = 1):
    """Random composition of ``total``; each of the total-1 gaps breaks
    independently with probability ``bias`` (0.5 is uniform over all
    compositions; larger values favor smaller parts)."""
    if total < min_parts:
        raise ValueError("cannot compose below the minimum number of parts")
    breaks = [g for g in range(total - 1) if rng.random() < bias]
    while len(breaks) + 1 < min_parts:
        choices = [g for g in range(total - 1) if g not in breaks]
        breaks.append(rng.choice(choices))
    breaks.sort()
    parts = []
    prev = 0
    for g in breaks:
        parts.append(g + 1 - prev)
        prev = g + 1
    parts.append(total - prev)
    return parts


def generate(seed: int, d: int, depth: int, bias: float = 0.5) -> AbstractTree:
    """Seeded random admissible tree of the given degree and depth.

    Identical seeds give identical trees.  Level 1 is a composition of d
    into N >= 2 parts; below, for every parent P and every component V
    inside image(P), the children of P over V get degrees composing
    local_degree(P).  ``coding.assign_symbols`` checks the tree before coding it.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = random.Random(seed)
    root = AbstractComponent(0, 0, None, None, 1, 1)
    levels = [[root]]

    parts = _random_composition(rng, d, bias, min_parts=2)
    level1 = []
    for idx, deg in enumerate(parts):
        level1.append(AbstractComponent(
            1, idx, 0, 0, deg, deg, ("c",) if deg > 1 else ()))
    levels.append(level1)

    for k in range(2, depth + 1):
        prev = levels[k - 1]
        by_container = {}
        for v in prev:
            by_container.setdefault(v.container, []).append(v)
        comps = []
        for p in prev:
            for v in by_container.get(p.image, ()):
                # degree 1 has the one composition (1), which draws nothing
                parts = ((1,) if p.local_degree == 1
                         else _random_composition(rng, p.local_degree, bias))
                for deg in parts:
                    comps.append(AbstractComponent(
                        k, len(comps), p.index, v.index, deg, deg * v.cumulative_degree,
                        ("c",) if deg > 1 else ()))
        levels.append(comps)
    return AbstractTree(d, levels)


def brute_force_fibers(tree, assignment, k: int):
    """Fiber counts per component id by iterative table-filling.

    Maintains the full list of words per component, extending one letter at
    a time: a word of length n+1 prepends a symbol s to a word w of length
    n, landing in the unique level-(n+1) component over c(w) whose symbol
    set contains s.  Deliberately works on dicts and tuples, sharing no
    code with the carrier arrays and base-d word codes of coding.fibers.
    """
    d = tree.degree
    if d ** k > _MAX_WORDS:
        raise BudgetExceeded(f"{d}^{k} words exceed the enumeration budget")
    words_at = {0: [()]}  # component index -> words, at the current length
    for lvl in range(1, k + 1):
        carriers = {}
        for comp in tree.levels[lvl]:
            for s in assignment.of(lvl, comp.index):
                if (comp.image, s) in carriers:
                    raise InconsistentTree(
                        f"symbol {s} over image {comp.image} claimed twice at level {lvl}")
                carriers[(comp.image, s)] = comp.index
        nxt = {}
        for image_idx, words in words_at.items():
            for s in range(d):
                target = carriers.get((image_idx, s))
                if target is None:
                    raise InconsistentTree(
                        f"no carrier for symbol {s} over image {image_idx} at level {lvl}")
                bucket = nxt.setdefault(target, [])
                for w in words:
                    bucket.append((s,) + w)
        words_at = nxt
    return {(k, idx): len(words) for idx, words in sorted(words_at.items())}


def run_equivalence_cases(seed: int, cases: int, degrees=(2, 3, 4), max_depth: int = 6,
                          bias: float = 0.55):
    """Seeded batch comparing coding.fibers against brute_force_fibers.

    Returns (passed, failed, messages).  Each case draws a degree and depth,
    generates a tree, builds the assignment, and requires exact agreement
    of the two fiber computations plus the partition/nesting invariants.
    A degree below 2, a depth below 1 or a negative case count raises
    ValueError, and a batch whose largest case could pass the brute-force
    word budget raises BudgetExceeded, both before any case runs.
    """
    from .coding import assign_symbols, fibers

    for name, value, least in (("degree", min(degrees), 2), ("depth", max_depth, 1),
                               ("case count", cases, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, not {value}")
    if max(degrees) ** max_depth > _MAX_WORDS:
        raise BudgetExceeded(f"{max(degrees)}^{max_depth} words exceed the enumeration budget")
    rng = random.Random(seed)
    passed = 0
    messages = []
    for case in range(cases):
        d = degrees[rng.randrange(len(degrees))]
        depth = rng.randint(1, max_depth)
        case_seed = rng.randrange(2**62)
        try:
            tree = generate(case_seed, d, depth, bias)
            assignment = assign_symbols(tree)
            _check_assignment_invariants(tree, assignment)
            ours = fibers(assignment, tree, depth)
            theirs = brute_force_fibers(tree, assignment, depth)
            mine = {cid: len(ws) for cid, ws in ours.words_by_component.items()}
            if mine != theirs:
                messages.append(
                    f"case {case} (seed {case_seed}, d={d}, depth={depth}): "
                    f"fiber counts disagree")
                continue
        except Exception as exc:  # any failure is a case failure, reported
            messages.append(
                f"case {case} (seed {case_seed}, d={d}, depth={depth}): {exc!r}")
            continue
        passed += 1
    return passed, cases - passed, messages


def _check_assignment_invariants(tree, assignment):
    d = tree.degree
    full = set(range(d))
    for k in range(1, tree.depth + 1):
        claimed = {}
        for comp in tree.levels[k]:
            syms = set(assignment.of(k, comp.index))
            if len(syms) != comp.local_degree:
                raise InconsistentTree(f"|S({comp.id})| != local degree")
            parent_syms = set(assignment.of(k - 1, comp.container))
            if not syms <= parent_syms:
                raise InconsistentTree(f"S({comp.id}) not nested in its container's symbols")
            got = claimed.setdefault(comp.image, set())
            if got & syms:
                raise InconsistentTree(f"S({comp.id}) overlaps a sibling over the same image")
            got |= syms
        for v, got in claimed.items():
            if got != full:
                raise InconsistentTree(
                    f"symbols over image {v} at level {k} do not partition the alphabet")
