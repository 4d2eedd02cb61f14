"""Finite-depth coding of the component tree by shift-space cylinders.

Each component W of level >= 1 receives a symbol set S(W) inside the
alphabet {0, ..., d-1} with three defining properties:

  * |S(W)| equals the mapping degree of W onto its image;
  * S(W) is contained in S(container(W));
  * over the siblings with a common image component V, the sets S(W)
    partition the whole alphabet.

The assignment is built by induction on the level: level-1 components get
consecutive symbol blocks of sizes d_1, ..., d_N in canonical order, and
at level k the symbols of each parent P are split, per image component V,
into consecutive ascending runs matching the children's degrees in
canonical order.  All free choices are resolved by the canonical component
order, so two runs on the same tree agree byte for byte.

The induced cylinder map c sends a word (e_1, ..., e_k) to the unique
level-k component with image c(e_2, ..., e_k) and e_1 in S(W); fibers of c
realize the counting identity  #fiber(W) = cumulative_degree(W)  at finite
depth.  Words are plain tuples of ints; the shift drops the first symbol
and the prefix map drops the last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, HypothesisViolation, InconsistentTree, Undecided, check_level
from .maps import DyadicOrbit, p_derivative, p_eval, parse_point, qc_is_zero

# most words ``fibers`` enumerates
_MAX_WORDS = 10_000_000


@dataclass(frozen=True)
class SymbolAssignment:
    """Symbol sets per component id (level, index); level 0 owns the full
    alphabet."""

    degree: int
    symbols: dict

    def of(self, level: int, index: int) -> tuple:
        if level == 0:
            return tuple(range(self.degree))
        return self.symbols[(level, index)]


def assign_symbols(tree) -> SymbolAssignment:
    """Construct the canonical branch-symbol assignment for a tree.

    Works for any tree exposing ``degree``, ``depth`` and ordered component
    lists with ``container``/``image``/``local_degree`` (geometric trees and
    abstract ones alike).  Raises InconsistentTree when the degree
    bookkeeping cannot be met, which signals a corrupted tree.
    """
    d = tree.degree
    symbols = {}
    if tree.depth < 1:
        return SymbolAssignment(d, symbols)

    # level 1: consecutive blocks of sizes d_1, ..., d_N starting at 0
    next_symbol = 0
    for comp in tree.levels[1]:
        block = tuple(range(next_symbol, next_symbol + comp.local_degree))
        symbols[(1, comp.index)] = block
        next_symbol += comp.local_degree
    if next_symbol != d:
        raise InconsistentTree(
            f"level-1 degrees fill {next_symbol} symbols, alphabet has {d}")

    for k in range(2, tree.depth + 1):
        # group the children of each parent by their image component
        groups = {}
        for comp in tree.levels[k]:
            groups.setdefault((comp.container, comp.image), []).append(comp)
        for (p_idx, v_idx), children in sorted(groups.items()):
            pool = symbols[(k - 1, p_idx)]
            take = 0
            for child in children:  # canonical order within the level list
                run = pool[take:take + child.local_degree]
                if len(run) != child.local_degree:
                    raise InconsistentTree(
                        f"parent {(k - 1, p_idx)} has too few symbols for its "
                        f"children over image {(k - 1, v_idx)}")
                symbols[(k, child.index)] = tuple(run)
                take += child.local_degree
            if take != len(pool):
                raise InconsistentTree(
                    f"children of {(k - 1, p_idx)} over image {(k - 1, v_idx)} "
                    f"use {take} of {len(pool)} symbols")
    return SymbolAssignment(d, symbols)


def _first_symbol_lookup(assignment: SymbolAssignment, tree, level: int,
                         defects=None) -> dict:
    """(image index, first symbol) -> component index, for one level.

    A pair claimed twice raises InconsistentTree; when ``defects`` is a
    list, it maps to None instead and (level, pair) is recorded there.
    """
    table = {}
    for comp in tree.levels[level]:
        for s in assignment.of(level, comp.index):
            key = (comp.image, s)
            if key in table:
                if defects is None:
                    raise InconsistentTree(
                        f"symbol {s} over image {comp.image} is claimed twice "
                        f"at level {level}")
                table[key] = None
                defects.append((level, key))
            else:
                table[key] = comp.index
    return table


def _first_symbol_lookups(assignment: SymbolAssignment, tree, k: int, defects=None) -> list:
    """The ``_first_symbol_lookup`` tables of levels 1..k, at their level's
    index (index 0 is None)."""
    return [None] + [_first_symbol_lookup(assignment, tree, lvl, defects)
                     for lvl in range(1, k + 1)]


def _resolve_word(word, lookup, memo, defects=None):
    """The cylinder map on component indices: c(w) is the level-|w|
    component over c(shift(w)) that carries w[0].

    ``lookup[k]`` is the ``_first_symbol_lookup`` table of level k and
    ``memo`` caches resolved words; seed it with {(): 0}, the root.  A
    missing carrier raises InconsistentTree; when ``defects`` is a list the
    word resolves to None instead, (level, pair) is recorded, and every
    word over an unresolved suffix resolves to None as well.
    """
    if word in memo:
        return memo[word]
    image_idx = _resolve_word(word[1:], lookup, memo, defects)
    idx = None
    if image_idx is not None:
        table = lookup[len(word)]
        key = (image_idx, word[0])
        idx = table.get(key)
        if idx is None and key not in table:
            if defects is None:
                raise InconsistentTree(
                    f"no component for symbol {word[0]} over image {image_idx} "
                    f"at level {len(word)}")
            defects.append((len(word), key))
    memo[word] = idx
    return idx


def cylinder_component(assignment: SymbolAssignment, tree, word):
    """The component id c(word) coded by a finite word.

    c(()) is the root, and c(w) is the unique level-|w| component whose
    image is c(shift(w)) and whose symbol set contains the first letter;
    ``_resolve_word`` walks the suffixes on the carrier tables of levels
    1..|w|.  Total and single-valued whenever the assignment satisfies the
    partition property; raises InconsistentTree otherwise.
    """
    word = tuple(word)
    k = len(word)
    if k > tree.depth:
        raise ValueError(f"word length {k} exceeds tree depth {tree.depth}")
    d = tree.degree
    for s in word:
        if not 0 <= s < d:
            raise ValueError(f"symbol {s} outside alphabet of size {d}")
    return (k, _resolve_word(word, _first_symbol_lookups(assignment, tree, k), {(): 0}))


@dataclass(frozen=True)
class FiberTable:
    """All depth-k words grouped by the component they code."""

    level: int
    degree: int
    words_by_component: dict  # (level, index) -> tuple of words

    def count(self, level: int, index: int) -> int:
        return len(self.words_by_component.get((level, index), ()))


def fibers(assignment: SymbolAssignment, tree, k: int) -> FiberTable:
    """Group all d^k words by coded component, resolving each word through
    the suffix recursion of the cylinder map.

    Per-component counts equal the cumulative degree and every level-k
    component receives at least one word; both facts are consequences of
    the partition property and are re-asserted here.
    """
    check_level(k, tree.depth)
    d = tree.degree
    if d ** k > _MAX_WORDS:
        raise BudgetExceeded(f"{d}^{k} words exceed the enumeration budget")
    lookup = _first_symbol_lookups(assignment, tree, k)
    memo = {(): 0}
    by_comp = {}
    for word in itertools.product(range(d), repeat=k):
        idx = _resolve_word(word, lookup, memo)
        by_comp.setdefault((k, idx), []).append(word)
    table = FiberTable(k, d, {cid: tuple(ws) for cid, ws in by_comp.items()})
    for comp in tree.levels[k]:
        n = table.count(k, comp.index)
        if n != comp.cumulative_degree:
            raise InconsistentTree(
                f"fiber of {(k, comp.index)} has {n} words, expected "
                f"{comp.cumulative_degree}")
    return table


# ---------------------------------------------------------------------------
# chi: maximal local degree along an orbit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiResult:
    """Product of local degrees at certified critical hits along an orbit.

    ``certified`` status means the value is the full supremum: either the
    restriction has no critical points, or the degree budget 2^(d-N) is
    exhausted (no further hit can occur), or the orbit left the domain.
    Otherwise the value is a lower bound honest up to the horizon walked.
    An orbit point exactly on the domain circle gets no result: ``chi``
    raises Undecided.
    """

    value: int
    status: str  # "certified" | "lower_bound"
    horizon: int
    hits: tuple  # ((step, point string, local degree), ...)
    escaped_at: int = None

    def to_json_dict(self):
        return {
            "value": self.value,
            "status": self.status,
            "horizon": self.horizon,
            "hits": [{"step": s, "point": p, "local_degree": g} for s, p, g in self.hits],
            "escaped_at": self.escaped_at,
        }


def _exact_local_degree(pmap, z):
    """Local degree of the map at an exact point: 1 + order of z as a root
    of f', decided by exact evaluation of successive derivatives."""
    deg = 1
    deriv = p_derivative(pmap.exact_coefficients)
    while deg < pmap.degree:
        if qc_is_zero(p_eval(deriv, z)):
            deg += 1
            deriv = p_derivative(deriv)
        else:
            break
    return deg


def chi(pmap, z, tree, horizon: int = 24) -> ChiResult:
    """Walk the orbit of z, multiplying local degrees at critical hits.

    The orbit is walked by ``DyadicOrbit``, whose ``side`` places each step
    against the domain circle.  A step outside the closed domain ends the
    orbit, and a step on the circle raises Undecided naming it, as
    ``locate`` does.  A ball disjoint from every critical enclosure
    certifies that the step is no hit; only where it meets one is the exact
    orbit point computed and the question decided exactly (a point either
    is or is not a root of f').  Hits are reported as those exact points.
    An exact point past the orbit-size guard makes the result a lower bound.
    Certification beyond the horizon uses the degree budget: once the
    accumulated product reaches 2^(d - N), any further hit would exceed the
    global bound, so the tail is hit-free under the standing hypotheses.
    Raises ValueError for a horizon below 0 or a tree of depth 0, which has
    no level 1 to place the critical points in.
    """
    if horizon < 0:
        raise ValueError(f"horizon {horizon} is below 0")
    if tree.depth < 1:
        raise ValueError(f"chi needs a tree of depth at least 1, not {tree.depth}")
    z = parse_point(z)
    d_prime = tree.degree - tree.n_level1
    budget = 2 ** d_prime

    if not any(comp.contains_critical for comp in tree.levels[1]):
        return ChiResult(value=1, status="certified", horizon=horizon, hits=())

    critical_rects = [crit.enclosure.as_tuple() if crit.exact is None
                      else (crit.exact[0], crit.exact[0], crit.exact[1], crit.exact[1])
                      for crit in pmap.critical_points]
    value = 1
    hits = []
    seen_hit_points = {}
    orbit = DyadicOrbit(pmap, tree.disk, z)
    for step in range(horizon + 1):
        if step:
            orbit.advance()
        side = orbit.side()
        if side is None:  # the exact orbit point is past the size guard
            return ChiResult(value, "lower_bound", horizon, tuple(hits))
        if side == "boundary":
            raise Undecided(f"orbit step {step} lies exactly on the boundary circle of U")
        if side == "out":
            # the orbit left the closed domain: no further iterates exist
            return ChiResult(value, "certified", horizon, tuple(hits), escaped_at=step)
        if any(orbit.meets(rect) for rect in critical_rects):
            cur = orbit.exact_point()
            if cur is None:
                return ChiResult(value, "lower_bound", horizon, tuple(hits))
            deg = _exact_local_degree(pmap, cur)
            if deg >= 2:
                if cur in seen_hit_points:
                    raise HypothesisViolation(
                        "orbit revisits a critical point: a periodic critical orbit "
                        "violates the standing hypotheses")
                seen_hit_points[cur] = step
                value *= deg
                hits.append((step, f"{cur[0]}{'+' if cur[1] >= 0 else ''}{cur[1]}i", deg))
                if value > budget:
                    raise HypothesisViolation(
                        f"accumulated local degree {value} exceeds the bound 2^{d_prime}")
        if value == budget:
            return ChiResult(value, "certified", horizon, tuple(hits))
    return ChiResult(value, "lower_bound", horizon, tuple(hits))


# ---------------------------------------------------------------------------
# semi-conjugacy verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    level: int
    words_checked: int
    checks: tuple  # (name, passed, counterexample-or-None)

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def summary_lines(self):
        lines = []
        for name, ok, ce in self.checks:
            line = f"check {name}: {'pass' if ok else 'FAIL'}"
            if ce:
                line += f"  [{ce}]"
            lines.append(line)
        lines.append(f"{sum(1 for _, ok, _ in self.checks if ok)}/{len(self.checks)} "
                     f"checks pass, {self.words_checked} cylinders")
        return lines

    def to_json_dict(self):
        return {
            "level": self.level,
            "words_checked": self.words_checked,
            "checks": [{"name": n, "passed": ok, "counterexample": ce}
                       for n, ok, ce in self.checks],
            "all_passed": self.all_passed,
        }


def _word_str(w):
    return "(" + ",".join(map(str, w)) + ")"


def verify_semiconjugacy(assignment: SymbolAssignment, tree, k: int) -> VerificationReport:
    """Exhaustively check the coding over all d^k words.

    Five checks: (1) prefix words code the containers, (2) shifted words
    code the images, (3) the coding is onto the level-k components,
    (4) fiber sizes equal cumulative degrees, (5) a component whose fiber
    mixes first symbols has a critical component somewhere on its image
    chain.  Each failing check reports a concrete counterexample.  Past the
    word budget, BudgetExceeded comes before any word is resolved.
    """
    check_level(k, tree.depth, lowest=1)
    d = tree.degree
    if d ** k > _MAX_WORDS:
        raise BudgetExceeded(f"{d}^{k} words exceed the enumeration budget")
    # resolve every word of length <= k, tolerating a broken assignment so
    # that each defect still surfaces as a counterexample below
    defects = []
    lookup = _first_symbol_lookups(assignment, tree, k, defects)
    code = {(): 0}
    words = [()]
    for _ in range(k):
        words = [(s,) + w for w in words for s in range(d)]
        for w in words:
            _resolve_word(w, lookup, code, defects)
    words_k = sorted(words)

    c1_ok, c1_ce = True, None
    c2_ok, c2_ce = True, None
    for w in words_k:
        idx = code[w]
        if idx is None:
            if c2_ok:
                c2_ok, c2_ce = False, f"word {_word_str(w)} has no coded component"
            continue
        comp = tree.levels[k][idx]
        if comp.container != code[w[:-1]] and c1_ok:
            c1_ok = False
            c1_ce = (f"container(c{_word_str(w)}) = {comp.container}, "
                     f"c{_word_str(w[:-1])} = {code[w[:-1]]}")
        if comp.image != code[w[1:]] and c2_ok:
            c2_ok = False
            c2_ce = (f"image(c{_word_str(w)}) = {comp.image}, "
                     f"c{_word_str(w[1:])} = {code[w[1:]]}")

    counts = {}
    firsts = {}
    for w in words_k:
        idx = code[w]
        if idx is None:
            continue
        counts[idx] = counts.get(idx, 0) + 1
        firsts.setdefault(idx, set()).add(w[0])

    c3_ok, c3_ce = True, None
    missing = [c.index for c in tree.levels[k] if c.index not in counts]
    if missing:
        c3_ok, c3_ce = False, f"component ({k},{missing[0]}) receives no word"

    c4_ok, c4_ce = True, None
    for comp in tree.levels[k]:
        got = counts.get(comp.index, 0)
        if got != comp.cumulative_degree:
            c4_ok = False
            c4_ce = (f"fiber of ({k},{comp.index}) has {got} words, "
                     f"cumulative degree is {comp.cumulative_degree}")
            break
    if c4_ok and defects:
        lvl, key = defects[0]
        c4_ok, c4_ce = False, f"symbol table defect at level {lvl}, (image, symbol) = {key}"

    c5_ok, c5_ce = True, None
    for comp in tree.levels[k]:
        fs = firsts.get(comp.index, set())
        if len(fs) < 2:
            continue
        # walk the image chain down to a branched component or to level 1
        node = comp
        while node.local_degree < 2 and node.level > 1:
            node = tree.levels[node.level - 1][node.image]
        if node.local_degree < 2:
            c5_ok, c5_ce = False, (f"fiber of ({k},{comp.index}) mixes first symbols "
                                   f"{sorted(fs)} but its image chain is critical-free")
            break

    checks = (
        ("container-of-prefix", c1_ok, c1_ce),
        ("image-of-shift", c2_ok, c2_ce),
        ("surjective-onto-level", c3_ok, c3_ce),
        ("fiber-size-equals-degree", c4_ok, c4_ce),
        ("mixed-fibers-are-critical", c5_ok, c5_ce),
    )
    return VerificationReport(level=k, words_checked=len(words_k), checks=checks)


def coding_to_json_dict(assignment: SymbolAssignment, tree, k: int) -> dict:
    """Coding export: per level, symbols and fibers per component."""
    check_level(k, tree.depth)
    out = {"degree": tree.degree, "depth": k, "levels": {}}
    for lvl in range(1, k + 1):
        table = fibers(assignment, tree, lvl)
        level_out = {}
        for comp in tree.levels[lvl]:
            words = table.words_by_component.get((lvl, comp.index), ())
            level_out[f"{lvl}:{comp.index}"] = {
                "symbols": list(assignment.of(lvl, comp.index)),
                "fiber_count": len(words),
                "fiber_words": ["".join(map(str, w)) if tree.degree <= 10
                                else ",".join(map(str, w)) for w in words],
            }
        out["levels"][str(lvl)] = level_out
    return out
