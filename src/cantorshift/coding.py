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
order, so two runs on the same tree agree byte for byte.  By induction
every symbol set is a run [start, start + degree): a child starts at its
parent's start plus the degrees of the children before it over the same
image.  ``assign_symbols`` computes these starts for a whole tree on
arrays, a level at a time, and shares one tuple among equal runs.

The induced cylinder map c sends a word (e_1, ..., e_k) to the unique
level-k component with image c(e_2, ..., e_k) and e_1 in S(W); fibers of c
realize the counting identity  #fiber(W) = cumulative_degree(W)  at finite
depth.  Words are plain tuples of ints; the shift drops the first symbol
and the prefix map drops the last.  Internally a word of length j is the
base-d number with the first symbol most significant, and c is read off
one carrier table per level (``_carrier_tables``).  Each table is built
once per assignment and tree and kept on the assignment, so every entry
point after the first reads the tables it needs off that store.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, HypothesisViolation, InconsistentTree, Undecided, check_level
from .maps import DyadicOrbit, p_derivative, p_eval, parse_point, qc_is_zero
from .tree import check_structure

# most words ``fibers`` and ``verify_semiconjugacy`` enumerate
_MAX_WORDS = 2 ** 20


@dataclass(frozen=True)
class SymbolAssignment:
    """Symbol sets per component id (level, index); level 0 owns the full
    alphabet.

    An assignment and every tree it codes are treated as immutable once
    coded: the assignment keeps, per tree, the carrier tables of the levels
    built so far with their repeated claims (``_carrier_tables``), and
    serves them to every later call on that tree.  Trees are held weakly,
    so the store lives no longer than they do.  To code altered symbol sets,
    build a new assignment.  Concurrent readers stay safe: each level keeps
    the first table stored for it.
    """

    degree: int
    symbols: dict
    _tables: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False, compare=False)

    def of(self, level: int, index: int) -> tuple:
        if level == 0:
            return tuple(range(self.degree))
        return self.symbols[(level, index)]


def _ints(values: list) -> np.ndarray:
    """A list of ints as an int64 array."""
    return np.fromiter(values, dtype=np.int64, count=len(values))


def assign_symbols(tree) -> SymbolAssignment:
    """Construct the canonical branch-symbol assignment for a tree.

    Works on any ``tree.AbstractTree`` (a ``PuzzleTree`` and a generated
    tree alike) through its ``degree``, ``depth`` and the components'
    ``container``/``image``/``local_degree``.  ``tree.check_structure``
    runs first, so a corrupted tree raises InconsistentTree before any
    symbol is assigned.

    Every symbol set is a run [start, start + degree), computed on arrays.
    Level 1 takes consecutive blocks.  Below, the children of a parent over
    one image component, a group, split the parent's run in list order, so
    a child starts at its parent's start plus the degrees before it in its
    group.  Each distinct run is one tuple, shared by every set equal to it.
    """
    check_structure(tree)
    d = tree.degree
    if tree.depth < 1:
        return SymbolAssignment(d, {})
    levels = tree.levels[1:tree.depth + 1]
    sizes = list(map(len, levels))
    top = sizes[0]
    comps = list(itertools.chain.from_iterable(levels))
    offset = np.cumsum([0, *sizes])  # each level's offset in ``comps``; an index is a position

    # every component in the order its set is stored: level 1 in list order,
    # then the children by group, ascending in (level, container, image), in
    # list order within a group
    level = np.arange(1, tree.depth + 1).repeat(sizes)
    children = comps[top:]
    container, image = _ints([c.container for c in children]), _ints([c.image for c in children])
    order = np.lexsort((image, container, level[top:]))
    container, image = container[order], image[order]
    stored = np.concatenate((np.arange(top), order + top))
    level, degree = level[stored], _ints([c.local_degree for c in comps])[stored]
    child_level = level[top:]
    head = np.ones(len(order), dtype=bool)  # the first child of each group
    head[1:] = ((child_level[1:] != child_level[:-1]) | (container[1:] != container[:-1])
                | (image[1:] != image[:-1]))
    start = degree.cumsum() - degree  # right for level 1; the children's are set below
    # the degrees before a child in its group
    before = start[top:] - start[top:][head.nonzero()[0]][head.cumsum() - 1]

    # the children's starts, a level at a time, since a parent lies a level above
    seat = np.empty_like(stored)  # the stored position of each component of ``comps``
    seat[stored] = np.arange(len(stored))
    parent = seat[offset[child_level - 2] + container]
    for lo, hi in zip(offset[1:-1].tolist(), offset[2:].tolist()):
        start[lo:hi] = start[parent[lo - top:hi - top]] + before[lo - top:hi - top]

    span = int(degree.max()) + 1
    keys = (start * span + degree).tolist()
    runs = {key: tuple(range(key // span, key // span + key % span)) for key in set(keys)}
    index = stored - offset[level - 1]
    return SymbolAssignment(d, dict(zip(zip(level.tolist(), index.tolist()),
                                        map(runs.__getitem__, keys))))


def _carrier_table(assignment: SymbolAssignment, tree, lvl: int):
    """The carrier table T_lvl of the cylinder map, as an int64 array, and
    its repeated claims.

    T_lvl[v, s] is the index of the level-lvl component over image v whose
    symbol set holds s; -1 where none does, -2 where two or more do.  The
    repeats are (lvl, pair), once per repeated claim, in component order.
    Symbols outside the alphabet, below 0 or from d on, get columns of their
    own, so that a stray symbol never lands in the cell of another pair.
    """
    d = tree.degree
    comps = tree.levels[lvl]
    image, owner = _ints([c.image for c in comps]), _ints([c.index for c in comps])
    sets = list(map(assignment.symbols.__getitem__, zip(itertools.repeat(lvl), owner.tolist())))
    size = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    symbol = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64,
                         count=int(size.sum()))
    image, owner = image.repeat(size), owner.repeat(size)  # one row per claim
    # unreached images and stray symbols get cells too, to find their repeats
    rows = max(len(tree.levels[lvl - 1]), int(image.max(initial=-1)) + 1)
    low = min(0, int(symbol.min(initial=0)))  # symbol s sits in column s - low
    cols = max(d, int(symbol.max(initial=-1)) + 1) - low
    key = image * cols + symbol - low
    claimed = np.bincount(key, minlength=rows * cols)
    table = np.full(rows * cols, -1, dtype=np.int64)
    table[key] = owner
    shared = (claimed[key] > 1).nonzero()[0]  # the claims of pairs claimed twice or more
    table[key[shared]] = -2
    first = {}  # pair -> its first claim
    repeats = [(lvl, (int(image[p]), int(symbol[p])))
               for p in shared.tolist() if first.setdefault(key[p], p) != p]
    return table.reshape(rows, cols)[:, -low:d - low], repeats


def _carrier_tables(assignment: SymbolAssignment, tree, k: int, defects=None) -> list:
    """The carrier tables T_1..T_k, each built once per assignment and tree
    by ``_carrier_table`` and kept in the assignment's store.

    A pair claimed twice raises InconsistentTree at the first repeat of the
    lowest level that has one; when ``defects`` is a list, every repeat is
    recorded there instead, level by level in component order.
    """
    store = assignment._tables.setdefault(tree, {})  # level -> (table, repeats)
    tables = []
    for lvl in range(1, k + 1):
        if lvl not in store:
            # two readers may build a level at once; setdefault keeps one
            store.setdefault(lvl, _carrier_table(assignment, tree, lvl))
        table, repeats = store[lvl]
        if defects is not None:
            defects.extend(repeats)
        elif repeats:
            _, (v, s) = repeats[0]
            raise InconsistentTree(f"symbol {s} over image {v} is claimed twice at level {lvl}")
        tables.append(table)
    return tables


def _codes(tables) -> list:
    """code_0, ..., code_k: code_j[w] is the index of c(w) for the word of
    length j numbered w, base d with the first symbol most significant.

    The word s.u has number s * d^(j-1) + u, so code_j is
    T_j[code_{j-1}].T.ravel().  A word over an unresolved suffix gets -1,
    any other word its table entry.
    """
    codes = [np.zeros(1, dtype=np.int64)]
    for table in tables:
        prev = codes[-1]
        codes.append(np.where(prev[:, None] >= 0, table[np.maximum(prev, 0)], -1).T.ravel())
    return codes


def cylinder_component(assignment: SymbolAssignment, tree, word):
    """The component id c(word) coded by a finite word.

    c(()) is the root, and c(w) is the unique level-|w| component whose
    image is c(shift(w)) and whose symbol set contains the first letter,
    read off the carrier tables of levels 1..|w| from the last letter on.
    Once those levels are in the assignment's store, that is k table
    lookups.  Total and single-valued whenever the assignment satisfies the
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
    v = 0
    for lvl, (table, s) in enumerate(zip(_carrier_tables(assignment, tree, k), reversed(word)), 1):
        if table[v, s] < 0:
            raise InconsistentTree(f"no component for symbol {s} over image {v} at level {lvl}")
        v = int(table[v, s])
    return (k, v)


@dataclass(frozen=True)
class FiberTable:
    """All depth-k words grouped by the component they code: only the
    components that receive a word, in ascending index, each with its words
    in ascending lexicographic order."""

    level: int
    degree: int
    words_by_component: dict  # (level, index) -> tuple of words

    def count(self, level: int, index: int) -> int:
        return len(self.words_by_component.get((level, index), ()))


def fibers(assignment: SymbolAssignment, tree, k: int) -> FiberTable:
    """Group all d^k words by coded component, by one stable sort of the
    codes of the length-k words.

    Per-component counts equal the cumulative degree and every level-k
    component receives at least one word; both facts are consequences of
    the partition property and are re-asserted here.
    """
    check_level(k, tree.depth)
    d = tree.degree
    if d ** k > _MAX_WORDS:
        raise BudgetExceeded(f"{d}^{k} words exceed the enumeration budget")
    code = _codes(_carrier_tables(assignment, tree, k))[-1]
    if code.min() < 0:  # the least unresolved word names its missing carrier
        cylinder_component(assignment, tree, np.unravel_index(np.argmax(code < 0), (d,) * k))
    words = list(itertools.product(range(d), repeat=k))
    grouped = tuple(map(words.__getitem__, np.argsort(code, kind="stable").tolist()))
    got = np.bincount(code, minlength=len(tree.levels[k])).tolist()
    # the fiber of component i is grouped[bounds[i]:bounds[i + 1]]
    bounds = list(itertools.accumulate(got, initial=0))
    table = FiberTable(k, d, {(k, idx): grouped[a:b] for idx, a, b
                              in zip(itertools.count(), bounds, bounds[1:]) if b > a})
    for comp in tree.levels[k]:
        if got[comp.index] != comp.cumulative_degree:
            raise InconsistentTree(
                f"fiber of {(k, comp.index)} has {got[comp.index]} words, expected "
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

    critical_rects = [crit.enclosure if crit.exact is None
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


def _word_str(number, length, d):
    """The word of the given length numbered ``number``, as "(e_1,...,e_k)"."""
    return "(" + ",".join(map(str, np.unravel_index(number, (d,) * length))) + ")"


def verify_semiconjugacy(assignment: SymbolAssignment, tree, k: int) -> VerificationReport:
    """Exhaustively check the coding over all d^k words.

    Five checks: (1) prefix words code the containers, (2) shifted words
    code the images, (3) the coding is onto the level-k components,
    (4) fiber sizes equal cumulative degrees, (5) a component whose fiber
    mixes first symbols has a critical component somewhere on its image
    chain.  They compare the codes of the words of lengths k - 1 and k; a
    failing check reports its least failing word or component.  Past the
    word budget, BudgetExceeded comes before any word is resolved.  Then
    ``tree.check_structure`` runs, as in ``assign_symbols``: a malformed
    tree raises InconsistentTree, so the checks judge the assignment alone.
    On a well-formed tree the cumulative degrees of level k sum to d^k, so
    fiber sizes that all match leave no word unresolved; the size check
    then reports only a pair claimed twice (a symbol table defect).
    """
    check_level(k, tree.depth, lowest=1)
    d = tree.degree
    if d ** k > _MAX_WORDS:
        raise BudgetExceeded(f"{d}^{k} words exceed the enumeration budget")
    check_structure(tree)
    # tolerate a broken assignment so that each defect still surfaces as a
    # counterexample below
    defects = []
    codes = _codes(_carrier_tables(assignment, tree, k, defects))
    code, prev, n, comps = codes[k], codes[k - 1], d ** (k - 1), tree.levels[k]
    words = np.arange(d ** k)
    resolved = code >= 0
    container, image = np.array([(c.container, c.image) for c in comps],
                                dtype=np.int64)[np.maximum(code, 0)].T

    prefix_ce = shift_ce = onto_ce = size_ce = mixed_ce = None
    bad = np.flatnonzero(resolved & (container != prev[words // d]))
    if bad.size:
        w, u = bad[0], prev[bad[0] // d]
        prefix_ce = (f"container(c{_word_str(w, k, d)}) = {container[w]}, "
                     f"c{_word_str(w // d, k - 1, d)} = {u if u >= 0 else None}")
    bad = np.flatnonzero(~resolved | (image != prev[words % n]))
    if bad.size:
        w = bad[0]
        shift_ce = (f"word {_word_str(w, k, d)} has no coded component" if not resolved[w] else
                    f"image(c{_word_str(w, k, d)}) = {image[w]}, "
                    f"c{_word_str(w % n, k - 1, d)} = {prev[w % n]}")

    counts = np.bincount(code[resolved], minlength=len(comps))
    missing = [c.index for c in comps if not counts[c.index]]
    if missing:
        onto_ce = f"component ({k},{missing[0]}) receives no word"

    for comp in comps:
        if counts[comp.index] != comp.cumulative_degree:
            size_ce = (f"fiber of ({k},{comp.index}) has {counts[comp.index]} words, "
                       f"cumulative degree is {comp.cumulative_degree}")
            break
    else:
        if defects:
            lvl, key = defects[0]
            size_ce = f"symbol table defect at level {lvl}, (image, symbol) = {key}"

    # the distinct (component, first symbol) pairs of the resolved words
    firsts = np.unique(code[resolved] * d + words[resolved] // n)
    mixed = np.bincount(firsts // d, minlength=len(comps)) >= 2
    for i in np.flatnonzero(mixed):
        # walk the image chain down to a branched component or to level 1
        node = comp = comps[i]
        while node.local_degree < 2 and node.level > 1:
            node = tree.levels[node.level - 1][node.image]
        if node.local_degree < 2:
            mixed_ce = (f"fiber of ({k},{comp.index}) mixes first symbols "
                        f"{(firsts[firsts // d == comp.index] % d).tolist()} "
                        f"but its image chain is critical-free")
            break

    checks = tuple((name, ce is None, ce) for name, ce in (
        ("container-of-prefix", prefix_ce),
        ("image-of-shift", shift_ce),
        ("surjective-onto-level", onto_ce),
        ("fiber-size-equals-degree", size_ce),
        ("mixed-fibers-are-critical", mixed_ce),
    ))
    return VerificationReport(level=k, words_checked=d ** k, checks=checks)


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
