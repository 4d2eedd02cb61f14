"""Abstract tree generator and the brute-force fiber oracle."""

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorshift import oracle as oracle_mod
from cantorshift.coding import SymbolAssignment, assign_symbols, fibers
from cantorshift.errors import BudgetExceeded, InconsistentTree
from cantorshift.oracle import (
    AbstractComponent,
    AbstractTree,
    _check_assignment_invariants,
    brute_force_fibers,
    generate,
    run_equivalence_cases,
)
from cantorshift.tree import check_structure

from conftest import abstract_tree_d3


def test_generate_deterministic():
    t1 = generate(12345, 4, 5)
    t2 = generate(12345, 4, 5)
    assert [[c for c in lvl] for lvl in t1.levels] == [[c for c in lvl] for lvl in t2.levels]
    t3 = generate(12346, 4, 5)
    assert [[c for c in lvl] for lvl in t3.levels] != [[c for c in lvl] for lvl in t1.levels]


def test_generated_trees_are_pinned():
    # the trees of these seeds, as generated before compositions of 1 were
    # returned without entering the general path (which draws nothing there)
    want = {
        2: "c8578256c13ff39775da23fe770c728753715f1bcb03f2b71709df1aa054bcda",
        3: "5fa156e43aa6d7aa5abd2696865d441ee8af1f9d6c221b3cba4411970dc0f890",
        4: "72c69e9d7e843c9b81c958e9a2a48127734f0dfbeccf212b41904c67e766b502",
    }
    for d, digest in want.items():
        h = hashlib.sha256()
        for depth in range(1, 7):
            for seed in (1, 7, 99):
                tree = generate(seed, d, depth, 0.55)
                h.update(repr([[dataclasses.astuple(c) for c in lvl]
                               for lvl in tree.levels]).encode())
        assert h.hexdigest() == digest, d


def test_generate_rejects_a_degree_below_2_and_a_depth_below_1():
    with pytest.raises(ValueError, match="^degree must be at least 2$"):
        generate(0, 1, 3)
    with pytest.raises(ValueError, match="^depth must be at least 1$"):
        generate(0, 3, 0)


def test_degree_two_is_full_binary_tree():
    tree = generate(7, 2, 6)
    for k in range(1, 7):
        comps = tree.levels[k]
        assert len(comps) == 2 ** k
        assert all(c.local_degree == 1 for c in comps)


def test_generated_trees_admissible():
    @given(st.integers(0, 10**6), st.sampled_from([2, 3, 4]), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def run(seed, d, depth):
        tree = generate(seed, d, depth)
        check_structure(tree)
        assert len(tree.levels[1]) >= 2
    run()


def test_brute_force_counts_sum():
    tree = generate(99, 3, 4)
    a = assign_symbols(tree)
    counts = brute_force_fibers(tree, a, 4)
    assert sum(counts.values()) == 3 ** 4
    assert all(v >= 1 for v in counts.values())


def _listed_fibers(tree, assignment, k):
    """The fiber counts of ``brute_force_fibers``, by the word-listing loop
    it replaced: the reference for its transfer counts."""
    d = tree.degree
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


def _corrupted(tree, assignment, rng):
    """Copies of ``assignment`` with one symbol s of a component c edited:
    s moved to a sibling b of c over the same image, s duplicated on b, s
    dropped, and d and -1 added to c (outside the alphabet, where a bare
    image*d + s key would collide with a neighbouring image's pair)."""
    d, symbols = tree.degree, assignment.symbols
    k = rng.randint(1, tree.depth)
    over = {}
    for comp in tree.levels[k]:
        over.setdefault(comp.image, []).append(comp)
    groups = [g for g in over.values() if len(g) >= 2]
    if not groups:  # level 1 always has two components over the root
        k, groups = 1, [tree.levels[1]]
    c, b = rng.sample(rng.choice(groups), 2)
    own, other = symbols[(k, c.index)], symbols[(k, b.index)]
    s = rng.choice(own)
    rest = tuple(x for x in own if x != s)
    for edit in ({(k, c.index): rest, (k, b.index): (*other, s)},
                 {(k, b.index): (*other, s)},
                 {(k, c.index): rest},
                 {(k, c.index): (*own, d)},
                 {(k, c.index): (*own, -1)}):
        yield SymbolAssignment(d, {**symbols, **edit})


def test_counts_equal_the_listed_words_on_corrupted_assignments():
    # generated trees, each with its own assignment and five corrupted
    # copies: the transfer counts equal the word lists' lengths, or both
    # raise the same InconsistentTree at the same first failure
    rng = random.Random(11)
    outcomes = set()
    for _ in range(300):
        d, depth = rng.randint(2, 4), rng.randint(1, 6)
        tree = generate(rng.randrange(2 ** 62), d, depth, 0.55)
        assignment = assign_symbols(tree)
        for a in (assignment, *_corrupted(tree, assignment, rng)):
            try:
                want = _listed_fibers(tree, a, depth)
            except InconsistentTree as exc:
                with pytest.raises(InconsistentTree) as info:
                    brute_force_fibers(tree, a, depth)
                assert info.value.args == exc.args
                outcomes.add("claimed twice" if "claimed twice" in str(exc) else "no carrier")
                continue
            assert list(brute_force_fibers(tree, a, depth).items()) == list(want.items())
            outcomes.add("counted")
    assert outcomes == {"counted", "claimed twice", "no carrier"}


def test_no_critical_means_singleton_fibers():
    tree = generate(3, 2, 5)
    a = assign_symbols(tree)
    counts = brute_force_fibers(tree, a, 5)
    assert set(counts.values()) == {1}


def test_oracle_matches_fibers_on_samples():
    for seed in range(25):
        d = 2 + seed % 3
        depth = 1 + seed % 5
        tree = generate(seed * 977, d, depth)
        a = assign_symbols(tree)
        table = fibers(a, tree, depth)
        mine = {cid: len(ws) for cid, ws in table.words_by_component.items()}
        assert mine == brute_force_fibers(tree, a, depth)


def test_run_equivalence_cases_clean():
    passed, failed, messages = run_equivalence_cases(2024, 60)
    assert failed == 0 and passed == 60
    assert messages == []


def test_run_equivalence_cases_rejects_arguments_before_any_case():
    # a degree below 2 or a depth below 1 used to fail every case, and a
    # negative case count to report -2 failures
    for kwargs, message in [({"degrees": (2, 1)}, "degree must be at least 2, not 1"),
                            ({"max_depth": 0}, "depth must be at least 1, not 0"),
                            ({"cases": -2}, "case count must be at least 0, not -2")]:
        with pytest.raises(ValueError, match=message):
            run_equivalence_cases(**{"seed": 0, "cases": 3, **kwargs})
    assert run_equivalence_cases(0, 0) == (0, 0, [])


def test_brute_force_checks_the_word_budget_first(monkeypatch):
    # d^k words past the budget raise before any word is built: the tree's
    # levels and the symbol sets are never read
    tree = generate(5, 3, 2)
    a = assign_symbols(tree)
    monkeypatch.setattr(oracle_mod, "_MAX_WORDS", 8)
    with pytest.raises(BudgetExceeded, match="3\\^2 words exceed"):
        brute_force_fibers(AbstractTree(3, None), None, 2)
    monkeypatch.setattr(oracle_mod, "_MAX_WORDS", 9)
    assert sum(brute_force_fibers(tree, a, 2).values()) == 9
    # the real budget, 2^18 words, turns down 2^19
    monkeypatch.undo()
    with pytest.raises(BudgetExceeded, match="2\\^19 words exceed"):
        brute_force_fibers(AbstractTree(2, None), None, 19)


def test_run_equivalence_cases_checks_the_word_budget_first(monkeypatch):
    # a batch whose largest case passes the brute-force budget raises before
    # any tree is generated; it used to count each such case as failed
    def sentinel(*args):
        raise AssertionError("a case was generated")
    monkeypatch.setattr(oracle_mod, "generate", sentinel)
    with pytest.raises(BudgetExceeded, match="^4\\^10 words exceed the enumeration budget$"):
        run_equivalence_cases(1, 1, degrees=(4,), max_depth=10)
    with pytest.raises(BudgetExceeded, match="^2\\^19 words exceed"):
        run_equivalence_cases(0, 0, degrees=(2,), max_depth=19)
    # 2^18 words is within the budget, and so is the default batch's 4^6
    assert run_equivalence_cases(0, 0, degrees=(2,), max_depth=18) == (0, 0, [])
    monkeypatch.undo()
    assert run_equivalence_cases(3, 4) == (4, 0, [])


def _edited(tree, level, position, **fields):
    """A copy of ``tree`` whose component ``levels[level][position]`` has
    ``fields`` replaced; the other components are shared."""
    levels = list(tree.levels)
    levels[level] = list(levels[level])
    levels[level][position] = dataclasses.replace(levels[level][position], **fields)
    return AbstractTree(tree.degree, levels)


@pytest.mark.parametrize("level, position, fields, message", [
    # w3, B's child over A, moved over B with the cumulative degree that
    # keeps the product rule: A is left two of its three preimages
    (2, 2, {"image": 1, "cumulative_degree": 1},
     "level 2: degrees over image component 0 sum to 2, want 3"),
    (1, 0, {"contains_critical": ()}, "degree/critical mismatch at (1, 0)"),
])
def test_check_structure_names_the_broken_invariant(level, position, fields, message):
    tree = abstract_tree_d3()
    check_structure(tree)
    with pytest.raises(InconsistentTree) as info:
        check_structure(_edited(tree, level, position, **fields))
    assert str(info.value) == message


def test_check_structure_names_a_root_of_the_wrong_cumulative_degree():
    # with the root checked, the product rule and the image sums make every
    # level's cumulative degrees sum to d^k; doubling them all keeps the
    # product rule, so only the root fails
    tree = abstract_tree_d3()
    doubled = AbstractTree(3, [[dataclasses.replace(c, cumulative_degree=2 * c.cumulative_degree)
                                for c in lvl] for lvl in tree.levels])
    for bad in (doubled, _edited(tree, 0, 0, index=1), AbstractTree(3, [])):
        with pytest.raises(InconsistentTree) as info:
            check_structure(bad)
        assert str(info.value) == "level 0 is not one component of index 0 and cumulative degree 1"


def test_check_structure_names_a_square_that_does_not_commute():
    # the square container(image) = image(container) can only fail from
    # level 3 on; every split of this tree is trivial, so moving a component
    # to another container breaks nothing else
    tree = generate(7, 3, 3)
    with pytest.raises(InconsistentTree) as info:
        check_structure(_edited(tree, 3, 0, container=1))
    assert str(info.value) == "commuting square fails at (3, 0)"


def _swapped(tree, level, i, j, name):
    """A copy of ``tree`` with field ``name`` of components i and j of a
    level exchanged."""
    a, b = tree.levels[level][i], tree.levels[level][j]
    tree = _edited(tree, level, i, **{name: getattr(b, name)})
    return _edited(tree, level, j, **{name: getattr(a, name)})


def _with_degree_0_component(tree):
    """A copy of ``tree`` with a component of local and cumulative degree 0
    added to its last level, in the first component and over the first."""
    levels = list(tree.levels)
    levels[-1] = [*levels[-1], AbstractComponent(tree.depth, len(levels[-1]), 0, 0, 0, 0)]
    return AbstractTree(tree.degree, levels)


@pytest.mark.parametrize("tree, message", [
    # as list indices, a negative container would wrap and one past the
    # level above would raise IndexError
    pytest.param(_edited(generate(7, 3, 3), 3, 0, container=-9),
                 "container or image outside level 2 at (3, 0)", id="negative-container"),
    pytest.param(_edited(generate(7, 3, 3), 3, 0, container=99),
                 "container or image outside level 2 at (3, 0)", id="container-past-the-level"),
    # the two share an image and differ in degree, so the square still
    # commutes and only the group sums fail
    pytest.param(_swapped(generate(0, 3, 3), 3, 8, 13, "container"),
                 "level 3: children of (2, 4) over image (2, 4) have degrees summing to 2, "
                 "want 1", id="container-swap"),
    # keeps the d^3 sum; only the product rule fails
    pytest.param(_edited(_edited(generate(0, 3, 3), 3, 0, cumulative_degree=3),
                         3, 1, cumulative_degree=1),
                 "cumulative degree 3 is not 1 times its image's 2 at (3, 0)",
                 id="cumulative-unit-moved"),
    # adds nothing to any sum, and is branched nowhere
    pytest.param(_with_degree_0_component(generate(0, 3, 3)),
                 "local degree 0 below 1 at (3, 14)", id="degree-0-component"),
    pytest.param(_swapped(generate(0, 3, 3), 3, 2, 5, "index"),
                 "level 3: position 2 holds index 5", id="swapped-indices"),
    # a second root of cumulative degree 0 keeps every level-1 sum, and its
    # two children would get symbols 2 and 3, outside the alphabet
    pytest.param(AbstractTree(2, [
        [AbstractComponent(0, 0, None, None, 1, 1), AbstractComponent(0, 1, None, None, 1, 0)],
        [AbstractComponent(1, 0, 0, 0, 2, 2, ("c",)), AbstractComponent(1, 1, 1, 1, 1, 0),
         AbstractComponent(1, 2, 1, 1, 1, 0)]]),
                 "level 0 is not one component of index 0 and cumulative degree 1", id="two-roots"),
])
def test_check_structure_and_assign_symbols_reject_a_corrupted_tree(tree, message):
    for check in (check_structure, assign_symbols):
        with pytest.raises(InconsistentTree) as info:
            check(tree)
        assert str(info.value) == message


def _with_symbols(tree, symbols):
    """The canonical assignment of ``tree`` with the symbol sets of the
    component ids in ``symbols`` replaced."""
    return SymbolAssignment(tree.degree, {**assign_symbols(tree).symbols, **symbols})


@pytest.mark.parametrize("symbols, brute, invariants", [
    # B's child over A carries no symbol: nothing carries 2 over A
    ({(2, 2): ()}, "no carrier for symbol 2 over image 0 at level 2",
     "|S((2, 2))| != local degree"),
    # it carries 1, which A's child over A carries too and B does not own
    ({(2, 2): (1,)}, "symbol 1 over image 0 claimed twice at level 2",
     "S((2, 2)) not nested in its container's symbols"),
    # B carries 1, which its sibling A carries too
    ({(1, 1): (1,)}, "symbol 1 over image 0 claimed twice at level 1",
     "S((1, 1)) overlaps a sibling over the same image"),
])
def test_oracle_checks_name_a_broken_assignment(symbols, brute, invariants):
    tree = abstract_tree_d3()
    with pytest.raises(InconsistentTree) as info:
        brute_force_fibers(tree, _with_symbols(tree, symbols), 2)
    assert str(info.value) == brute
    with pytest.raises(InconsistentTree) as info:
        _check_assignment_invariants(tree, _with_symbols(tree, symbols))
    assert str(info.value) == invariants


def test_assignment_invariants_name_symbols_that_do_not_partition():
    # A made of degree 1 and given the one symbol 0: each set has its size,
    # is nested and overlaps no sibling, yet no component carries symbol 1
    tree = abstract_tree_d3()
    _check_assignment_invariants(tree, assign_symbols(tree))
    with pytest.raises(InconsistentTree) as info:
        _check_assignment_invariants(_edited(tree, 1, 0, local_degree=1),
                                     _with_symbols(tree, {(1, 0): (0,)}))
    assert str(info.value) == "symbols over image 0 at level 1 do not partition the alphabet"


def test_run_equivalence_cases_reports_disagreeing_and_raising_cases(monkeypatch):
    cases = ["case 0 (seed 1087608058291172412, d=2, depth=1): ",
             "case 1 (seed 865701881190521133, d=2, depth=2): "]
    monkeypatch.setattr(oracle_mod, "brute_force_fibers", lambda *args: {})
    assert run_equivalence_cases(1, 2, degrees=(2,), max_depth=2) == (
        0, 2, [case + "fiber counts disagree" for case in cases])

    def refuse(*args):
        raise InconsistentTree("refused")
    monkeypatch.setattr(oracle_mod, "brute_force_fibers", refuse)
    assert run_equivalence_cases(1, 2, degrees=(2,), max_depth=2) == (
        0, 2, [case + "InconsistentTree('refused')" for case in cases])
