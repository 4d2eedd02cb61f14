"""The fibers of ``coding.fibers``: counted from the word codes, listed only
when read, and equal to the grouping of every word by one stable sort."""

import itertools

import numpy as np
import pytest

import cantorshift.coding as coding_mod
from cantorshift.coding import assign_symbols, cylinder_component, fibers
from cantorshift.oracle import AbstractComponent, AbstractTree, generate

from conftest import CUBIC_DEPTH, abstract_tree_d3

GENERATED = [(99, 3, 4), (7, 4, 4), (3, 2, 6), (11, 3, 3)]


def _cases(quadratic_tree, quadratic_assignment, cubic_tree, cubic_assignment):
    """(tree, assignment, level): both fixtures at their depth, and every
    level of the generated trees and of ``abstract_tree_d3``."""
    cases = [(quadratic_tree, quadratic_assignment, quadratic_tree.depth),
             (cubic_tree, cubic_assignment, CUBIC_DEPTH)]
    for tree in [abstract_tree_d3()] + [generate(*args) for args in GENERATED]:
        a = assign_symbols(tree)
        cases += [(tree, a, k) for k in range(tree.depth + 1)]
    return cases


@pytest.fixture()
def cases(quadratic_tree, quadratic_assignment, cubic_tree, cubic_assignment):
    return _cases(quadratic_tree, quadratic_assignment, cubic_tree, cubic_assignment)


def _reference(tree, assignment, k):
    """The grouping every fiber must list: all words in ``itertools.product``
    order, coded one by one, grouped by one stable argsort of their codes."""
    words = list(itertools.product(range(tree.degree), repeat=k))
    code = np.array([cylinder_component(assignment, tree, w)[1] for w in words], dtype=np.int64)
    grouped = [words[i] for i in np.argsort(code, kind="stable")]
    counts = np.bincount(code, minlength=len(tree.levels[k])).tolist()
    bounds = list(itertools.accumulate(counts, initial=0))
    return {(k, idx): tuple(grouped[a:b])
            for idx, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a}


def test_lengths_membership_and_counts_list_no_word(cases, monkeypatch):
    listed = []
    listing = coding_mod._Fibers._listing
    monkeypatch.setattr(coding_mod._Fibers, "_listing",
                        lambda self, index: listed.append(index) or listing(self, index))
    for tree, a, k in cases:
        table = fibers(a, tree, k)
        by = table.words_by_component
        lengths = {cid: len(ws) for cid, ws in by.items()}
        assert lengths == {(k, c.index): c.cumulative_degree for c in tree.levels[k]}
        assert len(by) == len(tree.levels[k]) and list(by) == list(lengths)
        assert all(table.count(*cid) == n for cid, n in lengths.items())
        assert table.count(k + 1, 0) == table.count(k, len(tree.levels[k])) == 0
        word = (0,) * k
        owner = cylinder_component(a, tree, word)
        assert word in by[owner] and owner in by and (k + 1, 0) not in by
        assert sum(map(len, by.values())) == tree.degree ** k
    assert listed == []
    # a listing lists, and every table sorts its codes once, on the first
    tree, a, k = cases[-1]
    table = fibers(a, tree, k)
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *args, **kw: sorts.append(kw) or argsort(*args, **kw))
    for ws in table.words_by_component.values():
        tuple(ws)
    assert len(listed) == len(tree.levels[k])
    assert sorts == [{"kind": "stable"}]


def test_membership_agrees_with_the_listing_for_every_word(cases):
    for tree, a, k in cases:
        d = tree.degree
        by = fibers(a, tree, k).words_by_component
        ref = _reference(tree, a, k)
        owner = {w: cid for cid, ws in ref.items() for w in ws}
        cids = list(ref)
        largest = max(cids, key=lambda cid: len(ref[cid]))
        exhaustive = d ** k * len(cids) <= 4096
        for w in itertools.product(range(d), repeat=k):
            mine = owner[w]
            others = cids if exhaustive else {
                cids[(cids.index(mine) + 1) % len(cids)], largest, mine}
            for cid in others:
                fiber, want = by[cid], ref[cid]
                assert (w in fiber) == (w in want) == (cid == mine), (k, w, cid)
                # the same word spelled in other types, and words that are not
                # of this level: each is held exactly when the tuple holds it
                queries = [
                    tuple(map(np.int64, w)), tuple(map(np.int8, w)), tuple(map(bool, w)),
                    tuple(map(float, w)), list(w), w[:-1], w + (0,), "".join(map(str, w)),
                ]
                queries += [w[:i] + (s,) + w[i + 1:] for i in range(k) for s in (-1, d)]
                for q in queries:
                    assert (q in fiber) == (q in want), (k, w, cid, q)
    # queries no word of the level equals
    tree = abstract_tree_d3()
    fiber = fibers(assign_symbols(tree), tree, 2).words_by_component[(2, 0)]
    for q in [None, 0, (0,), (0, 0, 0), (0, "0"), (0, None), ([0], 0), (0.5, 0), (np.int64(3), 0)]:
        assert q not in fiber, q
    assert (np.int64(1), True) in fiber and (1.0, 0) in fiber


def test_listed_fibers_equal_the_stable_grouping_in_ascending_order(cases):
    for tree, a, k in cases:
        by = fibers(a, tree, k).words_by_component
        ref = _reference(tree, a, k)
        assert by == ref and ref == by and dict(by.items()) == ref
        assert repr(by) == repr(ref)
        for cid, want in ref.items():
            fiber = by[cid]
            assert tuple(fiber) == want and list(fiber) == list(want)
            assert list(fiber) == sorted(fiber)  # ascending as listed
            assert fiber == want and want == fiber and fiber == by[cid]
            assert fiber != list(want) and not fiber == list(want)
            assert repr(fiber) == repr(want)
            n = len(want)
            assert [fiber[i] for i in range(-n, n)] == [want[i] for i in range(-n, n)]
            assert fiber[np.int64(n - 1)] == want[n - 1] and fiber[False] == want[0]
            assert fiber[1:] == want[1:] and fiber[::-1] == want[::-1]
            assert list(reversed(fiber)) == list(reversed(want))
            assert fiber.index(want[-1]) == len(want) - 1 and fiber.count(want[0]) == 1
            with pytest.raises(IndexError):
                fiber[len(want)]
        for key in [(k + 1, 0), (k, -1), (k, len(tree.levels[k])), (k,), "x", (k, 0.5)]:
            with pytest.raises(KeyError):
                by[key]
            assert key not in by and by.get(key) is None
        assert (k, np.int64(0)) in by and by[(k, np.int64(0))] == ref[(k, 0)]


def test_a_component_no_word_codes_has_no_fiber():
    # fibers does not run check_structure: an extra level-2 component of
    # degree 0 with no symbols passes its count check with 0 words, and the
    # table leaves it out as it leaves out every component without a word
    base = abstract_tree_d3()
    a = assign_symbols(base)
    extra = AbstractComponent(2, 4, 1, 1, 0, 0)
    tree = AbstractTree(3, base.levels[:2] + [base.levels[2] + [extra]])
    table = fibers(type(a)(a.degree, {**a.symbols, (2, 4): ()}), tree, 2)
    by = table.words_by_component
    assert list(by) == [(2, 0), (2, 1), (2, 2), (2, 3)] and len(by) == 4
    assert (2, 4) not in by and by.get((2, 4)) is None and table.count(2, 4) == 0
    assert by == fibers(a, base, 2).words_by_component
