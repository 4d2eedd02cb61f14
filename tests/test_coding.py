"""Symbol assignment, cylinder map, fibers, chi, and the verifier."""

from fractions import Fraction

import pytest

import cantorshift.coding as coding_mod
from cantorshift import BudgetExceeded, InconsistentTree, ResolutionPolicy, build_tree
from cantorshift.coding import (
    assign_symbols,
    chi,
    coding_to_json_dict,
    cylinder_component,
    fibers,
    verify_semiconjugacy,
)
from cantorshift.oracle import AbstractComponent, AbstractTree

from conftest import CUBIC_DEPTH


def abstract_tree_d3():
    """Degree-3 tree, level 1 split (2, 1), every deeper split trivial.

    Component A = level-1 block of degree 2, B = degree 1.  At level 2 the
    children of A over A and over B each inherit degree 2; the fiber of the
    one over A must be {00, 01, 10, 11}.
    """
    root = AbstractComponent(0, 0, None, None, 1, 1)
    a = AbstractComponent(1, 0, 0, 0, 2, 2, ("c",))
    bb = AbstractComponent(1, 1, 0, 0, 1, 1)
    w1 = AbstractComponent(2, 0, 0, 0, 2, 4, ("c",))   # in A over A
    w2 = AbstractComponent(2, 1, 0, 1, 2, 2, ("c",))   # in A over B
    w3 = AbstractComponent(2, 2, 1, 0, 1, 2)           # in B over A
    w4 = AbstractComponent(2, 3, 1, 1, 1, 1)           # in B over B
    return AbstractTree(3, [[root], [a, bb], [w1, w2, w3, w4]])


def test_level1_blocks_fill_from_below():
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    assert a.of(1, 0) == (0, 1)
    assert a.of(1, 1) == (2,)


def test_bijective_case_symbols(quadratic_tree, quadratic_assignment):
    # no critical points: one symbol per component, in canonical order
    for c in quadratic_tree.levels[1]:
        assert quadratic_assignment.of(1, c.index) == (c.index,)


def test_forced_child_inherits_parent_symbols():
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    # sole sibling over each image inherits all of S(parent)
    assert a.of(2, 0) == (0, 1)
    assert a.of(2, 1) == (0, 1)
    assert a.of(2, 2) == (2,)
    assert a.of(2, 3) == (2,)


def test_assignment_invariants(cubic_tree, cubic_assignment):
    d = cubic_tree.degree
    for k in range(1, cubic_tree.depth + 1):
        per_image = {}
        for c in cubic_tree.levels[k]:
            syms = set(cubic_assignment.of(k, c.index))
            assert len(syms) == c.local_degree
            assert syms <= set(cubic_assignment.of(k - 1, c.container))
            bucket = per_image.setdefault(c.image, set())
            assert not bucket & syms
            bucket |= syms
        for got in per_image.values():
            assert got == set(range(d))


def test_cylinder_recursion_quadratic(quadratic_tree, quadratic_assignment):
    # c((0, 1)) lies inside U_1 and maps onto U_2
    lvl, idx = cylinder_component(quadratic_assignment, quadratic_tree, (0, 1))
    comp = quadratic_tree.levels[lvl][idx]
    assert lvl == 2
    assert comp.container == 0
    assert comp.image == 1
    # itineraries: the empty word codes the root
    assert cylinder_component(quadratic_assignment, quadratic_tree, ()) == (0, 0)
    assert cylinder_component(quadratic_assignment, quadratic_tree, (1,)) == (1, 1)


def test_cylinder_component_agrees_with_fibers_in_one_call(monkeypatch):
    # each word is coded by one call that does not re-enter the public
    # function, and lands in the fiber that ``fibers`` puts it in
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    calls = []
    monkeypatch.setattr(coding_mod, "cylinder_component",
                        lambda *args: calls.append(args) or cylinder_component(*args))
    for k in (1, 2):
        for (lvl, idx), words in fibers(a, tree, k).words_by_component.items():
            for w in words:
                assert coding_mod.cylinder_component(a, tree, w) == (lvl, idx)
    assert len(calls) == 3 + 9


def test_cylinder_alphabet_guard(quadratic_tree, quadratic_assignment):
    with pytest.raises(ValueError):
        cylinder_component(quadratic_assignment, quadratic_tree, (2,))


def test_fibers_quadratic_all_singletons(quadratic_tree, quadratic_assignment):
    table = fibers(quadratic_assignment, quadratic_tree, 8)
    sizes = [len(ws) for ws in table.words_by_component.values()]
    assert sizes == [1] * 256
    assert sum(sizes) == 2 ** 8


def test_fiber_of_critical_chain_abstract():
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    table = fibers(a, tree, 2)
    assert sorted(table.words_by_component[(2, 0)]) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert sum(len(w) for w in table.words_by_component.values()) == 9


def test_fibers_equal_cumulative_cubic(cubic_tree, cubic_assignment):
    table = fibers(cubic_assignment, cubic_tree, CUBIC_DEPTH)
    for c in cubic_tree.levels[CUBIC_DEPTH]:
        assert len(table.words_by_component[(CUBIC_DEPTH, c.index)]) == c.cumulative_degree


def test_chi_quadratic_certified_one(quadratic_map, quadratic_tree):
    res = chi(quadratic_map, ("0.5", "-0.25"), quadratic_tree)
    assert res.value == 1
    assert res.status == "certified"
    assert res.hits == ()


def test_chi_cubic_critical_point(cubic_map, cubic_tree):
    res = chi(cubic_map, ("1", "0"), cubic_tree)
    assert res.value == 2
    assert res.status == "certified"
    assert res.hits[0][0] == 0 and res.hits[0][2] == 2
    # multiplicativity: chi(c1) = deg(f, c1) * chi(f(c1)), as values
    image = cubic_map.eval_exact((Fraction(1), Fraction(0)))
    res2 = chi(cubic_map, image, cubic_tree)
    assert res.value == 2 * res2.value


def test_chi_horizon_below_zero_is_rejected(cubic_map, cubic_tree, quadratic_map,
                                            quadratic_tree):
    # before, -1 read as an empty walk (value 1, lower_bound) where 0
    # certifies 2, and the critical-point-free quadratic certified anything
    assert chi(cubic_map, ("1", "0"), cubic_tree, horizon=0).value == 2
    for pmap, tree, horizon in ((cubic_map, cubic_tree, -1), (quadratic_map, quadratic_tree, -3)):
        with pytest.raises(ValueError, match=f"horizon {horizon} is below 0"):
            chi(pmap, ("1", "0"), tree, horizon=horizon)


def test_chi_needs_a_tree_of_depth_one(cubic_map, cubic_disk):
    # a depth-0 tree has no level 1 to place the critical points in: it read
    # chi(+1) as a certified 1, where depth 1 certifies 2
    policy = ResolutionPolicy(max_resolution=30, max_boxes=2_000_000)
    shallow = build_tree(cubic_map, cubic_disk, 0, policy=policy)
    with pytest.raises(ValueError, match="chi needs a tree of depth at least 1, not 0"):
        chi(cubic_map, ("1", "0"), shallow)
    res = chi(cubic_map, ("1", "0"), build_tree(cubic_map, cubic_disk, 1, policy=policy))
    assert (res.value, res.status) == (2, "certified")


def test_chi_respects_bound(cubic_map, cubic_tree):
    d_prime = cubic_tree.degree - cubic_tree.n_level1
    bound = 2 ** d_prime
    for z in (("1", "0"), ("0.2", "0"), ("-2.1", "0"), ("1.63", "0")):
        res = chi(cubic_map, z, cubic_tree)
        assert res.value <= bound


def test_chi_escaping_point_certified(cubic_map, cubic_tree):
    # a point that leaves the disk quickly has a finite certified orbit
    res = chi(cubic_map, ("2.9", "0"), cubic_tree)
    assert res.status == "certified"
    assert res.escaped_at is not None


def test_chi_walks_past_an_exact_boundary_point(cubic_map, cubic_disk, monkeypatch):
    # 3 lies on the circle |z| = 3: its ball straddles it at the precision
    # ceiling, the exact point classifies as "boundary", and chi walks on
    # as if it were inside U, to f(3) = 18 + b outside.  This pins today's
    # answer, which disagrees with the orbit status and locate: both call
    # such a point undecided
    tree = build_tree(cubic_map, cubic_disk, 1,
                      policy=ResolutionPolicy(max_resolution=44, max_boxes=8_000_000))
    steps = []
    exact_point = coding_mod.DyadicOrbit.exact_point
    monkeypatch.setattr(coding_mod.DyadicOrbit, "exact_point",
                        lambda self: steps.append(self.step) or exact_point(self))
    res = chi(cubic_map, ("3", "0"), tree)
    assert (res.value, res.status, res.escaped_at, res.hits) == (1, "certified", 1, ())
    assert steps == [0]


def test_chi_deep_preimage_certified_by_balls(cubic_map, cubic_tree):
    # an 8-fold inverse-branch preimage of u = 0.5+2.7i, |f(u)| ~ 26 > 3:
    # the orbit meets no critical point and leaves U at step 9, where its
    # exact rational point (4.2 M bits) is past the 2,000,000-bit guard
    res = chi(cubic_map, ("0.9774095031748414", "1.0128061335335707"), cubic_tree)
    assert (res.value, res.status, res.escaped_at) == (1, "certified", 9)
    assert res.hits == ()


def test_chi_near_critical_point_decided_exactly(cubic_map, cubic_tree, monkeypatch):
    # the ball of 1 + 2^-200 contains the critical point +1, so step 0 is
    # decided on the exact point, which is no root of f'
    from cantorshift import coding

    decided = []
    exact_degree = coding._exact_local_degree
    monkeypatch.setattr(coding, "_exact_local_degree",
                        lambda pmap, z: decided.append(z) or exact_degree(pmap, z))
    z = (1 + Fraction(1, 2 ** 200), Fraction(0))
    res = chi(cubic_map, z, cubic_tree)
    assert decided and decided[0] == z
    assert res.value == 1
    assert res.hits == ()


def test_verify_quadratic(quadratic_tree, quadratic_assignment):
    report = verify_semiconjugacy(quadratic_assignment, quadratic_tree, 8)
    assert report.all_passed
    assert report.words_checked == 256
    assert len(report.checks) == 5


def test_verify_cubic(cubic_tree, cubic_assignment):
    report = verify_semiconjugacy(cubic_assignment, cubic_tree, CUBIC_DEPTH)
    assert report.all_passed
    assert report.words_checked == 3 ** CUBIC_DEPTH


def test_verify_detects_corruption():
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    # swap one symbol between the sibling sets over image A at level 2
    bad = dict(a.symbols)
    bad[(2, 0)] = (0,)       # was (0, 1)
    bad[(2, 2)] = (1, 2)     # was (2,): steals symbol 1
    corrupted = type(a)(a.degree, bad)
    report = verify_semiconjugacy(corrupted, tree, 2)
    assert not report.all_passed
    failing = [name for name, ok, _ in report.checks if not ok]
    assert failing
    counterexamples = [ce for _, ok, ce in report.checks if not ok and ce]
    assert counterexamples  # a concrete witness is reported


def test_verify_reports_a_doubly_claimed_symbol():
    # B's child over A takes symbol 1, which A's child over A holds as well:
    # (A, 1) is claimed twice, and symbol 2 over A has no carrier
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    symbols = dict(a.symbols)
    symbols[(2, 2)] = (1,)
    report = verify_semiconjugacy(type(a)(a.degree, symbols), tree, 2)
    assert report.checks == (
        ("container-of-prefix", True, None),
        ("image-of-shift", False, "word (1,0) has no coded component"),
        ("surjective-onto-level", False, "component (2,2) receives no word"),
        ("fiber-size-equals-degree", False, "fiber of (2,0) has 2 words, cumulative degree is 4"),
        ("mixed-fibers-are-critical", True, None),
    )
    # without a defect list, each table defect raises
    with pytest.raises(InconsistentTree, match="symbol 1 over image 0 is claimed twice at level 2"):
        cylinder_component(type(a)(a.degree, symbols), tree, (1, 0))
    symbols[(2, 2)] = ()
    with pytest.raises(InconsistentTree, match="no component for symbol 2 over image 0 at level 2"):
        cylinder_component(type(a)(a.degree, symbols), tree, (2, 0))


def test_verify_reports_a_mixed_fiber_off_the_critical_chains():
    # B's child over B takes symbol 1 from A's: its fiber {12, 22} mixes
    # first symbols, but it and its image B both have local degree 1
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    symbols = dict(a.symbols)
    symbols[(2, 1)], symbols[(2, 3)] = (0,), (1, 2)
    report = verify_semiconjugacy(type(a)(a.degree, symbols), tree, 2)
    assert report.checks[4] == (
        "mixed-fibers-are-critical", False,
        "fiber of (2,3) mixes first symbols [1, 2] but its image chain is critical-free")
    # the fiber of A's child over B, {02}, mixes nothing, and branched
    # components may mix: the unaltered assignment passes
    assert verify_semiconjugacy(a, tree, 2).checks[4] == ("mixed-fibers-are-critical", True, None)


def test_verify_reports_a_symbol_table_defect_where_fibers_match():
    # two extra level-1 components over an image no word reaches (level 0
    # has no component 1) both claim symbol 0; they get no word, so with
    # cumulative degree 0 every fiber count matches and only the symbol
    # table shows the defect
    base = abstract_tree_d3()
    a = assign_symbols(base)
    extra = [AbstractComponent(1, idx, 0, 1, 1, 0) for idx in (2, 3)]
    tree = AbstractTree(3, [base.levels[0], base.levels[1] + extra])
    symbols = dict(a.symbols)
    symbols.update({(1, 2): (0,), (1, 3): (0,)})
    report = verify_semiconjugacy(type(a)(a.degree, symbols), tree, 1)
    assert dict((name, ce) for name, ok, ce in report.checks if not ok) == {
        "surjective-onto-level": "component (1,2) receives no word",
        "fiber-size-equals-degree": "symbol table defect at level 1, (image, symbol) = (1, 0)",
    }


def test_verify_checks_the_word_budget_first(monkeypatch):
    # d^k words past the budget raise before any word is resolved
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    monkeypatch.setattr(coding_mod, "_MAX_WORDS", 8)
    monkeypatch.setattr(coding_mod, "_resolve_word", None)  # never called
    with pytest.raises(BudgetExceeded, match="3\\^2 words exceed"):
        verify_semiconjugacy(a, tree, 2)
    monkeypatch.undo()
    monkeypatch.setattr(coding_mod, "_MAX_WORDS", 9)
    assert verify_semiconjugacy(a, tree, 2).all_passed


def test_chi_rejects_a_non_finite_point(quadratic_map, quadratic_tree):
    for z in (complex("inf"), complex(0.5, float("nan"))):
        with pytest.raises(ValueError, match="not a finite point"):
            chi(quadratic_map, z, quadratic_tree)


def test_levels_outside_the_tree_are_rejected():
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    for k in (0, 3):
        with pytest.raises(ValueError):
            verify_semiconjugacy(a, tree, k)
    for k in (-1, 3):
        with pytest.raises(ValueError):
            fibers(a, tree, k)
    assert fibers(a, tree, 0).count(0, 0) == 1  # the empty word codes the root


def test_coding_export_shape(quadratic_tree, quadratic_assignment):
    doc = coding_to_json_dict(quadratic_assignment, quadratic_tree, 3)
    assert doc["degree"] == 2
    level1 = doc["levels"]["1"]
    assert level1["1:0"]["symbols"] == [0]
    assert level1["1:0"]["fiber_count"] == 1
    assert level1["1:0"]["fiber_words"] == ["0"]


def test_inconsistent_tree_detected():
    root = AbstractComponent(0, 0, None, None, 1, 1)
    a = AbstractComponent(1, 0, 0, 0, 2, 2, ("c",))
    tree = AbstractTree(3, [[root], [a]])  # degrees sum to 2, alphabet is 3
    with pytest.raises(InconsistentTree):
        assign_symbols(tree)

