"""Symbol assignment, cylinder map, fibers, chi, and the verifier."""

import dataclasses
import gc
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

import cantorshift.coding as coding_mod
from cantorshift import (
    BudgetExceeded,
    InconsistentTree,
    ResolutionPolicy,
    Undecided,
    build_tree,
    locate,
)
from cantorshift.coding import (
    assign_symbols,
    chi,
    coding_to_json_dict,
    cylinder_component,
    fibers,
    verify_semiconjugacy,
)
from cantorshift.maps import _orbit_status
from cantorshift.oracle import AbstractComponent, AbstractTree, brute_force_fibers, generate
from cantorshift.tree import check_structure

from conftest import CUBIC_DEPTH, abstract_tree_d3


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


def _with_level2(tree, *changes, order=(0, 1, 2, 3)):
    """``abstract_tree_d3()``'s level 2 edited: each change is a (list
    position, field, value), and ``order`` lists the positions in their new
    order, each component taking its new position as its index."""
    comps = list(tree.levels[2])
    for i, name, value in changes:
        comps[i] = dataclasses.replace(comps[i], **{name: value})
    return AbstractTree(tree.degree, [*tree.levels[:2], [dataclasses.replace(comps[i], index=j)
                                                         for j, i in enumerate(order)]])


def _rejected(tree):
    """The message of the InconsistentTree that check_structure raises on
    ``tree``, once assign_symbols has raised the same."""
    with pytest.raises(InconsistentTree) as info:
        check_structure(tree)
    with pytest.raises(InconsistentTree) as again:
        assign_symbols(tree)
    assert again.value.args == info.value.args
    return str(info.value)


# A's and B's children over A trade containers: the square still commutes
# and every image keeps its degrees, but B's child over A asks for 2 of B's
# 1 symbol and A's child over A takes 1 of A's 2
_TRADED = ((0, "container", 1), (2, "container", 0))


def test_assignment_names_a_parent_with_too_few_symbols():
    tree = abstract_tree_d3()
    assert _rejected(_with_level2(tree, *_TRADED)) == (
        "level 2: children of (1, 1) over image (1, 0) have degrees summing to 2, want 1")
    # a negative degree can never be met
    assert _rejected(_with_level2(tree, (1, "local_degree", -1))) == (
        "local degree -1 below 1 at (2, 1)")


def test_assignment_names_children_that_leave_symbols_unused():
    tree = abstract_tree_d3()
    assert _rejected(_with_level2(tree, *_TRADED, order=(2, 1, 0, 3))) == (
        "level 2: children of (1, 0) over image (1, 0) have degrees summing to 1, want 2")


def test_assignment_raises_at_the_first_failing_group_in_list_order():
    # both traded groups fail; the one whose first child is listed first is
    # named, whatever the order of (container, image)
    tree = abstract_tree_d3()
    for order, parent in (((0, 1, 2, 3), 1), ((2, 1, 0, 3), 0), ((3, 0, 1, 2), 1),
                          ((3, 2, 1, 0), 0)):
        assert _rejected(_with_level2(tree, *_TRADED, order=order)).startswith(
            f"level 2: children of (1, {parent}) over image (1, 0)")
    # within a group the children take their runs in list order
    tree = generate(0, 4, 2)
    a = assign_symbols(tree)
    assert a.of(2, 0) == (0,) and a.of(2, 1) == (1, 2)
    first, second, *rest = tree.levels[2]
    a = assign_symbols(AbstractTree(4, [*tree.levels[:2], [
        dataclasses.replace(second, index=0), dataclasses.replace(first, index=1), *rest]]))
    assert a.of(2, 0) == (0, 1) and a.of(2, 1) == (2,)


def test_assignment_of_a_container_outside_the_level_above_raises_inconsistent_tree():
    # as list indices, a negative value would wrap and 5 would raise
    # IndexError
    tree = abstract_tree_d3()
    for name, value in (("container", 5), ("container", -1), ("image", 2), ("image", -3)):
        assert _rejected(_with_level2(tree, (2, name, value))) == (
            "container or image outside level 1 at (2, 2)")


def _loop_symbols(tree):
    """The symbol sets of ``assign_symbols``, by the per-group loop it
    replaced: the reference for its array form."""
    d = tree.degree
    symbols = {}
    if tree.depth < 1:
        return symbols
    next_symbol = 0
    for comp in tree.levels[1]:
        symbols[(1, comp.index)] = tuple(range(next_symbol, next_symbol + comp.local_degree))
        next_symbol += comp.local_degree
    if next_symbol != d:
        raise InconsistentTree(f"level-1 degrees fill {next_symbol} symbols, alphabet has {d}")
    for k in range(2, tree.depth + 1):
        groups = {}
        for comp in tree.levels[k]:
            groups.setdefault((comp.container, comp.image), []).append(comp)
        for (p_idx, v_idx), children in sorted(groups.items()):
            pool = symbols[(k - 1, p_idx)]
            take = 0
            for child in children:
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
    return symbols


# a distinctive part of each message of check_structure, and its kind
_KINDS = {"holds index": "index", "outside level": "range", "below 1": "degree",
          "times its image's": "product", "children of": "group",
          "degrees over image": "image", "level 0 is not": "root",
          "commuting square": "square", "degree/critical": "critical"}


def test_assignment_equals_the_loop_reference_on_corrupted_trees():
    # generated trees, each with up to three edits of one kind: a degree
    # moved by 1; a degree set to 0, a negative value or d + 1; a container
    # anywhere from -1 to past the level above; a shuffled level; the last
    # level shuffled and renumbered; a changed image; an emptied level; one
    # unit of cumulative degree moved between two components; containers
    # traded between two components over one image; or a root given another
    # cumulative degree or index, or a second root.  Whatever
    # check_structure accepts, the loop reference codes without error and
    # assign_symbols codes alike, to the order in which sets are stored;
    # whatever it rejects, assign_symbols rejects with the same error
    rng = random.Random(9)
    outcomes = set()
    for case in range(1000):
        d, depth = rng.choice((2, 3, 4, 5)), rng.randint(1, 5)
        tree = generate(rng.randrange(2 ** 62), d, depth, rng.choice((0.3, 0.55, 0.8)))
        kind = case % 11
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(1, depth)
            comps = tree.levels[k]
            if not comps:
                continue
            i, j = rng.randrange(len(comps)), rng.randrange(len(comps))
            if kind == 1:
                comps[i] = dataclasses.replace(comps[i], local_degree=comps[i].local_degree
                                               + rng.choice((-1, 1)))
            elif kind == 2:
                comps[i] = dataclasses.replace(comps[i],
                                               local_degree=rng.choice((0, -1, -2, d + 1)))
            elif kind == 3 and k >= 2:
                comps[i] = dataclasses.replace(
                    comps[i], container=rng.randint(-1, len(tree.levels[k - 1]) + 1))
            elif kind == 4:
                rng.shuffle(comps)
            elif kind == 5:
                last = tree.levels[depth]
                rng.shuffle(last)
                last[:] = [dataclasses.replace(c, index=n) for n, c in enumerate(last)]
            elif kind == 6 and k >= 2:
                comps[i] = dataclasses.replace(
                    comps[i], image=rng.randrange(len(tree.levels[k - 1])))
            elif kind == 7 and rng.random() < 0.3:
                comps.clear()
            elif kind == 8 and i != j:
                comps[i] = dataclasses.replace(
                    comps[i], cumulative_degree=comps[i].cumulative_degree + 1)
                comps[j] = dataclasses.replace(
                    comps[j], cumulative_degree=comps[j].cumulative_degree - 1)
            elif kind == 9 and comps[i].image == comps[j].image:
                comps[i], comps[j] = (dataclasses.replace(comps[i], container=comps[j].container),
                                      dataclasses.replace(comps[j], container=comps[i].container))
            elif kind == 10:
                root = tree.levels[0]
                root[:] = rng.choice(([dataclasses.replace(root[0], cumulative_degree=2)],
                                      [dataclasses.replace(root[0], index=1)],
                                      [root[0], AbstractComponent(0, 1, None, None, 1, 0)]))
        try:
            check_structure(tree)
        except InconsistentTree as exc:
            with pytest.raises(InconsistentTree) as info:
                assign_symbols(tree)
            assert info.value.args == exc.args
            outcomes.add(next(name for part, name in _KINDS.items() if part in str(exc)))
            continue
        assert list(assign_symbols(tree).symbols.items()) == list(_loop_symbols(tree).items())
        outcomes.add("assigned")
    # no edit makes a degree branched without changing the cumulative degree
    assert outcomes == {"assigned", *_KINDS.values()} - {"critical"}


def test_codings_of_generated_trees_are_pinned():
    # generated trees with one degree changed by 1, one unit moved between
    # two siblings, or none.  For the trees check_structure accepts: symbol
    # sets, fiber counts and the verifier's checks at every level, the same
    # since before symbol sets were computed as runs on arrays.  For the
    # rest: the error
    accepted, rejected = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(25)
    for case in range(900):
        d, depth = rng.choice((2, 3, 4)), rng.randint(1, 5)
        tree = generate(rng.randrange(2 ** 62), d, depth, 0.55)
        k = rng.randint(1, depth)
        comps = tree.levels[k]
        i = rng.randrange(len(comps))
        if case % 3 == 1:
            comps[i] = dataclasses.replace(comps[i], local_degree=comps[i].local_degree
                                           + rng.choice((-1, 1)))
        elif case % 3 == 2:
            siblings = [j for j, c in enumerate(comps) if j != i
                        and (c.container, c.image) == (comps[i].container, comps[i].image)]
            if siblings:
                j = rng.choice(siblings)
                comps[i] = dataclasses.replace(comps[i], local_degree=comps[i].local_degree + 1)
                comps[j] = dataclasses.replace(comps[j], local_degree=comps[j].local_degree - 1)
        try:
            a = assign_symbols(tree)
        except InconsistentTree as exc:
            rejected.update(f"{case} {exc!r}\n".encode())
            continue
        accepted.update(f"{case} {sorted(a.symbols.items())}\n".encode())
        for k in range(1, depth + 1):
            table = fibers(a, tree, k)
            accepted.update(repr(sorted((cid, len(ws)) for cid, ws
                                        in table.words_by_component.items())).encode())
            accepted.update(repr(verify_semiconjugacy(a, tree, k).checks).encode())
    assert (accepted.hexdigest(), rejected.hexdigest()) == (
        "fee7be952b456776c4bf5070062c6836dc4e1e5eaf93cd1f9c45a5ba98a37830",
        "9dbb23ad011a9940919c95a40953f25e56887793d6076a340f01b4f2274811e9")


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
    k = quadratic_tree.depth + 1
    with pytest.raises(ValueError, match=f"^word length {k} exceeds tree depth {k - 1}$"):
        cylinder_component(quadratic_assignment, quadratic_tree, (0,) * k)


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


def test_fibers_name_the_carrier_a_word_misses():
    # B's child over A carries no symbol: (2,0), the least word left without
    # a component, names the pair it misses
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    with pytest.raises(InconsistentTree) as info:
        fibers(type(a)(a.degree, {**a.symbols, (2, 2): ()}), tree, 2)
    assert str(info.value) == "no component for symbol 2 over image 0 at level 2"


def test_fibers_list_ascending_words_under_exactly_the_coded_components():
    # coding.json lists each fiber in this order
    for tree in (generate(99, 3, 4), generate(7, 4, 4)):
        a = assign_symbols(tree)
        k, d = tree.depth, tree.degree
        table = fibers(a, tree, k)
        for ws in table.words_by_component.values():
            assert list(ws) == sorted(ws)
        assert set(table.words_by_component) == set(brute_force_fibers(tree, a, k))
        assert sorted(itertools.chain.from_iterable(table.words_by_component.values())) == \
            list(itertools.product(range(d), repeat=k))
        assert fibers(a, tree, 0).words_by_component == {(0, 0): ((),)}


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


def test_exact_boundary_point_is_undecided_by_every_walk(cubic_map, cubic_disk, monkeypatch):
    # 3 lies exactly on the circle |z| = 3, and in the lattice (1/D)Z[i], so
    # the orbit walker classifies it exactly at step 0 and never refines past
    # its 64 starting bits.  chi, the orbit status and locate all call it
    # undecided; chi used to walk on to f(3) = 18 + b, outside U, and
    # return 1, certified, escaped at step 1
    tree = build_tree(cubic_map, cubic_disk, 1,
                      policy=ResolutionPolicy(max_resolution=44, max_boxes=8_000_000))
    precs = []
    set_prec = coding_mod.DyadicOrbit._set_prec
    monkeypatch.setattr(coding_mod.DyadicOrbit, "_set_prec",
                        lambda self, prec: precs.append(prec) or set_prec(self, prec))
    with pytest.raises(Undecided, match="^orbit step 0 lies exactly on the boundary circle of U$"):
        chi(cubic_map, ("3", "0"), tree)
    assert _orbit_status(cubic_map, cubic_disk, (Fraction(3), Fraction(0)), 20) == (
        "undecided", None, False)
    assert precs == [64, 64]
    with pytest.raises(Undecided, match="exactly on the boundary circle of U"):
        locate(tree, ("3", "0"), 1)


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


def test_verify_reports_the_first_missing_pair_a_word_reaches():
    # at level 2, symbol 2 over A and symbol 0 over B lose their carriers
    # on the well-formed tree: the image check names the least word that
    # reaches a lost pair, and the size check the fiber left short
    base = abstract_tree_d3()
    a = assign_symbols(base)
    symbols = dict(a.symbols)
    symbols[(2, 1)], symbols[(2, 2)] = (1,), ()
    report = verify_semiconjugacy(type(a)(a.degree, symbols), base, 2)
    assert report.checks[1:4] == (
        ("image-of-shift", False, "word (0,2) has no coded component"),
        ("surjective-onto-level", False, "component (2,2) receives no word"),
        ("fiber-size-equals-degree", False, "fiber of (2,1) has 1 words, cumulative degree is 2"),
    )


def test_verify_rejects_a_malformed_tree_first(monkeypatch):
    # check_structure's error comes before any symbol table is built: two
    # extra level-1 components over an image level 0 does not have, and
    # level-2 cumulative degrees lowered below the product rule
    base = abstract_tree_d3()
    a = assign_symbols(base)
    extra = [AbstractComponent(1, idx, 0, 1, 1, 0) for idx in (2, 3)]
    level2 = [dataclasses.replace(c, cumulative_degree=n)
              for c, n in zip(base.levels[2], (4, 1, 0, 1))]
    monkeypatch.setattr(coding_mod, "_carrier_tables", None)  # never called
    for tree, k, message in (
            (AbstractTree(3, [base.levels[0], base.levels[1] + extra]), 1,
             "container or image outside level 0 at (1, 2)"),
            (AbstractTree(3, base.levels[:2] + [level2]), 2,
             "cumulative degree 1 is not 2 times its image's 1 at (2, 1)")):
        with pytest.raises(InconsistentTree) as info:
            check_structure(tree)
        assert str(info.value) == message
        with pytest.raises(InconsistentTree) as info:
            verify_semiconjugacy(a, tree, k)
        assert str(info.value) == message


def test_verify_reports_a_symbol_table_defect_where_fibers_match():
    # symbol 2, outside the binary alphabet, added to both level-1
    # components: no word reads it, so every fiber count matches and only
    # the symbol table shows the pair claimed twice, at every level
    tree = generate(1, 2, 2)
    a = assign_symbols(tree)
    symbols = dict(a.symbols)
    symbols[(1, 0)], symbols[(1, 1)] = (0, 2), (1, 2)
    for k in (1, 2):
        report = verify_semiconjugacy(type(a)(a.degree, symbols), tree, k)
        assert {name: ce for name, ok, ce in report.checks if not ok} == {
            "fiber-size-equals-degree": "symbol table defect at level 1, (image, symbol) = (0, 2)",
        }


def test_verify_checks_the_word_budget_first(monkeypatch):
    # d^k words past the budget raise before any word is resolved
    tree = abstract_tree_d3()
    a = assign_symbols(tree)
    monkeypatch.setattr(coding_mod, "_MAX_WORDS", 8)
    monkeypatch.setattr(coding_mod, "_carrier_tables", None)  # never called
    with pytest.raises(BudgetExceeded, match="3\\^2 words exceed"):
        verify_semiconjugacy(a, tree, 2)
    monkeypatch.undo()
    monkeypatch.setattr(coding_mod, "_MAX_WORDS", 9)
    assert verify_semiconjugacy(a, tree, 2).all_passed
    # the real budget, 2^20 words, turns down 2^21 before any table is built
    monkeypatch.undo()
    monkeypatch.setattr(coding_mod, "_carrier_tables", None)
    deep = AbstractTree(2, [tree.levels[0]] * 22)
    for f in (fibers, verify_semiconjugacy):
        with pytest.raises(BudgetExceeded, match="2\\^21 words exceed"):
            f(a, deep, 21)


def test_each_carrier_table_is_built_once_per_assignment_and_tree(quadratic_tree,
                                                                  monkeypatch):
    # a new assignment: the session fixture's store may hold tables already
    a = assign_symbols(quadratic_tree)
    k = quadratic_tree.depth
    built = []
    build = coding_mod._carrier_table
    monkeypatch.setattr(coding_mod, "_carrier_table",
                        lambda *args: built.append(args[2]) or build(*args))
    rng = random.Random(5)
    words = [tuple(rng.randrange(2) for _ in range(1 + n % k)) for n in range(200)]
    coded = [cylinder_component(a, quadratic_tree, w) for w in words]
    table = fibers(a, quadratic_tree, k)
    assert verify_semiconjugacy(a, quadratic_tree, 8).all_passed
    doc = coding_to_json_dict(a, quadratic_tree, k)
    assert built == list(range(1, k + 1))
    for w, (lvl, idx) in zip(words, coded):
        assert "".join(map(str, w)) in doc["levels"][str(lvl)][f"{lvl}:{idx}"]["fiber_words"]
    assert sum(map(len, table.words_by_component.values())) == 2 ** k


def test_stored_repeats_give_the_same_answers_in_any_call_order():
    # the doubly claimed pair of test_verify_reports_a_doubly_claimed_symbol,
    # on one assignment object per order: the level-2 table and its repeat
    # are built by whichever call comes first and read by the others
    tree = abstract_tree_d3()
    base = assign_symbols(tree)
    symbols = dict(base.symbols)
    symbols[(2, 2)] = (1,)
    claimed = "^symbol 1 over image 0 is claimed twice at level 2$"
    checks = verify_semiconjugacy(type(base)(base.degree, symbols), tree, 2).checks
    assert checks[3] == ("fiber-size-equals-degree", False,
                         "fiber of (2,0) has 2 words, cumulative degree is 4")
    calls = {
        "verify": lambda a: verify_semiconjugacy(a, tree, 2).checks == checks,
        "cylinder_component": lambda a: cylinder_component(a, tree, (1, 0)),
        "fibers": lambda a: fibers(a, tree, 2),
        "level 1": lambda a: (cylinder_component(a, tree, (2,)) == (1, 1)
                              and fibers(a, tree, 1).count(1, 0) == 2),
    }
    for order in itertools.permutations(calls):
        a = type(base)(base.degree, symbols)
        for name in order * 2:
            if name in ("cylinder_component", "fibers"):
                with pytest.raises(InconsistentTree, match=claimed):
                    calls[name](a)
            else:
                assert calls[name](a), (order, name)


def test_one_assignment_keeps_each_trees_own_tables():
    # two well-formed trees of degree 3: abstract_tree_d3, whose level 1
    # splits (2, 1), and a depth-1 tree of three univalent components.  The
    # canonical assignment of the first, with symbol 2 given to the third
    # component as well, codes the first tree and claims (0, 2) twice on the
    # second; the first tree never reads the third component's set
    base = abstract_tree_d3()
    a0 = assign_symbols(base)
    root = base.levels[0][0]
    three = AbstractTree(3, [[root], [AbstractComponent(1, idx, 0, 0, 1, 1) for idx in range(3)]])
    check_structure(three)
    symbols = {**a0.symbols, (1, 2): (2,)}
    for order in ((base, three), (three, base)):
        a = type(a0)(a0.degree, symbols)
        for tree in order * 2:
            report = verify_semiconjugacy(a, tree, 1)
            if tree is base:
                assert report.all_passed
                assert verify_semiconjugacy(a, base, 2).all_passed
                assert cylinder_component(a, base, (1, 0)) == (2, 0)
                assert cylinder_component(a, base, (2,)) == (1, 1)
            else:
                assert {name: ce for name, ok, ce in report.checks if not ok} == {
                    "image-of-shift": "word (2) has no coded component",
                    "surjective-onto-level": "component (1,1) receives no word",
                    "fiber-size-equals-degree": "fiber of (1,0) has 2 words, cumulative degree is 1",
                    "mixed-fibers-are-critical":
                        "fiber of (1,0) mixes first symbols [0, 1] but its image chain is "
                        "critical-free",
                }
                with pytest.raises(InconsistentTree,
                                   match="^symbol 2 over image 0 is claimed twice at level 1$"):
                    cylinder_component(a, three, (2,))
    # the store holds trees weakly: a tree no one else holds takes its
    # tables with it
    assert len(a._tables) == 2
    del three, order, tree
    gc.collect()
    assert list(a._tables) == [base]


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


def test_a_depth_0_tree_codes_the_empty_word_alone():
    tree = AbstractTree(3, [[AbstractComponent(0, 0, None, None, 1, 1)]])
    a = assign_symbols(tree)
    assert a.symbols == {} and a.of(0, 0) == (0, 1, 2)
    assert fibers(a, tree, 0).words_by_component == {(0, 0): ((),)}
    assert cylinder_component(a, tree, ()) == (0, 0)


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
    assert _rejected(tree) == "level 1: degrees over image component 0 sum to 2, want 3"
