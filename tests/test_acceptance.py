"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check is exact (integer) unless stated otherwise.
"""

import itertools
import time
from fractions import Fraction

from cantorshift import cantor_diagnostic, validate_restriction
from cantorshift.coding import (
    assign_symbols,
    chi,
    cylinder_component,
    fibers,
    verify_semiconjugacy,
)
from cantorshift.oracle import run_equivalence_cases

from conftest import CUBIC_DEPTH, QUAD_DEPTH


def _report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_quadratic_instance(quadratic_map, quadratic_disk,
                                        quadratic_tree, quadratic_assignment):
    """z^2 - 6 on the disk of radius 4, depth 10: the critical-point-free
    Cantor case where the coding is a bijection at every depth."""
    t0 = time.time()
    tree = quadratic_tree
    report = tree.restriction
    assert report.n_components == 2
    assert tuple(sorted(report.branch_degrees)) == (1, 1)
    assert report.hypothesis_ok
    for k in range(0, QUAD_DEPTH + 1):
        assert len(tree.levels[k]) == 2 ** k if k else 1
    for k in range(1, QUAD_DEPTH + 1):
        for c in tree.levels[k]:
            assert c.local_degree == 1
            assert c.cumulative_degree == 1
    table = fibers(quadratic_assignment, tree, 8)
    assert all(len(ws) == 1 for ws in table.words_by_component.values())
    ver = verify_semiconjugacy(quadratic_assignment, tree, 8)
    assert ver.all_passed and ver.words_checked == 256
    diag = cantor_diagnostic(tree)
    assert diag.strictly_decreasing
    elapsed = tree.build_seconds + (time.time() - t0)
    _report("1 quadratic instance", elapsed < 60.0,
            f"N=2, degrees (1,1), 2^k components, singleton fibers, 5/5 checks "
            f"on 256 cylinders, diameters strictly decreasing; {elapsed:.1f}s < 60s")


def test_criterion_2_oracle_equivalence():
    """1000 seeded abstract trees, d in {2,3,4}, depth <= 6: the recursive
    fiber computation must agree exactly with iterative brute force, and
    the partition/nesting/equivariance invariants must hold throughout."""
    passed, failed, messages = run_equivalence_cases(20260808, 1000,
                                                     degrees=(2, 3, 4),
                                                     max_depth=6)
    for msg in messages[:5]:
        print(" ", msg)
    _report("2 oracle equivalence", failed == 0, f"{passed}/1000 cases agree exactly")


def test_criterion_3_cubic_instance(cubic_map, cubic_tree, cubic_assignment):
    """The Newton-found cubic, b truncated to 40 digits, whose critical
    point c1 = +1 shadows a repelling fixed point through step 38 and
    escapes at step 39 (``test_cubic_critical_orbit_escapes_at_step_39``):
    N = 2, degrees (2,1); chi(c1) = 2 certified; fibers over the critical
    chain stabilize at 2; non-precritical fibers are 1; chi <= 2 always."""
    tree = cubic_tree
    assert tree.restriction.hypothesis_ok
    assert tree.n_level1 == 2
    assert tuple(sorted(c.local_degree for c in tree.levels[1])) == (1, 2)
    d_prime = tree.degree - tree.n_level1
    assert d_prime == 1

    res = chi(cubic_map, ("1", "0"), tree)
    assert res.value == 2 and res.status == "certified"

    # fibers over the critical point's component chain stabilize at 2: a
    # shallow transient is possible while early orbit points still share
    # coarse components with the critical point, but once they separate
    # the chain fiber is chi(c1) = 2 for good
    from cantorshift import locate
    chain = locate(tree, ("1", "0"), CUBIC_DEPTH)
    sizes = []
    for k in range(1, CUBIC_DEPTH + 1):
        table = fibers(cubic_assignment, tree, k)
        sizes.append(len(table.words_by_component[(k, chain[k].index)]))
    assert sizes[-3:] == [2, 2, 2], f"chain fibers {sizes} do not stabilize at 2"
    assert all(s >= 2 for s in sizes)

    # sampled components whose image chain is critical-free have fiber 1
    table = fibers(cubic_assignment, tree, CUBIC_DEPTH)
    sampled = 0
    for c in tree.levels[CUBIC_DEPTH]:
        lvl, idx, critical = CUBIC_DEPTH, c.index, False
        while lvl >= 1:
            node = tree.levels[lvl][idx]
            if node.local_degree >= 2:
                critical = True
                break
            idx = node.image
            lvl -= 1
        if not critical:
            assert len(table.words_by_component[(CUBIC_DEPTH, c.index)]) == 1
            sampled += 1
    assert sampled > 0

    # chi <= 2^(d') everywhere: chi bounds point multiplicities, so sample
    # it at certified points of many components (their witness points) and
    # at assorted exact queries; certified results must respect the bound
    bound = 2 ** d_prime
    witnesses = tree._built[CUBIC_DEPTH].witness_points
    for w in witnesses[::9]:
        res_w = chi(cubic_map, w, tree)
        assert res_w.value <= bound
    for z in (("1", "0"), ("0.2", "0"), ("-2.1", "0.05"), ("1.6302", "0")):
        assert chi(cubic_map, z, tree).value <= bound
    _report("3 cubic instance",
            True,
            f"N=2 degrees (2,1), chi(c1)=2 certified, chain fibers {sizes} "
            f"stabilize at 2, {sampled} non-precritical fibers are 1, chi <= 2")


def test_criterion_4_conservation(quadratic_tree, cubic_tree):
    """At every level of both instances: cumulative degrees sum to d^k and
    sibling local degrees over each image component sum to d.  Exact."""
    for tree in (quadratic_tree, cubic_tree):
        d = tree.degree
        for k in range(1, tree.depth + 1):
            comps = tree.levels[k]
            assert sum(c.cumulative_degree for c in comps) == d ** k
            per_image = {}
            for c in comps:
                per_image[c.image] = per_image.get(c.image, 0) + c.local_degree
            assert len(per_image) == len(tree.levels[k - 1])
            assert all(v == d for v in per_image.values())
    _report("4 conservation", True,
            "sum cumulative = d^k and per-image local degrees sum to d, "
            "all levels, both instances")


def test_criterion_5_semiconjugacy_exhaustive(quadratic_tree, quadratic_assignment,
                                              cubic_tree, cubic_assignment):
    """For every word: the shifted word codes the image and the prefix codes
    the container.  Exhaustive to k = 8 on the quadratic and to the built
    depth (6) on the cubic."""
    total = 0
    for tree, assignment, kmax in ((quadratic_tree, quadratic_assignment, 8),
                                   (cubic_tree, cubic_assignment, CUBIC_DEPTH)):
        d = tree.degree
        coded = {(): 0}  # word -> index of c(word), one cylinder_component call per word
        for k in range(1, kmax + 1):
            for word in itertools.product(range(d), repeat=k):
                lvl, idx = cylinder_component(assignment, tree, word)
                assert lvl == k
                coded[word] = idx
                comp = tree.levels[k][idx]
                assert comp.image == coded[word[1:]]
                assert comp.container == coded[word[:-1]]
                total += 1
    _report("5 finite-depth semi-conjugacy", True,
            f"image(c(w)) = c(shift w) and container(c(w)) = c(prefix w) "
            f"for {total} words")


def test_criterion_6_mutation_sensitivity(quadratic_tree, quadratic_assignment):
    """Swapping one symbol between sibling sets must break verification
    with a concrete counterexample."""
    base = quadratic_assignment
    # find two level-2 siblings with a common image and swap their symbols
    comps = quadratic_tree.levels[2]
    by_image = {}
    for c in comps:
        by_image.setdefault(c.image, []).append(c.index)
    pair = next(v for v in by_image.values() if len(v) >= 2)
    bad = dict(base.symbols)
    a, b = pair[0], pair[1]
    bad[(2, a)], bad[(2, b)] = bad[(2, b)], bad[(2, a)]
    corrupted = type(base)(base.degree, bad)
    report = verify_semiconjugacy(corrupted, quadratic_tree, 4)
    failing = [(name, ce) for name, ok, ce in report.checks if not ok]
    assert not report.all_passed
    assert any(ce for _, ce in failing)
    _report("6 mutation sensitivity", True,
            f"corrupted assignment fails {len(failing)} checks, "
            f"e.g. {failing[0][0]}: {failing[0][1]}")
