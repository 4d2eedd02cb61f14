"""Component trees: structure, degrees, location, diagnostics."""

import copy
import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from cantorshift import (
    DomainDisk,
    Frame,
    HypothesisViolation,
    NotInCover,
    PavedCover,
    PolynomialMap,
    ResolutionExceeded,
    ResolutionPolicy,
    Undecided,
    build_tree,
    cantor_diagnostic,
    locate,
    paved_clusters,
    validate_restriction,
)
from cantorshift import tree as tree_mod
from cantorshift.coding import coding_to_json_dict
from cantorshift.errors import check_level
from cantorshift.intervals import _one_box, boverlap, enclose_fraction, enclose_point, isqrt_hi
from cantorshift.maps import _companion_roots, _orbit_status, certified_roots, parse_point

from conftest import assert_same_answers, paved, shifted_coefficients


def small_policy():
    return ResolutionPolicy(max_resolution=30, max_boxes=2_000_000)


def test_quadratic_shallow_counts_and_degrees(quadratic_map, quadratic_disk):
    tree = build_tree(quadratic_map, quadratic_disk, 2, policy=small_policy())
    assert [len(lvl) for lvl in tree.levels] == [1, 2, 4]
    for k in (1, 2):
        for c in tree.levels[k]:
            assert c.local_degree == 1
            assert c.cumulative_degree == 1
            assert not c.contains_critical


def test_quadratic_level1_components_straddle_sqrt6(quadratic_map, quadratic_disk):
    tree = build_tree(quadratic_map, quadratic_disk, 1, policy=small_policy())
    rects = [c.bbox for c in tree.levels[1]]
    s6 = 6 ** 0.5
    assert rects[0][0] < -s6 < rects[0][1]   # canonical order: leftmost first
    assert rects[1][0] < s6 < rects[1][1]
    for c in tree.levels[1]:
        assert c.image == 0 and c.container == 0


def test_structural_invariants_deep(quadratic_tree):
    d = quadratic_tree.degree
    for k in range(1, quadratic_tree.depth + 1):
        comps = quadratic_tree.levels[k]
        assert len(comps) == 2 ** k
        assert sum(c.cumulative_degree for c in comps) == d ** k
        per_image = {}
        for c in comps:
            per_image[c.image] = per_image.get(c.image, 0) + c.local_degree
        assert all(v == d for v in per_image.values())
        assert len(per_image) == len(quadratic_tree.levels[k - 1])


def test_commuting_square(quadratic_tree):
    for k in range(2, quadratic_tree.depth + 1):
        prev = quadratic_tree.levels[k - 1]
        for c in quadratic_tree.levels[k]:
            assert prev[c.image].container == prev[c.container].image


def test_nesting_of_covers(quadratic_tree):
    # every cell of a component descends from a cell of its container
    for k in range(2, 5):
        parents = quadratic_tree._built[k - 1]
        for c in quadratic_tree.levels[k]:
            for (r, i, j) in quadratic_tree.pavement(k).cells_at(c.cover):
                anc = parents.pavement.find(r, [i], [j])[0]
                assert anc >= 0
                assert parents.labels[anc] == c.container


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_bboxes_match_cellwise_bounds(request, case):
    # each cover indexes its own cells of the level's pavement, and its bbox,
    # one grouped min/max of the walls, is the cell-by-cell hull bit for bit
    tree = request.getfixturevalue(f"{case}_tree")
    bits = lambda rect: np.array(rect, dtype=np.float64).view(np.int64).tolist()
    for k, comps in enumerate(tree.levels):
        assert copy.deepcopy(comps) == comps  # compared without their index arrays
        pavement = tree.pavement(k)
        every = np.concatenate([c.cover for c in comps])
        assert np.array_equal(np.sort(every), np.arange(len(pavement)))
        for c in comps:
            assert c.cover.dtype == np.int64 and (np.diff(c.cover) > 0).all()
            walls = [tree.frame.cell_walls(r, i, j) for r, i, j in pavement.cells_at(c.cover)]
            hull = (min(w[0] for w in walls), max(w[1] for w in walls),
                    min(w[2] for w in walls), max(w[3] for w in walls))
            assert all(type(x) is float for x in c.bbox)
            assert bits(c.bbox) == bits(hull)
            if k == 0:
                assert c.diameter_bound == enclose_fraction(2 * tree.disk.radius)[1]
                continue
            w, h = hull[1] - hull[0], hull[3] - hull[2]
            assert c.diameter_bound == isqrt_hi(math.nextafter(w * w + h * h, math.inf))


def test_batched_witness_roots_match_exact_path(quadratic_map, quadratic_disk):
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder.build(4)
    d = quadratic_map.degree
    for k in range(1, 5):
        witnesses = builder.built[k - 1].witness_points
        rects, mults, sources = builder._solve_witness_preimages(k)
        assert mults.sum() == d * len(witnesses)
        for v, w in enumerate(witnesses):
            exact = [box for box, _, _
                     in certified_roots(shifted_coefficients(quadratic_map, w))]
            rects_v = [tuple(rect) for rect in rects[sources == v].tolist()]
            assert len(rects_v) == d
            for rect in rects_v:
                assert sum(boverlap(rect, e) for e in exact) == 1


def test_witness_points_lie_in_their_level(quadratic_tree, cubic_tree):
    # exact arithmetic, apart from the orbit walker that chose them: the
    # witness point w of a level-k cluster has f^j(w) strictly inside U for
    # j = 1..k
    for tree in (quadratic_tree, cubic_tree):
        for k in range(1, 5):
            for w in tree._built[k].witness_points:
                z = w
                for _ in range(k):
                    z = tree.map.eval_exact(z)
                    assert tree.disk.classify_exact(z) == "in"


def _walk_build(pmap, disk, depth, force=None, attempts=None, chain=True):
    """Build while recording each certification attempt as [level, walks,
    failure text or None] in ``attempts``, a walk being the (start,
    horizon) of one witness-membership orbit walk, and each level's witness
    enclosures.  With ``chain`` false, the float orbit chain leaves every
    witness candidate open, so each candidate tried goes to the walk.
    ``force`` = (k, z) makes the first walk from z at level k report an
    escape."""
    attempts = [] if attempts is None else attempts
    boxes = {}
    solve = tree_mod._TreeBuilder._solve_witness_preimages
    certify = tree_mod._TreeBuilder._certify
    walk = tree_mod._orbit_status
    chain_inside = tree_mod._TreeBuilder._chain_inside if chain else (
        lambda self, k, rects: np.zeros(len(rects), dtype=bool))

    def traced_solve(self, k):
        boxes[k] = solve(self, k)
        return boxes[k]

    def traced_certify(self, k, *args):
        attempts.append([k, [], None])
        try:
            return certify(self, k, *args)
        except (tree_mod._Failure, Undecided) as fail:
            attempts[-1][2] = str(fail)
            raise

    def traced_walk(pmap_, disk_, z, horizon):
        nonlocal force
        attempts[-1][1].append((z, horizon))
        if force == (attempts[-1][0], z):
            force = None
            return "escapes", 0, False
        return walk(pmap_, disk_, z, horizon)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_solve_witness_preimages", traced_solve)
        mp.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
        mp.setattr(tree_mod, "_orbit_status", traced_walk)
        mp.setattr(tree_mod._TreeBuilder, "_chain_inside", chain_inside)
        tree = build_tree(pmap, disk, depth, policy=small_policy())
    return tree, attempts, boxes


def _candidates(built, boxes):
    """Per cluster of an accepted level, the midpoints of the witness
    enclosures it holds, in the order the builder tries them."""
    per = [[] for _ in built.witness_points]
    rects, mults, sources = boxes
    for rect, mult, v in zip(map(tuple, rects.tolist()), mults.tolist(), sources.tolist()):
        (idx,) = {int(built.labels[built.pavement.find(r, [i], [j])[0]])
                  for r, i, j in built.pavement.overlapping_cells(rect)}
        per[idx].append((rect, mult, v))
    return [[(Fraction(0.5 * (r[0] + r[1])), Fraction(0.5 * (r[2] + r[3])))
             for r, _, _ in sorted(group)] for group in per]


@pytest.mark.parametrize("case, depth", [("quadratic", 3), ("cubic", 2)])
def test_witness_walk_starts_at_image_of_candidate(request, case, depth):
    # c lies in f^-k(U) when f(c) stays in U for k - 1 more steps: with the
    # float chain undecided, every walk of the accepted attempt starts at
    # f(c) for the first candidate c of its cluster, with horizon k - 1
    pmap = request.getfixturevalue(f"{case}_map")
    tree, attempts, boxes = _walk_build(
        pmap, request.getfixturevalue(f"{case}_disk"), depth, chain=False)
    for k in range(1, depth + 1):
        cands = _candidates(tree._built[k], boxes[k])
        _, walks, failure = [a for a in attempts if a[0] == k][-1]
        assert failure is None
        assert walks == [(pmap.eval_exact(c[0]), k - 1) for c in cands]
        assert tree._built[k].witness_points == [c[0] for c in cands]


def test_witness_walk_tries_next_candidate(cubic_map, cubic_disk):
    # the float chain undecided, the walk of the first candidate escapes
    tree, _, boxes = _walk_build(cubic_map, cubic_disk, 2, chain=False)
    cands = _candidates(tree._built[1], boxes[1])
    idx = [len(c) for c in cands].index(2)  # the branched cluster around +1
    first, second = cands[idx]
    tree, attempts, _ = _walk_build(cubic_map, cubic_disk, 2, chain=False,
                                    force=(1, cubic_map.eval_exact(first)))
    _, walks, failure = [a for a in attempts if a[0] == 1][-1]
    assert failure is None
    want = [(cubic_map.eval_exact(c[0]), 0) for c in cands]
    want.insert(idx + 1, (cubic_map.eval_exact(second), 0))
    assert walks == want
    assert tree._built[1].witness_points[idx] == second


def test_witness_walk_without_candidate_left_fails(quadratic_map, quadratic_disk):
    # the float chain undecided, the walk of the only candidate escapes
    tree, _, boxes = _walk_build(quadratic_map, quadratic_disk, 3, chain=False)
    cands = _candidates(tree._built[2], boxes[2])
    assert all(len(c) == 1 for c in cands)
    forced = quadratic_map.eval_exact(cands[0][0])
    attempts = []
    with pytest.raises(Undecided) as info:
        _walk_build(quadratic_map, quadratic_disk, 3, chain=False, force=(2, forced),
                    attempts=attempts)
    # the candidates are fixed for the level, so no refinement can help: the
    # first level-2 attempt that walks is the last attempt of the build
    walked = [a for a in attempts if a[0] == 2 and a[1]]
    assert len(walked) == 1 and walked[0] is attempts[-1]
    _, walks, failure = walked[0]
    # the defect is recorded and the walk goes on with the next cluster
    assert walks == [(quadratic_map.eval_exact(c[0]), 1) for c in cands]
    assert failure == str(info.value)
    assert failure.startswith("level 2: witness-member: no witness midpoint of cluster 0 ")
    assert failure.endswith("(by kind: witness-member=1)")


@pytest.mark.parametrize("case, depth", [("quadratic", 4), ("cubic", 3)])
def test_walk_alone_gives_the_chain_witness_points(request, case, depth):
    # the float chain certifies every witness of these builds, so they walk
    # no orbit; the walk alone must choose the same points and export the
    # same tree.json
    pmap = request.getfixturevalue(f"{case}_map")
    disk = request.getfixturevalue(f"{case}_disk")
    chained, chain_attempts, _ = _walk_build(pmap, disk, depth)
    walked, walk_attempts, _ = _walk_build(pmap, disk, depth, chain=False)
    assert all(not walks for _, walks, _ in chain_attempts)
    assert all(walks for _, walks, text in walk_attempts if text is None)
    for k in range(depth + 1):
        assert walked._built[k].witness_points == chained._built[k].witness_points
    assert (json.dumps(walked.to_json_dict(), sort_keys=True)
            == json.dumps(chained.to_json_dict(), sort_keys=True))


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_chain_certified_witness_candidates_pass_the_exact_walk(request, case):
    # the chain is sound: each candidate midpoint it certifies in f^-k(U)
    # has an exact orbit f(c), ..., f^k(c) strictly inside U
    tree = request.getfixturevalue(f"{case}_tree")
    builder = tree_mod._TreeBuilder(tree.map, tree.disk, tree.policy)
    builder.built = tree._built
    # the candidates all lie in their levels; the points of a grid inside U,
    # some of which escape, show that the chain also says no
    r = float(tree.disk.radius)
    ticks = np.linspace(-r, r, 9)[1:-1]
    grid = np.array([(x, x, y, y) for x in ticks for y in ticks])
    for k in range(1, 5):
        rects, _, _ = builder._solve_witness_preimages(k)
        inside = builder._chain_inside(k, rects)
        assert inside.any()
        grid_inside = builder._chain_inside(k, grid)
        statuses = []
        for (re_lo, re_hi, im_lo, im_hi), sure in zip(np.vstack((rects, grid)).tolist(),
                                                      np.append(inside, grid_inside).tolist()):
            c = (Fraction(0.5 * (re_lo + re_hi)), Fraction(0.5 * (im_lo + im_hi)))
            if tree.disk.classify_exact(c) != "in":
                continue
            status, _, _ = _orbit_status(tree.map, tree.disk, tree.map.eval_exact(c), k - 1)
            assert status == "in_Uprime" or not sure
            statuses.append(status)
        assert "escapes" in statuses


def test_wave_status_matches_per_resolution_batches(cubic_map, cubic_disk):
    # a cell's status depends on the cell alone: one wave of every cell that
    # level 3 classified, of resolutions 8..16, gets the statuses that one
    # batch per resolution gets
    k, cap = 3, 16
    builder = tree_mod._TreeBuilder(
        cubic_map, cubic_disk, ResolutionPolicy(max_resolution=cap, max_boxes=2_000_000))
    waves = []
    classify = tree_mod._TreeBuilder._classify_batch

    def traced_classify(self, k_, r, i, j):
        if k_ == k:
            waves.append(np.stack((r, i, j), axis=1))
        return classify(self, k_, r, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_classify_batch", traced_classify)
        builder.build(k)
    cells = np.concatenate(waves)
    status = builder._classify_batch(k, *cells.T)
    per_resolution = np.full(len(cells), -1, dtype=np.int8)
    for r in np.unique(cells[:, 0]).tolist():
        at = cells[:, 0] == r
        per_resolution[at] = builder._classify_batch(k, *cells[at].T)
    assert np.array_equal(status, per_resolution)

    # the wave holds every kind of cell: band cells at the cap, ...
    at_cap = cells[:, 0] == cap
    assert len(np.unique(cells[:, 0])) > 2 and (status[at_cap] == 2).any()
    # ... cells discarded at two different steps of the chain, ...
    out = [builder._classify_batch(j, *cells.T) == 0 for j in range(1, k + 1)]
    first = [out[j] & ~out[j - 1] for j in range(1, k)]
    assert sum(map(np.any, first)) >= 2
    # ... and band cells below the cap that stop by one rule alone
    stop_width, raster = builder._stop_width, builder._scale_raster
    builder._stop_width = 0.0
    by_raster = builder._classify_batch(k, *cells.T) == 2
    builder._stop_width, builder._scale_raster = stop_width, np.zeros_like(raster)
    by_width = builder._classify_batch(k, *cells.T) == 2
    assert (by_raster & ~by_width & ~at_cap).any()
    assert (by_width & ~by_raster & ~at_cap).any()


def test_sliced_waves_build_the_same_tree(cubic_map, cubic_disk):
    # waves classified in slices of a few cells give the tree of whole waves
    whole = build_tree(cubic_map, cubic_disk, 3, policy=small_policy())
    sizes = []
    classify = tree_mod._TreeBuilder._classify_batch

    def traced_classify(self, k, r, i, j):
        sizes.append(len(r))
        return classify(self, k, r, i, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod, "_WAVE_SLICE", 97)
        mp.setattr(tree_mod._TreeBuilder, "_classify_batch", traced_classify)
        sliced = build_tree(cubic_map, cubic_disk, 3, policy=small_policy())
    assert max(sizes) == 97
    assert sliced.to_json_dict() == whole.to_json_dict()
    for k in range(4):
        assert sliced._built[k].witness_points == whole._built[k].witness_points


def _two_raster_scale(frame, built, bits=10):
    """The local-scale raster of a level the naive way: one raster per kind
    of cell, each pixel the size of the coarsest cell of that kind over it,
    and the band raster wherever it has a cell, else the interior one."""
    m = 1 << bits
    rasters = {True: np.zeros((m, m)), False: np.zeros((m, m))}
    pav = built.pavement
    for r, i, j, inner in zip(pav.r.tolist(), pav.i.tolist(), pav.j.tolist(),
                              built.interior.tolist()):
        raster, size = rasters[inner], frame.cell_size(r)
        if r >= bits:
            raster[i >> (r - bits), j >> (r - bits)] = max(
                raster[i >> (r - bits), j >> (r - bits)], size)
        else:
            f = 1 << (bits - r)
            block = raster[i * f:(i + 1) * f, j * f:(j + 1) * f]
            np.maximum(block, size, out=block)
    return np.where(rasters[False] > 0, rasters[False], rasters[True])


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_scale_raster_matches_two_raster_maximum(request, case):
    # on every level of the fixture builds, one raster painted interior
    # first, band over it, finest first, is the two-raster maximum
    tree = request.getfixturevalue(f"{case}_tree")
    builder = tree_mod._TreeBuilder(tree.map, tree.disk, tree.policy)
    for built in tree._built:
        builder._build_scale_raster(built)
        decoded = builder._scale_sizes[builder._scale_raster]
        assert np.array_equal(decoded, _two_raster_scale(tree.frame, built))


def test_scale_raster_of_mixed_cells(quadratic_map, quadratic_disk):
    # cells coarser and finer than a pixel (resolution 10), and pixels that
    # hold interior and band cells at once: a pixel takes the coarsest band
    # cell over it, else the coarsest interior cell
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    frame, size = builder.frame, builder.frame.cell_size
    cells = [((3, 0, 0), True), ((3, 1, 0), False), ((8, 64, 64), True),
             ((9, 130, 128), False), ((10, 400, 400), False),
             # pixel (300, 300): interior and band at 12, band at 11
             ((12, 1200, 1200), True), ((12, 1201, 1200), False), ((11, 600, 601), False),
             # pixel (301, 300): interior at 12 and 13 only
             ((12, 1204, 1200), True), ((13, 2410, 2400), True)]
    pavement = paved(frame, [c for c, _ in cells])
    inner = np.zeros(len(pavement), dtype=bool)
    inner[pavement.find(*np.array([c for c, i in cells if i]).T)] = True
    built = SimpleNamespace(pavement=pavement, interior=inner)
    builder._scale_raster[:] = 1  # a repaint clears the last level's scales
    builder._build_scale_raster(built)
    raster = builder._scale_sizes[builder._scale_raster]
    assert np.array_equal(raster, _two_raster_scale(frame, built))
    assert (raster[:256, :128] == size(3)).all()
    assert (raster[256:260, 256:260] == size(8)).all()
    assert raster[260, 256] == raster[261, 257] == size(9)
    assert raster[400, 400] == size(10)
    assert raster[300, 300] == size(11)
    assert raster[301, 300] == size(12)
    assert np.count_nonzero(raster) == 256 * 128 + 16 + 4 + 1 + 2


def test_level_build_memory_per_cell_is_bounded(cubic_tree):
    # building the cubic fixture's deepest level from the levels above holds
    # at most one whole-level copy of the cells at a time.  Traced peak per
    # cell of the level's pavement at depth 6: 83.8 bytes, against 151.1
    # when each failed attempt's whole pavement lived through the next
    k = cubic_tree.depth
    builder = tree_mod._TreeBuilder(cubic_tree.map, cubic_tree.disk, cubic_tree.policy)
    builder.built, builder.levels = cubic_tree._built[:k], cubic_tree.levels[:k]
    tracemalloc.start()
    try:
        builder._build_level(k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = len(builder.built[k].pavement)
    assert cells == len(cubic_tree.pavement(k))
    assert peak < 100 * cells, f"level {k} peaked at {peak / cells:.1f} bytes per cell"


def _kept_bytes(built, comps):
    """The bytes an accepted level keeps: its pavement's columns, search
    keys if present, labels and interior mask, and the buffer behind its
    components' covers, once."""
    pav = built.pavement
    arrays = [pav.r, pav.i, pav.j, built.labels, built.interior]
    if pav._keys is not None:
        arrays.append(pav._keys)
    buffers = {}
    for c in comps:
        a = c.cover
        while a.base is not None:
            a = a.base
        buffers[id(a)] = a
    return sum(a.nbytes for a in arrays) + sum(a.nbytes for a in buffers.values())


def test_accepted_levels_are_kept_compact(cubic_tree):
    # an accepted level keeps its resolutions as int8, its labels as int32
    # and no search keys: 30.0 bytes per cell on every level of the cubic
    # fixture, where six int64 columns and the interior mask took 49.0
    for k, (built, comps) in enumerate(zip(cubic_tree._built, cubic_tree.levels)):
        assert built.pavement.r.dtype == np.int8 and built.labels.dtype == np.int32
        per_cell = _kept_bytes(built, comps) / len(built.pavement)
        assert per_cell <= 32, f"level {k} keeps {per_cell:.1f} bytes per cell"


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_kept_pavements_answer_as_fresh_ones(request, case):
    # each kept pavement, queried through a shallow copy so that the fixture
    # stays compact, answers as a fresh int64 cover of its cells, and its
    # clusters are the level's labels
    tree = request.getfixturevalue(f"{case}_tree")
    rng = np.random.default_rng(38)
    for built in tree._built:
        kept = copy.copy(built.pavement)
        fresh = PavedCover(tree.frame, kept.r, kept.i, kept.j)
        assert fresh.r.dtype == np.int64
        assert np.array_equal(assert_same_answers(kept, fresh, rng), built.labels)


def _paving_reference(cells, inner, settled, up):
    """The (r, i, j) order of the cells, and their interior flags, settled
    and parent clusters in that order, by one lexsort."""
    r, i, j = cells.T
    order = np.lexsort((j, i, r))
    return r[order], i[order], j[order], inner[order], settled[order], up[order]


@pytest.mark.parametrize("n_new", [0, 1, 40])
def test_pave_from_kept_columns_equals_a_lexsort_paving(n_new):
    # _pave takes the kept cells in pavement order and the new cells in any
    # order, in slices; the cover, interior mask, settled and parent
    # clusters equal one lexsort of all cells.  With no new cell the kept
    # columns pave as they are
    rng = np.random.default_rng(n_new)
    r = rng.integers(4, 6, 300)
    cells = np.unique(np.stack((r, *rng.integers(0, 1 << r, (2, 300))), axis=1), axis=0)
    rng.shuffle(cells)
    n = len(cells)
    inner = rng.random(n) < 0.4
    settled = np.where(rng.random(n) < 0.7, rng.integers(0, 9, n), -1)
    up = rng.integers(0, 5, n)
    fresh = np.arange(n) >= n - n_new
    settled[fresh] = -1
    r, i, j, kept_inner, kept_settled, kept_up = _paving_reference(
        cells[~fresh], inner[~fresh], settled[~fresh], up[~fresh])
    kept = [(r, i, j, kept_up, kept_inner, kept_settled)]
    interior, band = [], []
    for part, flag in ((interior, True), (band, False)):
        sel = np.flatnonzero(fresh & (inner == flag))
        for piece in (sel[:3], sel[3:3], sel[3:]):  # slices, one of them empty
            part.append((*cells[piece].T, up[piece]))
    pavement, got_inner, got_settled, got_up = tree_mod._pave(
        Frame(0.0, 0.0, 1.0), interior, band, kept)
    assert kept == interior == band == []
    want = _paving_reference(cells, inner, settled, up)
    for got, expected in zip((pavement.r, pavement.i, pavement.j, got_inner, got_settled, got_up),
                             want):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_failed_attempts_hand_on_exactly_their_unsplit_cells(cubic_map, cubic_disk):
    # building the cubic to depth 6 as the fixture does: after each failed
    # attempt, the next pavement holds every cell the split left, with its
    # interior flag, settled cluster and parent cluster, and no split cell.
    # The last attempt adds no cell, so its pavement is the kept cells alone
    builder = tree_mod._TreeBuilder(cubic_map, cubic_disk,
                                    ResolutionPolicy(max_resolution=44, max_boxes=8_000_000))
    attempts = []
    certify = tree_mod._TreeBuilder._certify
    subdivide = tree_mod._TreeBuilder._subdivide_band

    def traced_certify(self, k, pavement, interior, boxes, settled, up):
        assert len(attempts) < 60, "the build does not settle"
        attempts.append([k, (pavement, interior, settled, up)])
        try:
            return certify(self, k, pavement, interior, boxes, settled, up)
        except tree_mod._Failure as fail:
            attempts[-1].append(fail.labels)
            raise

    def traced_subdivide(self, pavement, interior, up, pending, targets):
        chosen = subdivide(self, pavement, interior, up, pending, targets)
        attempts[-1].append(chosen)
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
        mp.setattr(tree_mod._TreeBuilder, "_subdivide_band", traced_subdivide)
        builder.build(6)
    # each failed attempt is [level, columns, labels, split mask]
    handed_on = [(*failed[1:], attempt[1]) for failed, attempt in zip(attempts, attempts[1:])
                 if len(failed) == 4]
    assert len(handed_on) >= 10
    for old, labels, chosen, (pavement, interior, settled, up) in handed_on:
        assert (pavement.find(old[0].r[chosen], old[0].i[chosen], old[0].j[chosen]) < 0).all()
        at = pavement.find(old[0].r[~chosen], old[0].i[~chosen], old[0].j[~chosen])
        assert (at >= 0).all() and np.array_equal(pavement.r[at], old[0].r[~chosen])
        touched = np.isin(labels, labels[chosen])
        for got, want in ((interior, old[1]), (settled, np.where(touched, -1, labels)),
                          (up, old[3])):
            assert np.array_equal(got[at], want[~chosen])
    old, _, chosen, last = handed_on[-1]
    assert len(last[0]) == np.count_nonzero(~chosen)


def test_scale_raster_repaint_stays_small(cubic_tree):
    # a repaint allocates no second raster: its traced peak on the largest
    # fixture pavement stays well below one 8 MB raster
    builder = tree_mod._TreeBuilder(cubic_tree.map, cubic_tree.disk, cubic_tree.policy)
    built = max(cubic_tree._built, key=lambda b: len(b.pavement))
    tracemalloc.start()
    try:
        builder._build_scale_raster(built)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, f"repaint of {len(built.pavement)} cells peaked at {peak} bytes"
    assert builder._scale_raster.nbytes == 1 << 20


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_scale_lookup_equals_the_float_raster_bit_for_bit(request, case):
    # on every level, the scale looked up at points across the frame, and
    # at points outside it that clip to its edge pixels, is the float of
    # the two-raster maximum at the same pixel, bit for bit
    tree = request.getfixturevalue(f"{case}_tree")
    builder = tree_mod._TreeBuilder(tree.map, tree.disk, tree.policy)
    frame, m = tree.frame, 1 << 10
    rng = np.random.default_rng(20091)
    u, v = frame.side * rng.uniform(-0.1, 1.1, (2, 20_000))
    x, y = frame.x0 + u, frame.y0 + v
    ix = np.clip(np.floor((x - frame.x0) / (frame.side / m)).astype(np.int64), 0, m - 1)
    iy = np.clip(np.floor((y - frame.y0) / (frame.side / m)).astype(np.int64), 0, m - 1)
    assert ((ix == 0) | (ix == m - 1)).sum() > 1000
    scales = set()
    for built in tree._built:
        builder._build_scale_raster(built)
        local = builder._scale_lookup(x, y)
        assert local.dtype == np.float64 and (local > 0).any()
        expected = _two_raster_scale(frame, built)[ix, iy]
        assert np.array_equal(local.view(np.int64), expected.view(np.int64))
        scales.update(local.tolist())
    assert len(scales) > 3


def _with_box(boxes, rect):
    """Witness boxes with one more box of multiplicity 1 from witness 0."""
    rects, mults, sources = boxes
    return np.vstack((rects, [rect])), np.append(mults, 1), np.append(sources, 0)


def _with_chain(builder, k, boxes):
    """Witness ``boxes`` with the float chain's verdict on each midpoint,
    as ``_certify`` takes them."""
    return (*boxes, builder._chain_inside(k, boxes[0]))


def _found_up(parent, pavement):
    """Test-only reference for the parent clusters a level's cells carry:
    the label of the cell of the parent level's pavement (``parent``, its
    ``_Built``) that contains each cell, by ``find``, else -1."""
    anc = parent.pavement.find(pavement.r, pavement.i, pavement.j)
    return np.where(anc >= 0, parent.labels[anc], -1)


def _certify_at(builder, k, pavement, interior, boxes):
    """``_certify`` of a level-k pavement with nothing settled, the float
    chain's verdicts on ``boxes`` and parent clusters found by lookup."""
    return builder._certify(k, pavement, interior, _with_chain(builder, k, boxes), None,
                            _found_up(builder.built[k - 1], pavement))


def _certify_failure(builder, k, boxes):
    """The failure of re-certifying the accepted level k with ``boxes``."""
    built = builder.built[k]
    with pytest.raises(tree_mod._Failure) as info:
        _certify_at(builder, k, built.pavement, built.interior, boxes)
    return info.value


@pytest.mark.parametrize("k", [1, 2])
def test_witness_box_across_two_clusters_refines_both(quadratic_map, quadratic_disk, k):
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    tree = builder.build(2)
    a, b = (c.bbox for c in tree.levels[k][:2])
    rect = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
    built = builder.built[k]
    touched = {int(built.labels[built.pavement.find(r, [i], [j])[0]])
               for r, i, j in built.pavement.overlapping_cells(rect)}
    assert touched == {0, 1}
    fail = _certify_failure(builder, k, _with_box(builder._solve_witness_preimages(k), rect))
    assert str(fail).endswith("(by kind: witness-straddle=1)")
    assert np.array_equal(fail.refine, np.isin(built.labels, [0, 1]))
    assert fail.refine.any() and (k == 1 or not fail.refine.all())


def test_witness_box_outside_the_cover(quadratic_map, quadratic_disk):
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder.build(2)
    # 0 is inside U, but f(0) = -6 is not: no level-2 cell is near it
    near_zero = (0.0, 0.01, 0.0, 0.01)
    fail = _certify_failure(builder, 2, _with_box(builder._solve_witness_preimages(2),
                                                  near_zero))
    assert str(fail).endswith("(by kind: witness-lost=1)")
    assert fail.refine is None
    # at level 1 a preimage of the center outside the closed disk breaks U' in U
    built = builder.built[1]
    boxes = _with_box(builder._solve_witness_preimages(1), (5.0, 5.01, 0.0, 0.01))
    with pytest.raises(HypothesisViolation):
        _certify_at(builder, 1, built.pavement, built.interior, boxes)


def test_critical_point_on_a_corner_names_both_clusters(cubic_map, cubic_disk):
    # +1 on the corner shared by two diagonal cells: corner contact does not
    # connect, so the enclosure touches two clusters; -1 is off the cover
    builder = tree_mod._TreeBuilder(cubic_map, cubic_disk, small_policy())
    frame = Frame(-4.0, -4.0, 8.0)
    pavement = paved(frame, [(3, 4, 4), (3, 5, 3)])
    assert frame.cell_walls(3, 4, 4)[1::2] == (1.0, 1.0)
    assert frame.cell_walls(3, 5, 3)[::3] == (1.0, 0.0)
    labels = paved_clusters(frame, pavement)
    assert sorted(labels.tolist()) == [0, 1]
    defects = tree_mod._Defects()
    assert builder._locate_criticals(1, pavement, labels, defects).tolist() == [-1, -1]
    assert defects.counts == {"critical-straddle": 1}
    assert defects.clusters == {0, 1}


def test_cluster_across_parent_clusters_fails(quadratic_map, quadratic_disk):
    # one row of cells along the real axis joins both level-1 clusters and
    # the gap between them into one level-2 cluster
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder.build(1)
    frame = builder.frame
    s = frame.cell_size(6)
    row = [(6, i, int(-frame.y0 / s)) for i in range(int((-3 - frame.x0) / s),
                                                     int((3 - frame.x0) / s))]
    pavement = paved(frame, row)
    assert len(set(paved_clusters(frame, pavement).tolist())) == 1
    with pytest.raises(tree_mod._Failure) as info:
        _certify_at(builder, 2, pavement, np.zeros(len(pavement), dtype=bool),
                    builder._solve_witness_preimages(2))
    assert str(info.value).endswith("(by kind: container-straddle=1)")
    assert "cluster spans 3 parent clusters" in str(info.value)
    assert info.value.refine.all()


@pytest.mark.parametrize("case, depth, failures", [
    ("quadratic", 6, [(5, 0, "witness-disagree=2"), (6, 2, "witness-disagree=22"),
                      (6, 24, "witness-disagree=2")]),
    ("cubic", 4, [(4, 0, "witness-disagree=3, no-witness=2"),
                  (4, 0, "witness-disagree=1, no-witness=1")]),
])
def test_failure_texts_of_small_builds(request, case, depth, failures):
    # every failing attempt: its level, first defect and histogram of kinds
    _, attempts, _ = _walk_build(request.getfixturevalue(f"{case}_map"),
                                 request.getfixturevalue(f"{case}_disk"), depth)
    assert [(k, text) for k, _, text in attempts if text is not None] == [
        (k, f"defects: witness-disagree: cluster {idx} holds preimages of 2 distinct "
            f"parent witnesses (fused components) (by kind: {histogram})")
        for k, idx, histogram in failures]
    assert [k for k, _, text in attempts if text is None] == list(range(1, depth + 1))


@pytest.mark.parametrize("case, depth", [("quadratic", 6), ("cubic", 4), ("cubic", 5)])
def test_carried_attempts_match_fresh_lookups(request, case, depth):
    # a failed attempt hands the next one its settled clusters, and the
    # interior flag of every kept cell; on every attempt the labels and
    # interior mask must equal those that a from-scratch clustering and
    # lookups give its pavement, and its carried parent clusters those that
    # a lookup in the parent pavement gives
    classified, settled, tables, attempts = {}, [], [], []
    classify = tree_mod._TreeBuilder._classify_batch
    certify = tree_mod._TreeBuilder._certify
    defects = tree_mod._Defects.__init__
    cluster = tree_mod.paved_clusters

    def traced_clusters(frame, pavement, groups=None):
        settled.append(groups)
        return cluster(frame, pavement, groups)

    def traced_classify(self, k, r, i, j):
        status = classify(self, k, r, i, j)
        inner = status == 1
        classified.setdefault(k, []).append(
            np.stack((r[inner], i[inner], j[inner]), axis=1))
        return status

    def traced_defects(self, labels=None):
        defects(self, labels)
        if labels is not None:
            tables.append(labels)

    def traced_certify(self, k, pavement, interior, boxes, groups, up):
        attempts.append((k, pavement, interior, np.concatenate(classified[k]), up.copy()))
        return certify(self, k, pavement, interior, boxes, groups, up)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_classify_batch", traced_classify)
        mp.setattr(tree_mod._Defects, "__init__", traced_defects)
        mp.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
        mp.setattr(tree_mod, "paved_clusters", traced_clusters)
        tree = build_tree(request.getfixturevalue(f"{case}_map"),
                          request.getfixturevalue(f"{case}_disk"), depth, policy=small_policy())
    assert len(tables) == len(settled) == len(attempts) > depth
    for (k, pavement, interior, inner_cells, up), labels, groups in zip(
            attempts, tables, settled):
        fresh = paved_clusters(tree.frame, pavement)
        assert np.array_equal(labels, fresh)
        # each settled group is one whole cluster of the pavement
        held = groups >= 0
        pairs = np.unique(np.stack((groups[held], fresh[held])), axis=1)
        assert len(set(pairs[0])) == len(set(pairs[1])) == pairs.shape[1]
        assert np.array_equal(held, np.isin(fresh, fresh[held]))
        assert np.array_equal(up, _found_up(tree._built[k - 1], pavement))
        at = pavement.find(*inner_cells.T)
        assert (at >= 0).all()
        assert np.array_equal(interior, np.isin(np.arange(len(pavement)), at))
    # the re-attempts carried settled clusters
    assert any((groups >= 0).any() for groups in settled)


@pytest.mark.parametrize("case, depth", [("quadratic", 6), ("cubic", 4)])
def test_carried_parent_clusters_equal_a_find(request, case, depth):
    # a cell enters a level as a parent-pavement cell or as a child of one
    # of the level's cells, and carries that cell's parent cluster; on every
    # attempt, the pinned ones of test_attempt_digests_are_pinned, the
    # carried clusters must equal a lookup of each cell in the parent
    # pavement, which no cell misses
    builder = tree_mod._TreeBuilder(request.getfixturevalue(f"{case}_map"),
                                    request.getfixturevalue(f"{case}_disk"), small_policy())
    carried = []
    certify = tree_mod._TreeBuilder._certify

    def traced_certify(self, k, pavement, interior, boxes, settled, up):
        carried.append((k, pavement, up.copy()))
        return certify(self, k, pavement, interior, boxes, settled, up)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
        builder.build(depth)
    assert len(carried) == len(_ATTEMPT_DIGESTS[case])
    for k, pavement, up in carried:
        found = _found_up(builder.built[k - 1], pavement)
        assert (found >= 0).all()
        assert np.array_equal(up, found)


def test_containment_retries_continue_like_failed_attempts(monkeypatch):
    # z^2 - 6 on |z| < 3: the level-1 preimage reaches the circle at +-3, so
    # every attempt certifies with its cover not inside U.  Three retries
    # refine the whole band and hand on their state as a failed attempt
    # does; the fourth table is accepted and reported as not contained
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "3")
    builder = tree_mod._TreeBuilder(pmap, disk, ResolutionPolicy(max_resolution=24))
    builder._build_level0()
    attempts = []
    certify = tree_mod._TreeBuilder._certify

    def traced_certify(self, k, pavement, interior, boxes, settled, up):
        carried = (settled.copy(), up.copy())
        built = certify(self, k, pavement, interior, boxes, settled, up)
        attempts.append((pavement, carried, built))
        return built

    monkeypatch.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
    builder._build_level(1)
    assert [len(pavement) for pavement, _, _ in attempts] == [426, 1000, 2150, 4308]
    assert builder.built[1] is attempts[-1][2]
    level0 = builder.built[0]
    for pavement, (settled, up), built in attempts:
        # every cell carries its parent cluster, the one lookup gives
        looked_up = _found_up(level0, pavement)
        assert (looked_up >= 0).all() and np.array_equal(up, looked_up)
        assert np.array_equal(built.parent_of[built.labels], looked_up)
    # a retry keeps the cells its refinement did not split, the ones it
    # shares with the attempt before
    def shared(prev, pavement):
        idx = prev.find(pavement.r, pavement.i, pavement.j)
        return int(np.count_nonzero((idx >= 0) & (prev.r[idx] == pavement.r)))

    assert [shared(a[0], b[0]) for a, b in zip(attempts, attempts[1:])] == [150, 436, 1068]
    for pavement, (settled, up), built in attempts[1:]:
        fresh = paved_clusters(builder.frame, pavement)
        assert np.array_equal(built.labels, fresh)
        # a whole-band retry touches every cluster with a band cell
        held = settled >= 0
        assert np.array_equal(held, np.isin(fresh, fresh[held]))
    report = validate_restriction(pmap, disk, builder.levels[1], builder.built[1].pavement)
    assert report.n_components == 2
    assert list(report.branch_degrees) == [1, 1]
    assert report.compactly_contained is False


def test_containment_retries_at_the_resolution_cap_accept_the_last_table(monkeypatch):
    # the same map with cells no finer than 2^-7: after the third attempt
    # no band cell can refine, so the last table not inside U is accepted
    # before a fourth exists, and the restriction report says why
    pmap = PolynomialMap([("-6", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "3")
    policy = ResolutionPolicy(max_resolution=7)
    builder = tree_mod._TreeBuilder(pmap, disk, policy)
    builder._build_level0()
    attempts = []
    certify = tree_mod._TreeBuilder._certify

    def traced_certify(self, *args):
        attempts.append(certify(self, *args))
        return attempts[-1]

    monkeypatch.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
    builder._build_level(1)
    assert len(attempts) == 3
    assert builder.built[1] is attempts[-1]
    assert not disk.contains_cover(attempts[-1].pavement)
    monkeypatch.undo()
    with pytest.raises(HypothesisViolation) as info:
        build_tree(pmap, disk, 1, policy=policy)
    report = info.value.report
    assert report.compactly_contained is False
    assert report.n_components == 2
    assert list(report.branch_degrees) == [1, 1]


def test_restriction_critical_outside_a_deeper_cover_is_a_violation(cubic_map, cubic_disk):
    # level 1 certifies +1 inside U' and leaves the escaping -1 out; at
    # k >= 2 a restriction critical point outside the whole cover certifies
    # an escaping orbit, and -1, not a restriction critical point, is not
    # named
    builder = tree_mod._TreeBuilder(cubic_map, cubic_disk, small_policy())
    builder.build(2)
    none = np.empty(0, dtype=np.int64)
    empty = PavedCover(builder.frame, none, none, none)
    with pytest.raises(HypothesisViolation) as info:
        builder._locate_criticals(2, empty, none, tree_mod._Defects())
    assert str(info.value) == (
        "critical point 1+0i certified outside f^-2(U): its orbit escapes U'")


def _with_parent(builder, k, **fields):
    """A copy of the builder whose level k - 1 record has ``fields`` replaced."""
    doctored = copy.copy(builder)
    doctored.built = list(builder.built)
    doctored.built[k - 1] = dataclasses.replace(builder.built[k - 1], **fields)
    return doctored


def test_commuting_square_fails_on_a_wrong_parent_image(quadratic_map, quadratic_disk):
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder.build(3)
    image_of = builder.built[2].image_of.copy()
    image_of[0] = 1 - image_of[0]
    built = builder.built[3]
    children = np.flatnonzero(built.parent_of == 0)
    assert len(children) == 2
    fail = _certify_failure(_with_parent(builder, 3, image_of=image_of), 3,
                            builder._solve_witness_preimages(3))
    assert str(fail) == (f"defects: commuting-square: container(image) != image(container) "
                         f"at cluster {children[0]} (by kind: commuting-square=2)")
    assert np.array_equal(fail.refine, np.isin(built.labels, children))


@pytest.mark.parametrize("k", [1, 2])
def test_branched_cluster_missing_a_witness_box(cubic_map, cubic_disk, k):
    builder = tree_mod._TreeBuilder(cubic_map, cubic_disk, small_policy())
    builder.build(2)
    built = builder.built[k]
    (idx,) = np.flatnonzero(built.local_degree == 2)
    rects, mults, sources = builder._solve_witness_preimages(k)
    box, cell = built.pavement.overlapping(rects.T)
    inside = np.unique(box[built.labels[cell] == idx])
    assert mults[inside].tolist() == [1, 1]
    keep = np.arange(len(mults)) != inside[0]
    fail = _certify_failure(builder, k, (rects[keep], mults[keep], sources[keep]))
    assert str(fail) == (f"defects: degree-mismatch: cluster {idx}: 1 witness preimages vs "
                         f"local degree 2 from critical points (by kind: degree-mismatch=1)")
    assert np.array_equal(fail.refine, built.labels == idx)


def test_children_of_a_parent_over_one_component_fail_conservation(
        quadratic_map, quadratic_disk):
    # the two children of parent 0 claim preimages of witness 0 alone: the
    # sum over component 0 is 2 and the sum over component 1 is 0, want 1
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder.build(2)
    built = builder.built[2]
    children = np.flatnonzero(built.parent_of == 0)
    assert sorted(built.image_of[children].tolist()) == [0, 1]
    (over_1,) = children[built.image_of[children] == 1]
    rects, mults, sources = builder._solve_witness_preimages(2)
    box, cell = built.pavement.overlapping(rects.T)
    sources = sources.copy()
    sources[np.unique(box[built.labels[cell] == over_1])] = 0
    fail = _certify_failure(builder, 2, (rects, mults, sources))
    assert str(fail) == ("defects: conservation: children of parent 0 over component 0 "
                         "have degree 2, want 1 (by kind: conservation=2)")
    assert np.array_equal(fail.refine, np.isin(built.labels, children))


@pytest.mark.parametrize("horizon", [0, -1])
def test_validation_horizon_must_be_positive(horizon):
    # a horizon below 1 walks no step, so every critical orbit would read
    # as staying in U'
    with pytest.raises(ValueError, match="validation horizon at least 1"):
        ResolutionPolicy(validation_horizon=horizon)
    assert ResolutionPolicy(validation_horizon=1).validation_horizon == 1


def test_resolution_cap_stays_within_exact_cell_keys():
    # cell keys and neighbor slots are exact in int64 up to resolution 62
    assert ResolutionPolicy(max_resolution=62).max_resolution == 62
    with pytest.raises(ValueError, match="max_resolution must be at most 62"):
        ResolutionPolicy(max_resolution=63)


def test_empty_level_fails_certification(quadratic_map, quadratic_disk):
    builder = tree_mod._TreeBuilder(quadratic_map, quadratic_disk, small_policy())
    builder._build_level0()
    builder._build_level(1)
    empty = paved(builder.frame, [])
    no_cells = np.zeros(0, dtype=bool)
    for k in (1, 2):
        boxes = builder._solve_witness_preimages(k)
        with pytest.raises(tree_mod._Failure) as info:
            _certify_at(builder, k, empty, no_cells, boxes)
        # nothing is left to refine, which ends the level in ResolutionExceeded
        assert builder._subdivide_band(empty, no_cells, empty.r, {}, info.value.refine) is None


@pytest.mark.parametrize("center, radius", [(("0", "0"), "4"), (("0.3", "-0.7"), "2.5")])
def test_level0_matches_cellwise_side(quadratic_map, center, radius):
    # level 0 classifies a whole resolution per vector pass; recursing cell
    # by cell, one DomainDisk.sides call per cell, must give the same pavement
    disk = DomainDisk(center, radius)
    builder = tree_mod._TreeBuilder(quadratic_map, disk, small_policy())
    builder._build_level0()
    built = builder.built[0]
    got = dict(zip(built.pavement.cells_at(slice(None)), built.interior.tolist()))
    target = built.pavement.finest
    n = 1 << tree_mod.BASE_RESOLUTION
    queue = [(tree_mod.BASE_RESOLUTION, i, j) for i in range(n) for j in range(n)]
    want = {}
    while queue:
        r, i, j = queue.pop()
        inside, outside = (bool(m[0]) for m in disk.sides(
            [[v] for v in builder.frame.cell_walls(r, i, j)]))
        if inside or (not outside and r == target):
            want[(r, i, j)] = inside
        elif not outside:
            queue += [(r + 1, 2 * i + a, 2 * j + b) for a in (0, 1) for b in (0, 1)]
    assert got == want
    assert not all(want.values())  # the band is there


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_critical_witness_falls_back_to_exact_roots(monkeypatch, request, case):
    pmap = request.getfixturevalue(f"{case}_map")
    disk = request.getfixturevalue(f"{case}_disk")
    crit = (Fraction(0), Fraction(0)) if case == "quadratic" else (Fraction(1), Fraction(0))
    w = pmap.eval_exact(crit)  # a critical value: f - w has a double root at crit
    calls = []
    exact = tree_mod.certified_roots
    monkeypatch.setattr(tree_mod, "certified_roots", lambda p: calls.append(p) or exact(p))
    builder = tree_mod._TreeBuilder(pmap, disk, small_policy())
    builder.built = [SimpleNamespace(witness_points=[disk.center, w])]
    rects, mults, sources = builder._solve_witness_preimages(1)
    out = list(zip(map(tuple, rects.tolist()), mults.tolist(), sources.tolist()))
    # only the critical value goes through the exact path, via tree's import
    assert calls == [shifted_coefficients(pmap, w)]
    assert sum(m for _, m, v in out if v == 0) == pmap.degree
    assert all(m == 1 for _, m, v in out if v == 0)
    # z^2 at w = -6; (z - 1)^2 (z + 2) for the cubic at w = f(+1)
    fallback = sorted((m, rect) for rect, m, v in out if v == 1)
    roots = [(2, 0)] if case == "quadratic" else [(1, -2), (2, 1)]
    assert [m for m, _ in fallback] == [m for m, _ in roots]
    for (_, rect), (_, x) in zip(fallback, roots):
        assert rect[0] <= x <= rect[1] and rect[2] <= 0 <= rect[3]


def test_degree_iff_critical(cubic_tree):
    for k in range(1, cubic_tree.depth + 1):
        for c in cubic_tree.levels[k]:
            assert (c.local_degree >= 2) == bool(c.contains_critical)


def test_cubic_level1_degrees(cubic_tree):
    assert sorted(c.local_degree for c in cubic_tree.levels[1]) == [1, 2]
    deg2 = [c for c in cubic_tree.levels[1] if c.local_degree == 2][0]
    # the branched component is the one around the critical point +1
    rect = deg2.bbox
    assert rect[0] < 1.0 < rect[1]


def test_locate_fixed_point(quadratic_tree):
    # -2 is a fixed point of z^2 - 6 inside the Julia set
    chain = locate(quadratic_tree, ("-2", "0"), 8)
    assert [c.level for c in chain] == list(range(9))
    for deeper, outer in zip(chain[2:], chain[1:]):
        assert deeper.container == outer.index
    for c in chain[1:]:
        rect = c.bbox
        assert rect[0] <= -2.0 <= rect[1]


def test_locate_outside_raises(quadratic_tree):
    with pytest.raises(NotInCover):
        locate(quadratic_tree, ("10", "0"), 3)
    # inside U but certified to escape: the critical point 0
    with pytest.raises(NotInCover):
        locate(quadratic_tree, ("0", "0"), 3)


def test_locate_rejects_a_non_finite_point(quadratic_tree):
    for z in (complex("inf"), complex(float("nan"), 0)):
        with pytest.raises(ValueError, match="not a finite point"):
            locate(quadratic_tree, z, 1)


def test_locate_level_outside_the_tree(quadratic_tree):
    for k in (-1, quadratic_tree.depth + 1):
        with pytest.raises(ValueError, match=f"level {k} outside 0..10"):
            locate(quadratic_tree, ("-2", "0"), k)
    assert locate(quadratic_tree, ("-2", "0"), 0) == [quadratic_tree.levels[0][0]]


@pytest.mark.parametrize("k", [-1, 11])
@pytest.mark.parametrize("query", [
    lambda tree, assignment, k: tree.pavement(k),
    lambda tree, assignment, k: tree.level_resolution(k),
    lambda tree, assignment, k: coding_to_json_dict(assignment, tree, k),
], ids=["pavement", "level_resolution", "coding_to_json_dict"])
def test_level_queries_outside_the_tree(quadratic_tree, quadratic_assignment, query, k):
    # -1 used to read the deepest level and 11 to raise IndexError
    with pytest.raises(ValueError, match=f"level {k} outside 0..10, the tree's depth"):
        query(quadratic_tree, quadratic_assignment, k)


def test_locate_boundary_point_undecided(quadratic_tree):
    with pytest.raises(Undecided):
        locate(quadratic_tree, ("4", "0"), 1)  # exactly on the circle


def test_locate_critical_chain(cubic_tree):
    chain = locate(cubic_tree, ("1", "0"), cubic_tree.depth)
    for c in chain[1:]:
        assert c.contains_critical
        assert c.local_degree == 2


def _locate_per_level(tree, z, k, answers=None):
    """The reference for ``locate``: z located afresh at every level 1..k,
    the chain's nesting re-checked level by level.  ``answers`` may keep
    each level's answer for z, the cluster or the exception, across calls."""
    answers = {} if answers is None else answers
    check_level(k, tree.depth)
    exact = parse_point(z)
    side = tree.disk.classify_exact(exact)
    if side == "out":
        raise NotInCover("z is certified outside U")
    if side == "boundary":
        raise Undecided("z lies exactly on the boundary circle of U")
    box = _one_box(enclose_point(exact))
    chain = [tree.levels[0][0]]
    for lvl in range(1, k + 1):
        if (z, lvl) not in answers:
            built = tree._built[lvl]
            owners, hits = built.pavement.overlapping(box)
            touched, cluster = tree_mod._distinct(owners, built.labels[hits], 1)
            answers[z, lvl] = (
                NotInCover(f"z is certified outside the level-{lvl} cover") if not touched[0]
                else Undecided(f"membership of z at level {lvl} is not certified")
                if touched[0] > 1 or not built.pavement.tiled(box, owners, hits)[0]
                else int(cluster[0]))
        if isinstance(answers[z, lvl], Exception):
            raise answers[z, lvl]
        comp = tree.levels[lvl][answers[z, lvl]]
        assert lvl == 1 or comp.container == chain[-1].index
        chain.append(comp)
    return chain


def _outcome(query, tree, z, k, *args):
    try:
        return query(tree, z, k, *args)
    except (NotInCover, Undecided) as exc:
        return type(exc)


def _probe_points(tree, pmap, seed):
    """Exact points around a tree's cover: inverse-branch preimage chains of
    the disk center, witness points, random points of the disk's square, and
    the corners and wall midpoints of some cells of each level."""
    rng = np.random.default_rng(seed)
    desc = [complex(float(re), float(im)) for re, im in reversed(pmap.exact_coefficients)]
    center = complex(*map(float, tree.disk.center))
    points = []
    for _ in range(4):
        w = center
        for _ in range(tree.depth):
            p = list(desc)
            p[-1] -= w
            w = complex(rng.choice(np.roots(p)))
            points.append(w)
    for built in tree._built[1:]:
        points += built.witness_points[:3]
    radius = float(tree.disk.radius)
    points += list(center + radius * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)))
    for built in tree._built[1:]:
        pav = built.pavement
        pick = rng.choice(len(pav), size=2, replace=False)
        for lo_x, hi_x, lo_y, hi_y in zip(*(w.tolist() for w in tree.frame.cell_walls(
                pav.r[pick], pav.i[pick], pav.j[pick]))):
            mid_x, mid_y = 0.5 * (lo_x + hi_x), 0.5 * (lo_y + hi_y)
            points += [complex(x, y) for x in (lo_x, mid_x, hi_x) for y in (lo_y, mid_y, hi_y)
                       if (x, y) != (mid_x, mid_y)]
    return points


@pytest.mark.parametrize("case", ["quadratic", "cubic"])
def test_locate_matches_the_per_level_walk(request, case, monkeypatch):
    # one level-k query and the container chain give the walk's chain
    # wherever the walk gives one; where the walk stops at some level with
    # Undecided, the level-k answer may be certain either way
    tree = request.getfixturevalue(f"{case}_tree")
    queries = []
    overlapping = PavedCover.overlapping
    monkeypatch.setattr(PavedCover, "overlapping",
                        lambda self, rects: queries.append(len(self)) or overlapping(self, rects))
    outcomes, answers = {}, {}
    for z in _probe_points(tree, request.getfixturevalue(f"{case}_map"), seed=3):
        in_disk = tree.disk.classify_exact(parse_point(z)) == "in"
        for k in range(tree.depth + 1):
            want = _outcome(_locate_per_level, tree, z, k, answers)
            del queries[:]
            got = _outcome(locate, tree, z, k)
            # one query of the level-k pavement, after the disk test
            assert queries == ([len(tree.pavement(k))] if in_disk and k else [])
            if want is Undecided and isinstance(got, list):
                built = tree._built[k]
                box = _one_box(enclose_point(parse_point(z)))
                owners, hits = built.pavement.overlapping(box)
                assert set(built.labels[hits].tolist()) == {got[-1].index}
                assert built.pavement.tiled(box, owners, hits)[0]
            elif want is not Undecided:
                assert got == want
            key = tuple("chain" if isinstance(v, list) else v.__name__ for v in (want, got))
            outcomes[key] = outcomes.get(key, 0) + 1
    # every outcome of the reference is exercised, and the walk's Undecided
    # is certain at level k for some probes
    assert {want for want, _ in outcomes} == {"chain", "NotInCover", "Undecided"}
    assert ("Undecided", "NotInCover") in outcomes


@pytest.mark.parametrize("k", [1, 10])
def test_locate_on_an_outer_wall_is_undecided(quadratic_tree, k):
    # the midpoint of the left wall of the leftmost level-k cell touches that
    # cell alone, but its box reaches into the column outside the cover
    pav = quadratic_tree.pavement(k)
    walls = quadratic_tree.frame.cell_walls(pav.r, pav.i, pav.j)
    cell = int(np.argmin(walls[0]))
    z = complex(walls[0][cell], 0.5 * (walls[2][cell] + walls[3][cell]))
    assert quadratic_tree.disk.classify_exact(parse_point(z)) == "in"
    box = _one_box(enclose_point(parse_point(z)))
    owners, hits = pav.overlapping(box)
    assert hits.tolist() == [cell]
    with pytest.raises(Undecided, match=f"membership of z at level {k} is not certified"):
        locate(quadratic_tree, z, k)


def test_connected_julia_rejected():
    # z^2 on the disk of radius 2 has a connected filled-in set: N = 1
    pmap = PolynomialMap([("0", "0"), ("0", "0"), ("1", "0")])
    disk = DomainDisk(("0", "0"), "2")
    with pytest.raises(HypothesisViolation):
        build_tree(pmap, disk, 2, policy=small_policy())


def test_cantor_diagnostic(quadratic_tree, quadratic_disk):
    diag = cantor_diagnostic(quadratic_tree)
    assert len(diag.max_diameters) == quadratic_tree.depth + 1
    assert diag.max_diameters[0] >= 2 * float(quadratic_disk.radius)
    assert diag.strictly_decreasing


def test_depth_zero_tree(quadratic_map, quadratic_disk):
    tree = build_tree(quadratic_map, quadratic_disk, 0, policy=small_policy())
    assert tree.depth == 0
    diag = cantor_diagnostic(tree)
    assert diag.max_diameters[0] >= 8.0
    assert abs(diag.max_diameters[0] - 8.0) < 1e-9


def test_tree_export_shape(quadratic_map, quadratic_disk):
    tree = build_tree(quadratic_map, quadratic_disk, 2, policy=small_policy())
    doc = tree.to_json_dict()
    assert set(doc) == {"levels", "meta"}
    assert len(doc["levels"]) == 3
    entry = doc["levels"][1][0]
    assert set(entry) == {"id", "level", "container", "image", "local_degree",
                          "cumulative_degree", "diameter", "bbox"}
    assert entry["id"] == [1, 0]
    assert doc["meta"]["degree"] == 2
    assert doc["meta"]["hypothesis_ok"] is True


def test_determinism_same_config(quadratic_map, quadratic_disk):
    import json
    docs = []
    for _ in range(2):
        tree = build_tree(quadratic_map, quadratic_disk, 3, policy=small_policy())
        docs.append(json.dumps(tree.to_json_dict(), sort_keys=True))
    assert docs[0] == docs[1]


def test_box_cap_raises(quadratic_map, quadratic_disk):
    # level 0 keeps 544 cells, so the first level-1 wave alone, the parent
    # pavement, exceeds a cap of 300 live cells
    tight = ResolutionPolicy(max_resolution=30, max_boxes=300)
    with pytest.raises(ResolutionExceeded, match="^level 1: 544 boxes exceed cap 300$"):
        build_tree(quadratic_map, quadratic_disk, 1, policy=tight)


def test_resolution_cap_raises(quadratic_map, quadratic_disk):
    from cantorshift.errors import ResolutionExceeded
    tight = ResolutionPolicy(max_resolution=5, max_boxes=2_000_000)
    with pytest.raises(ResolutionExceeded) as info:
        build_tree(quadratic_map, quadratic_disk, 6, policy=tight)
    # the last failure carries the histogram of its defect kinds
    found = re.search(r"last failure: defects: ([a-z-]+): .*\(by kind: (.*)\)\)$",
                      str(info.value))
    assert found
    counts = dict(part.split("=") for part in found.group(2).split(", "))
    assert found.group(1) in counts
    assert all(int(n) >= 1 for n in counts.values())

def _chain_digest(pmap, disk, seed):
    """sha256 over ``_orbit_chain``'s outputs at k = 3 and 4 for seeded
    cells at mixed resolutions, and for their midpoints as point boxes (as
    ``_chain_inside`` passes them): the alive indices, the strict mask and
    the bits of the first and k-th image enclosures.  Half the cells lie
    anywhere on the disk, half around points of twelve backward orbit
    steps, near the Julia set, where the chain runs to the end."""
    builder = tree_mod._TreeBuilder(pmap, disk, small_policy())
    frame, rng = builder.frame, np.random.default_rng(seed)
    n, d = 1000, pmap.degree
    radius, (cx, cy) = float(disk.radius), map(float, disk.center)
    z = cx + rng.uniform(-radius, radius, n) + 1j * (cy + rng.uniform(-radius, radius, n))
    lower = np.array([complex(*map(float, c)) for c in pmap.exact_coefficients[:-1]])
    w = z[n // 2:]
    for _ in range(12):
        rows = np.tile(lower, (len(w), 1))
        rows[:, 0] -= w
        roots = np.sort(_companion_roots(rows).reshape(len(w), d))  # an order of their own
        w = roots[np.arange(len(w)), rng.integers(0, d, len(w))]
    z[n // 2:] = w
    r = rng.integers(3, 28, n)
    size = np.ldexp(frame.side, -r)
    i = np.floor((z.real - frame.x0) / size).astype(np.int64)
    j = np.floor((z.imag - frame.y0) / size).astype(np.int64)
    walls = frame.cell_walls(r, i, j)
    mx = 0.5 * (walls[0] + walls[1])
    my = 0.5 * (walls[2] + walls[3])
    h = hashlib.sha256()
    for k in (3, 4):
        for boxes in (walls, (mx, mx, my, my)):
            alive, strict, first, last = builder._orbit_chain(k, boxes)
            h.update(alive.astype(np.int64).tobytes())
            h.update(strict.tobytes())
            for a in (*first, *last):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def test_orbit_chain_bits_are_pinned(quadratic_map, quadratic_disk, cubic_map, cubic_disk):
    # pinned before the interval kernels took the point, zero-factor and
    # zero-addend paths: every enclosure of the chain keeps its bits
    assert _chain_digest(quadratic_map, quadratic_disk, 31) == (
        "d979bf61235f21c449a5ec4d1e0650cf0fd6e2c9003e644f58eb7c593526aaa7")
    assert _chain_digest(cubic_map, cubic_disk, 32) == (
        "8673f93c0494ded0a0275500b3f35fc0946d3bdaf78f446814ad3a67c079c84d")


def _attempt_digests(pmap, disk, depth, chain=True):
    """One sha256 per certification attempt of a build: the level, the
    pavement's cells and interior mask, the settled and parent clusters
    handed over by the last failed attempt, the labels and parent clusters
    the attempt ends with, its failure text or its accepted witness points,
    and the mask of the cells its refinement split.  With ``chain`` false,
    every witness goes to the exact walk, as in ``_walk_build``.

    Every cell carries its parent cluster into ``_certify``; the digest
    hashes the parent clusters of the kept cells alone, -1 for the others,
    the hand-off the digests were pinned with.  The kept cells are the
    cells of the last failed attempt's pavement that its split left."""
    digests, handoff = [], []
    certify = tree_mod._TreeBuilder._certify
    subdivide = tree_mod._TreeBuilder._subdivide_band

    def update(h, *arrays):
        for a in arrays:
            h.update(b"-" if a is None else np.asarray(a, dtype=np.int64).tobytes())

    def traced_certify(self, k, pavement, interior, witness_boxes, settled, up):
        kept = np.zeros(len(pavement), dtype=bool)
        if handoff:
            old, chosen = handoff.pop()
            kept[pavement.find(old.r[~chosen], old.i[~chosen], old.j[~chosen])] = True
        h = hashlib.sha256(str(k).encode())
        update(h, pavement.r, pavement.i, pavement.j, interior, settled,
               np.where(kept, up, -1))
        digests.append(h)
        try:
            built = certify(self, k, pavement, interior, witness_boxes, settled, up)
        except tree_mod._Failure as fail:
            update(h, fail.labels, up)
            h.update(str(fail).encode())
            raise
        update(h, built.labels, built.parent_of[built.labels])
        h.update(repr(built.witness_points).encode())
        return built

    def traced_subdivide(self, pavement, interior, up, pending, targets):
        chosen = subdivide(self, pavement, interior, up, pending, targets)
        update(digests[-1], chosen)
        if chosen is not None:
            handoff.append((pavement, chosen))
        return chosen

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tree_mod._TreeBuilder, "_certify", traced_certify)
        mp.setattr(tree_mod._TreeBuilder, "_subdivide_band", traced_subdivide)
        if not chain:
            mp.setattr(tree_mod._TreeBuilder, "_chain_inside",
                       lambda self, k, rects: np.zeros(len(rects), dtype=bool))
        build_tree(pmap, disk, depth, policy=small_policy())
    return [h.hexdigest() for h in digests]


_ATTEMPT_DIGESTS = {
    "quadratic": [
        "08467ec6897197e169a9ba26ab6cfc6d9102f094aaa035e2d811bf18031b2734",
        "9688d7e7f579643d5478f90739f20b084c19b113a4e11263976b7a15b9f966d7",
        "25dee11479c92b124821136d232ae6680732a9daf0340f083f28bd0e9e32f2f7",
        "4c7651d15c6baeac9fb39e4cd9f90dd29e48154fcaed3378ca9edb873bc64781",
        "8e167889c90a6c38540918fcec3d4617e41ab07be199ad30355ba6f477f494e8",
        "5b1c0759f5293a57e8bfb32f5f899535e0ab10f1426c36d226b3b0bbbbd1ad72",
        "61d2b93ee5f48af3146aec5ba0d01d1f9cba19b53164f23ad8b643ba58841102",
        "451db6d429e132745013d4605e8b0f1ededc5016520e7b88c8ba4fcebebeec5b",
        "8c85075faaa3e64b1d94a7f2e7aa0a0eba84aab43ad56adac91183091264fd7b",
    ],
    "cubic": [
        "c4f02bd559474484e5191ceefa190bae316225543617a35b1f8774520cc289e1",
        "8c412e5033b102b4f6a63878f6417a11b5fd81c4654954146bd2b2e2ff05ce63",
        "e7d914c3c8c4f675a2b33907481a7e3c29b90e27a54454902e0d45df203b3e4b",
        "72fb2a97fc3b62cd96838e7057beb8b2c5a286b394abab12b8720b19642283bf",
        "48e26114064923b85af8ffc3fdbf58c9fbe152d8fb7eff328fcbd3da16446662",
        "38177afad6b011aff84c2b44eb379c7d42aa083a73c472015f3df1a7f75781f9",
    ],
}


@pytest.mark.parametrize("case, depth", [("quadratic", 6), ("cubic", 4)])
def test_attempt_digests_are_pinned(request, case, depth):
    # every attempt keeps its pavement, hand-off, clusters, outcome and
    # split cells.  These depths hold the builds of
    # test_walk_alone_gives_the_chain_witness_points as their first levels,
    # and the failing attempts of test_failure_texts_of_small_builds, whose
    # refine masks are digested too; the walk alone gives the same attempts
    pmap = request.getfixturevalue(f"{case}_map")
    disk = request.getfixturevalue(f"{case}_disk")
    assert _attempt_digests(pmap, disk, depth) == _ATTEMPT_DIGESTS[case]
    assert _attempt_digests(pmap, disk, depth, chain=False) == _ATTEMPT_DIGESTS[case]
