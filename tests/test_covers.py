"""Dyadic covers: frames, clustering, pavement queries."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorshift import Frame, PavedCover, paved_clusters
from cantorshift.covers import _ascending, _components

from conftest import assert_same_answers, paved


def frame16():
    return Frame(-8.0, -8.0, 16.0)


def _clusters(fr, cells):
    """``paved_clusters`` read back as the sorted cell list of each
    cluster, in label order."""
    cover = paved(fr, cells)
    labels = paved_clusters(fr, cover)
    assert labels.dtype == np.int64 and labels.shape == (len(cover),)
    return [cover.cells_at(np.flatnonzero(labels == c))
            for c in range(labels.max(initial=-1) + 1)]


def _tiled(pc, rect):
    """``PavedCover.tiled`` of one rectangle."""
    rects = [np.array([v]) for v in rect]
    return bool(pc.tiled(rects, *pc.overlapping(rects))[0])


# pairs of cells past resolution 32 that are not adjacent: 2^32 rows apart,
# and 256 columns apart with j past 2^32
DEEP_PAIRS = [
    [(33, 0, 2**32 - 1), (33, 1, 0)],
    [(44, 3, 2**40), (44, 259, 2**40 - 1)],
]
# pairs of adjacent cells past resolution 32: across a j wall at 2^32, and
# fine cells beside coarse ones with i or j past 2^35
DEEP_ADJACENT = [
    [(33, 0, 2**32 - 1), (33, 0, 2**32)],
    [(44, 3, 2**40), (43, 1, 2**39 - 1)],
    [(44, 2**40, 3), (40, 2**36 - 1, 0)],
]


def test_frame_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        Frame(0.0, 0.0, 10.0)


def test_frame_around_disks_contains_them():
    fr = Frame.around_disks([(("0", "0"), "4"), (("1", "0"), "7")])
    assert fr.x0 <= -7.0 and fr.x0 + fr.side >= 8.0
    assert fr.y0 <= -7.0 and fr.y0 + fr.side >= 7.0


def test_cells_tile_exactly():
    fr = frame16()
    # shared walls: the upper bound of cell i equals the lower bound of i+1
    for r in (1, 3, 7):
        for i in (0, 1, 5):
            a = fr.cell_walls(r, i, 0)
            b = fr.cell_walls(r, i + 1, 0)
            assert a[1] == b[0]
    # children tile the parent exactly
    p = fr.cell_walls(4, 3, 2)
    kids = [fr.cell_walls(5, 6, 4), fr.cell_walls(5, 7, 5)]
    assert kids[0][0] == p[0] and kids[1][1] == p[1]
    assert kids[0][2] == p[2] and kids[1][3] == p[3]


def test_corner_contact_is_not_adjacent():
    cells = [(3, 1, 1), (3, 2, 2)]
    clusters = _clusters(frame16(), cells)
    assert len(clusters) == 2
    assert clusters == _naive_clusters(frame16(), cells)


def test_block_is_one_cluster():
    cells = [(3, 1, 1), (3, 2, 1), (3, 1, 2), (3, 2, 2)]
    clusters = _clusters(frame16(), cells)
    assert len(clusters) == 1
    assert clusters == _naive_clusters(frame16(), cells)


def test_cluster_order_and_shuffle_determinism():
    cells = [(4, 5, 5), (4, 6, 5), (4, 1, 7), (4, 1, 6), (4, 3, 1)]
    fr = frame16()
    ref = _clusters(fr, cells)
    assert ref == _naive_clusters(fr, cells)
    ref_labels = paved_clusters(fr, paved(fr, cells))
    rng = random.Random(0)
    for _ in range(5):
        rng.shuffle(cells)
        assert np.array_equal(paved_clusters(fr, paved(fr, cells)), ref_labels)
        assert _clusters(fr, cells) == ref
    # canonical order: by (min i, then min j)
    mins = [(min(i for _, i, _ in c), min(j for _, _, j in c)) for c in ref]
    assert mins == sorted(mins)


def test_paved_corner_contact_not_adjacent():
    fr = frame16()
    assert _clusters(fr, [(3, 1, 1), (3, 2, 2)]) == [[(3, 1, 1)], [(3, 2, 2)]]


def test_paved_mixed_resolution_adjacency():
    fr = frame16()
    # a fine cell sharing an edge with a coarse one joins it; a distant cell
    # stays separate
    clusters = _clusters(fr, [(3, 1, 1), (4, 4, 2), (3, 5, 5)])
    assert len(clusters) == 2
    assert clusters[0] == [(3, 1, 1), (4, 4, 2)]


def test_paved_fine_coarse_corner_only():
    fr = frame16()
    # fine cell (4, 4, 4) touches coarse (3, 1, 1) only at the corner (4, 4)
    clusters = _clusters(fr, [(3, 1, 1), (4, 4, 4)])
    assert clusters == [[(3, 1, 1)], [(4, 4, 4)]]


def test_paved_cover_queries():
    fr = frame16()
    pc = paved(fr, [(3, 1, 1), (4, 4, 2), (5, 20, 20)])
    assert len(pc) == 3
    assert pc.finest == 5
    assert pc.ancestor_of(5, 5, 5) == (3, 1, 1)      # (5,5,5) descends from (3,1,1)
    assert pc.ancestor_of(4, 4, 2) == (4, 4, 2)
    assert pc.ancestor_of(5, 31, 31) is None
    # closed rects touching a cell wall also touch the neighbor, so shrink
    # strictly inside for containment queries
    x0, x1, y0, y1 = fr.cell_walls(3, 1, 1)
    rect = (x0 + 0.01, x1 - 0.01, y0 + 0.01, y1 - 0.01)
    assert _tiled(pc, rect)
    x0, x1, y0, y1 = fr.cell_walls(5, 20, 20)
    inner = (x0 + 0.001, x1 - 0.001, y0 + 0.001, y1 - 0.001)
    assert _tiled(pc, inner)
    outside = fr.cell_walls(3, 7, 7)
    assert not _tiled(pc, outside)
    assert pc.overlapping_cells(outside) == []
    assert pc.overlapping_cells(rect) == [(3, 1, 1)]
    full = fr.cell_walls(3, 1, 1)
    assert set(pc.overlapping_cells(full)) >= {(3, 1, 1), (4, 4, 2)}


def test_tiling_is_exact_beyond_int64():
    # at finest resolution 40 the frame's block holds 2^80 grid cells: a
    # float64 area cannot tell 2^80 - 1 from 2^80, and an int64 one, exact
    # only modulo 2^64, misses a hole of 2^64 grid cells
    fr = Frame(0.0, 0.0, 1.0)
    rings = [(r, a, b) for r in range(1, 41) for a, b in ((1, 0), (0, 1), (1, 1))]
    pc = paved(fr, [(40, 0, 0)] + rings)
    assert len(pc) == 121
    assert _tiled(pc, fr.cell_walls(0, 0, 0))
    assert _tiled(pc, fr.cell_walls(1, 0, 0))
    assert not _tiled(paved(fr, rings), fr.cell_walls(0, 0, 0))
    holed = [(40, 0, 0)] + [c for c in rings if c != (8, 1, 1)]
    assert not _tiled(paved(fr, holed), fr.cell_walls(0, 0, 0))


@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=30))
@settings(max_examples=60)
def test_uniform_and_paved_clustering_agree(cells):
    fr = frame16()
    uniform = [(3, i, j) for i, j in cells]
    assert _clusters(fr, uniform) == _naive_clusters(fr, uniform)


def _random_pavement(rng, max_depth=4):
    """A pavement built by random quadtree subdivision with random pruning:
    cells are pairwise non-overlapping by construction."""
    cells = []
    stack = [(1, i, j) for i in range(2) for j in range(2)]
    while stack:
        r, i, j = stack.pop()
        roll = rng.random()
        if roll < 0.35 and r < max_depth:
            stack.extend(((r + 1, 2 * i, 2 * j), (r + 1, 2 * i + 1, 2 * j),
                          (r + 1, 2 * i, 2 * j + 1), (r + 1, 2 * i + 1, 2 * j + 1)))
        elif roll < 0.8:
            cells.append((r, i, j))
    return cells


def test_grid_span_matches_a_scan_of_the_walls():
    # every wall at resolution <= 10 is compared as cell_walls computes it
    fr = frame16()
    rng = random.Random(99)
    for r in range(11):
        n = 1 << r
        walls = [fr.cell_walls(r, i, 0)[0] for i in range(n)] + [fr.cell_walls(r, n - 1, 0)[1]]
        picks = [rng.choice(walls) for _ in range(20)] + [rng.uniform(-8, 8) for _ in range(20)]
        lo = np.array(picks + [-np.inf, -8.0, 8.0])
        hi = np.maximum(lo, np.array([rng.choice((x, x + 1e-3, x + rng.uniform(0, 16)))
                                      for x in picks] + [-8.0, np.inf, 8.0]))
        first, last, first_y, last_y = fr.grid_span((lo, hi, lo, hi), r)
        assert np.array_equal(first, first_y) and np.array_equal(last, last_y)
        for a, b, f, g in zip(lo, hi, first.tolist(), last.tolist()):
            meets = [i for i in range(n) if walls[i] <= b and a <= walls[i + 1]]
            assert (f, g) == (meets[0], meets[-1])


def test_grid_span_corrects_a_quotient_guess_upward():
    # a frame origin that is not dyadic at the cell size rounds the walls at
    # r = 57, so that runs of them repeat, and the quotient guess falls two
    # walls short of the wall x.  Per side, grid_span gives the last index
    # whose computed wall lies below x (or at x, for the upper side), found
    # here by stepping through the walls near x
    fr = Frame(-0.6837792684158389, -0.6837792684158389, 2.0)
    r, x = 57, -0.20699828516053928
    guess = int((x - fr.x0) / fr.cell_size(r))

    def last(below):
        near = range(guess - 8, guess + 9)
        hits = [i for i in near if below(fr.cell_walls(r, i, 0)[0], x)]
        assert hits[0] == near[0] and hits[-1] < near[-1]  # x lies inside the window
        return hits[-1]

    want = [last(np.less), last(np.less_equal)]
    assert (guess, want) == (34355690536414496, [34355690536414498] * 2)
    v = np.array([x])
    i_lo, i_hi, j_lo, j_hi = fr.grid_span((v, v, v, v), r)
    assert [i_lo.tolist(), i_hi.tolist()] == [j_lo.tolist(), j_hi.tolist()] == [[w] for w in want]


def _naive_overlaps(fr, cells, rect):
    from cantorshift.intervals import boverlap
    return sorted(c for c in cells
                  if boverlap(rect, fr.cell_walls(*c)))


def _naive_covers(fr, cells, rect, samples=7):
    # rect covered iff every sample point lies in some cell (necessary
    # condition only, used to cross-check certified True answers)
    from cantorshift.intervals import boverlap
    for a in range(samples):
        for b in range(samples):
            x = rect[0] + (rect[1] - rect[0]) * a / (samples - 1)
            y = rect[2] + (rect[3] - rect[2]) * b / (samples - 1)
            if not any(fr.cell_walls(*c)[0] <= x
                       <= fr.cell_walls(*c)[1]
                       and fr.cell_walls(*c)[2] <= y
                       <= fr.cell_walls(*c)[3] for c in cells):
                return False
    return True


def _naive_ancestor(cells, r, i, j):
    while r >= 0:
        if (r, i, j) in cells:
            return (r, i, j)
        r, i, j = r - 1, i >> 1, j >> 1
    return None


def _naive_clusters(fr, cells):
    """Reference clustering: pairwise edge-overlap tests + union-find."""
    cells = sorted(set(cells))
    R = max(r for r, _, _ in cells)
    spans = []
    for r, i, j in cells:
        f = 1 << (R - r)
        spans.append((i * f, (i + 1) * f, j * f, (j + 1) * f))
    parent = list(range(len(cells)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(len(cells)):
        for b in range(a + 1, len(cells)):
            (ax0, ax1, ay0, ay1), (bx0, bx1, by0, by1) = spans[a], spans[b]
            touch_x = ax1 == bx0 or bx1 == ax0
            touch_y = ay1 == by0 or by1 == ay0
            overlap_y = min(ay1, by1) > max(ay0, by0)
            overlap_x = min(ax1, bx1) > max(ax0, bx0)
            if (touch_x and overlap_y) or (touch_y and overlap_x):
                parent[find(a)] = find(b)
    groups = {}
    for idx in range(len(cells)):
        groups.setdefault(find(idx), []).append(cells[idx])
    out = [sorted(g) for g in groups.values()]
    keyed = []
    for g in out:
        key = min((i * (1 << (R - r)), j * (1 << (R - r))) for r, i, j in g)
        keyed.append((key, g))
    keyed.sort(key=lambda t: t[0])
    return [g for _, g in keyed]


def test_paved_clusters_match_naive():
    import random
    fr = frame16()
    rng, settle = random.Random(404), random.Random(405)
    for _ in range(60):
        cells = _random_pavement(rng)
        if not cells:
            continue
        assert _clusters(fr, cells) == _naive_clusters(fr, cells)
        _check_settled_groups(fr, cells, settle)
    for cells in DEEP_PAIRS + DEEP_ADJACENT:
        clusters = _clusters(fr, cells)
        assert clusters == _naive_clusters(fr, cells)
        assert len(clusters) == (2 if cells in DEEP_PAIRS else 1)


def _serpentine(r):
    """A one-cell-wide path up every other column of the 2^r grid and
    down the next, joined by single cells alternately at top and bottom."""
    n = 1 << r
    cells = [(r, i, j) for i in range(0, n, 2) for j in range(n - 1)]
    return cells + [(r, i, n - 2 if i % 4 == 1 else 0) for i in range(1, n - 1, 2)]


@pytest.mark.parametrize("cells, n_clusters", [
    (_serpentine(5), 1),
    # the serpentine with each odd connector split into two finer cells
    ([c for c in _serpentine(4) if c[1] % 2 == 0]
     + [(5, 2 * i + di, 2 * j) for _, i, j in _serpentine(4) if i % 2 for di in (0, 1)], 1),
    ([(4, i, j) for i in range(16) for j in range(16) if (i + j) % 2 == 0], 128),
    # fine cells whose only neighbor is coarser, on their -i or -j side
    ([(3, 2, 2), (4, 6, 4)], 1),
    ([(3, 2, 2), (4, 4, 6)], 1),
    ([(3, 2, 2), (6, 24, 16), (6, 16, 24), (5, 12, 9), (4, 5, 6)], 1),
    # ... or on their +i or +j side
    ([(3, 2, 2), (4, 3, 4)], 1),
    ([(3, 2, 2), (4, 4, 3)], 1),
    ([(0, 0, 0)], 1),
    ([(5, 31, 31)], 1),
    # two columns of a run: (3, 2, 7) is next to (3, 3, 0) in sort order,
    # and (5, 3, 31) to (5, 4, 0), but neither pair is adjacent
    ([(3, 2, 6), (3, 2, 7), (3, 3, 0), (3, 3, 1), (5, 3, 30), (5, 3, 31), (5, 4, 0)], 4),
    # gap columns: the next distinct column after i is not i + 1, yet it
    # holds a cell at the same j
    ([(3, 1, 4), (3, 1, 5), (3, 3, 4), (3, 4, 4), (3, 6, 5), (4, 15, 0), (4, 13, 0)], 5),
], ids=["serpentine", "serpentine-mixed", "checkerboard", "coarse-minus-i",
        "coarse-minus-j", "coarse-both", "coarse-plus-i", "coarse-plus-j", "whole-frame",
        "corner-cell", "column-wrap", "gap-column"])
def test_paved_clusters_of_hard_shapes(cells, n_clusters):
    fr = frame16()
    clusters = _clusters(fr, cells)
    assert clusters == _naive_clusters(fr, cells)
    assert len(clusters) == n_clusters
    _check_settled_groups(fr, cells, random.Random(n_clusters))


def _check_settled_groups(fr, cells, rng):
    """Mark whole clusters as settled, none, a random half (twice) or all,
    under permuted ids: the labels must equal the reference clustering and
    the call with none settled."""
    cover = paved(fr, cells)
    clusters = _naive_clusters(fr, cells)
    plain = paved_clusters(fr, cover)
    assert np.array_equal(plain, paved_clusters(fr, cover, np.full(len(cover), -1)))
    for share in (0.0, 0.5, 0.5, 1.0):
        ids = rng.sample(range(3 * len(clusters)), len(clusters))
        settled = np.full(len(cover), -1)
        for cluster, cid in zip(clusters, ids):
            if rng.random() < share:
                settled[cover.find(*np.array(cluster).T)] = cid
        labels = paved_clusters(fr, cover, settled)
        assert np.array_equal(labels, plain)
        assert [cover.cells_at(np.flatnonzero(labels == c))
                for c in range(len(clusters))] == clusters


def _least_members(n, edges):
    """Reference for ``_components``: union-find, then each node's least
    component member."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(a) for a in range(n)]


def test_components_match_union_find():
    # a path whose node numbers are bit-reversed along it has local minima
    # at every scale: hooking onto the least root takes one round per bit
    k = 10
    path = np.array([int(format(p, f"0{k}b")[::-1], 2) for p in range(1 << k)], np.int32)
    assert np.array_equal(_components(path[:-1], path[1:], np.arange(1 << k, dtype=np.int32)),
                          np.zeros(1 << k))
    # a graph whose labels go stale without full pointer jumping, then
    # random multigraphs with loops and isolated nodes
    graphs = [(9, [(1, 6), (3, 7), (5, 2), (1, 3), (1, 6), (4, 8), (4, 5), (5, 6), (7, 5)])]
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 12)
        graphs.append((n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 14))]))
    for n, edges in graphs:
        u, v = (np.array([e[c] for e in edges], np.int32) for c in (0, 1))
        root = np.arange(n, dtype=np.int32)
        assert _components(u, v, root).tolist() == _least_members(n, edges), edges


def test_paved_clusters_memory_is_bounded():
    # a mixed pavement of 125,056 cells: a 512 x 256 grid at resolution 9,
    # cut into strips by empty columns, with a corner at resolution 7 and a
    # block at 10 that each join several strips, leaving nine clusters
    import tracemalloc
    i, j = (a.ravel() for a in np.meshgrid(np.arange(512), np.arange(256), indexing="ij"))
    keep = (i % 37 != 0) & ~((i < 128) & (j < 128)) & ~((i >= 256) & (i < 320) & (j < 64))
    fine = np.arange(128 * 128)
    cells = np.concatenate([
        np.stack((np.full(keep.sum(), 9), i[keep], j[keep]), axis=1),
        [(7, a, b) for a in range(32) for b in range(32)],
        np.stack((np.full(len(fine), 10), 512 + fine // 128, fine % 128), axis=1),
    ])
    cover = paved(frame16(), cells)
    assert len(cover) >= 100_000
    tracemalloc.start()
    try:
        labels = paved_clusters(frame16(), cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert labels.max() == 8
    assert peak < 120 * len(cover), peak / len(cover)


def test_ascending_cells_are_taken_as_they_come():
    # a cover takes its cells as they come, strictly ascending in (r, i, j),
    # and refuses any other order or a repeat
    rng = random.Random(7)
    fr = frame16()
    outcomes = set()
    for _ in range(500):
        cells = [(r, rng.randrange(1 << r), rng.randrange(1 << r))
                 for r in (rng.randint(0, 2) for _ in range(rng.randint(0, 6)))]
        columns = np.array(cells, dtype=np.int64).reshape(-1, 3).T
        ascending = all(a < b for a, b in zip(cells, cells[1:]))
        assert _ascending(*columns) == ascending
        outcomes.add((ascending, len(set(cells)) < len(cells)))
        if not ascending:
            with pytest.raises(ValueError, match=r"^cells must ascend strictly in \(r, i, j\) order$"):
                PavedCover(fr, *columns)
            continue
        cover = PavedCover(fr, *columns)
        assert cover.cells_at(np.arange(len(cover))) == cells
    # ascending cells never repeat; the refused lists include repeats
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_paved_clusters_of_no_cells():
    labels = paved_clusters(frame16(), paved(frame16(), []))
    assert labels.dtype == np.int64 and labels.shape == (0,)


def test_settled_ids_far_past_the_cover_length():
    # settled ids are any integers >= 0: sparse ids far past the cover's
    # length name the same groups as small ones, and need no table that long
    fr = frame16()
    cover = paved(fr, [(4, i, j) for i in range(16) for j in range(16) if (i + j) % 2 == 0])
    plain = paved_clusters(fr, cover)
    settled = np.where(plain % 3 == 0, plain, -1)
    for ids in (settled, np.where(settled >= 0, settled * 2**50 + 2**60, -1)):
        assert np.array_equal(paved_clusters(fr, cover, ids), plain)


def test_cells_past_the_exact_key_limit_are_rejected():
    # at resolution 63, 1 << r wraps in int64: two edge-adjacent cells would
    # be labeled apart, so such covers are refused
    fr = Frame(0.0, 0.0, 1.0)
    assert paved_clusters(fr, paved(fr, [(62, 5, 5), (62, 6, 5)])).tolist() == [0, 0]
    for cells in ([(63, 5, 5), (63, 6, 5)], [(-1, 0, 0)]):
        with pytest.raises(ValueError, match="outside 0..62"):
            paved(fr, cells)
    for cell in ((3, 8, 0), (3, 0, 8), (3, -1, 2), (62, 2**62, 0), (0, 0, 1)):
        with pytest.raises(ValueError, match="outside the"):
            paved(fr, [(3, 1, 1), cell])
    assert len(paved(fr, [(62, 2**62 - 1, 0), (0, 0, 0)])) == 2


def _fine_pavement():
    """Cells at resolutions 1 to 62 in three clusters.  Around each of two
    points, at each resolution 57..61 the three children of a cell that do
    not hold the point, and all four at 62, so that the cells tile a
    resolution-56 cell; one point is the grid's last cell.  Two coarse
    cells, edge-adjacent, form the third cluster."""
    cells = [(1, 0, 0), (2, 2, 0)]
    for x, y in ((2**62 - 1, 2**62 - 1), (3 * 2**60 + 12345, 2**61 + 678)):
        for r in range(57, 63):
            pi, pj = x >> (62 - r), y >> (62 - r)
            cells += [(r, ci, cj) for ci in (pi & ~1, pi | 1) for cj in (pj & ~1, pj | 1)
                      if r == 62 or (ci, cj) != (pi, pj)]
    return cells


def test_kept_form_answers_at_the_finest_resolutions():
    # a compacted cover holds int8 resolutions and no search keys.  At
    # resolutions 57 to 62, where a wrapped int8 would show, its first query
    # rebuilds the keys, and it answers as the int64 cover of its cells
    fr = Frame(-0.6837792684158389, -0.6837792684158389, 2.0)
    kept, fresh = paved(fr, _fine_pavement()), paved(fr, _fine_pavement())
    kept._compact()
    assert kept.r.dtype == np.int8 and kept._keys is None and fresh.r.dtype == np.int64
    labels = assert_same_answers(kept, fresh, np.random.default_rng(62))
    assert sorted(np.bincount(labels).tolist()) == [2, 19, 19]


def test_pavement_queries_match_naive():
    import random
    fr = frame16()
    rng = random.Random(20260808)
    for trial in range(40):
        cells = _random_pavement(rng)
        if not cells:
            continue
        # shuffled columns with repeated cells are refused; the cover takes
        # the sorted cells as they come
        rows = cells + [rng.choice(cells) for _ in range(rng.randint(1, len(cells)))]
        rng.shuffle(rows)
        with pytest.raises(ValueError, match="ascend strictly"):
            PavedCover(fr, *(np.array(column) for column in zip(*rows)))
        pc = paved(fr, cells)
        assert pc.cells_at(np.arange(len(pc))) == sorted(cells)
        # containing cells of finer, same-size, neighbor and coarser queries
        queries = [q for r, i, j in cells for q in (
            (r + 2, 4 * i + 1, 4 * j + 3), (r, i, j), (r, i + 1, j), (r, i, j - 1),
            (r - 1, i >> 1, j >> 1))]
        found = pc.find(*np.array(queries).T)
        assert [pc.cells_at([f])[0] if f >= 0 else None for f in found.tolist()] == [
            _naive_ancestor(cells, *q) for q in queries]
        rects = []
        for _ in range(12):
            cx = rng.uniform(-9, 9)
            cy = rng.uniform(-9, 9)
            w = rng.uniform(0.01, 4.0)
            rect = (cx, cx + w, cy, cy + w)
            rects.append(rect)
            naive = _naive_overlaps(fr, cells, rect)
            assert pc.overlapping_cells(rect) == naive
            if _tiled(pc, rect):
                # certified containment implies every sampled point is inside
                assert _naive_covers(fr, cells, rect)
        # on cell walls, of zero width, unbounded, outside and across the frame
        r, i, j = rng.choice(cells)
        x0, x1, y0, y1 = fr.cell_walls(r, i, j)
        rects += [(x0, x1, y0, y1), (x1, x1, y0, y1), (x0, x0, y1, y1),
                  (-np.inf, x0, y0, y0), (x1, np.inf, -np.inf, np.inf),
                  (-20.0, -9.0, 0.0, 1.0), (9.0, 9.5, -1.0, 1.0), (-9.0, 0.0, 7.0, 9.0)]
        batch = [np.array(v) for v in zip(*rects)]
        box, cell = pc.overlapping(batch)
        for q, rect in enumerate(rects):
            assert pc.cells_at(cell[box == q]) == _naive_overlaps(fr, cells, rect)
        # the batch answers each rectangle as a query of its own does
        assert pc.tiled(batch, box, cell).tolist() == [_tiled(pc, rect) for rect in rects]
    for cells in DEEP_PAIRS:
        pc = paved(fr, cells)
        (ra, ia, ja), (rb, ib, jb) = cells
        a, b = fr.cell_walls(ra, ia, ja), fr.cell_walls(rb, ib, jb)
        span = (min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3]))
        assert pc.overlapping_cells(span) == _naive_overlaps(fr, cells, span) == cells
        assert not _tiled(pc, span)
        for r, i, j in cells:
            x0, x1, y0, y1 = fr.cell_walls(r, i, j)
            q = (x1 - x0) / 4
            inner = (x0 + q, x1 - q, y0 + q, y1 - q)
            assert pc.overlapping_cells(inner) == _naive_overlaps(fr, cells, inner)
            assert _tiled(pc, inner) and _naive_covers(fr, cells, inner)
            assert not _tiled(pc, (x0, x1, y0, y1))  # walls touch absent cells
            for qr, qi, qj in ((r + 6, (i << 6) + 5, (j << 6) + 63), (r, i + 1, j),
                               (r, i, j + 1), (r - 1, i >> 1, j >> 1)):
                assert pc.ancestor_of(qr, qi, qj) == _naive_ancestor(cells, qr, qi, qj)
