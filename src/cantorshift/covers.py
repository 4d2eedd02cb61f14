"""Dyadic box covers and connected-cluster labeling.

A Frame fixes a square window of the plane whose side is a power of two.
At resolution r the window splits into 2^r x 2^r grid cells addressed by
integer pairs (i, j).  Cell walls are the computed floats
``x0 + i * side * 2^-r``; because ``side * 2^-r`` is an exact float and the
same expression is evaluated everywhere, the cells tile the window exactly
and a child cell at resolution r+delta is always contained in its ancestor
at resolution r.

A PavedCover is a set of such cells of mixed resolutions, sorted by
resolution and indexed by one sorted int64 key per cell (a linear
quadtree).  The sort order makes same-size adjacency a matter of
neighbouring positions and one key search, which is how
``paved_clusters`` finds most edges.  All geometric
claims made from covers are one-sided: a cover is an *outer* enclosure of
the set it tracks, so "certified disjoint" and "certified contained" tests
are the only ones exported.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .intervals import _one_box, boverlap

# the finest cell resolution r: i, j and the grid size 2^r stay exact in int64
MAX_RESOLUTION = 62


class Frame:
    """Square dyadic window; all covers of one analysis share one frame."""

    def __init__(self, x0: float, y0: float, side: float):
        if side <= 0 or math.ldexp(math.frexp(side)[0], 1) != 1.0:
            raise ValueError("frame side must be a positive power of two")
        self.x0 = float(x0)
        self.y0 = float(y0)
        self.side = float(side)

    @classmethod
    def around_disks(cls, disks) -> "Frame":
        """Smallest power-of-two frame certified to contain every disk.

        ``disks`` is an iterable of ((re, im), radius) with exact rational
        entries.  Containment of each disk's bounding square is re-verified
        with exact arithmetic after float rounding.
        """
        disks = [((Fraction(c[0]), Fraction(c[1])), Fraction(r)) for c, r in disks]
        if not disks:
            raise ValueError("need at least one disk")
        lo_x = min(c[0] - r for c, r in disks)
        hi_x = max(c[0] + r for c, r in disks)
        lo_y = min(c[1] - r for c, r in disks)
        hi_y = max(c[1] + r for c, r in disks)
        span = max(hi_x - lo_x, hi_y - lo_y)
        side = 1.0
        while Fraction(side) < span * Fraction(9, 8):
            side *= 2.0
        mid_x = (lo_x + hi_x) / 2
        mid_y = (lo_y + hi_y) / 2
        x0 = float(mid_x) - side / 2.0
        y0 = float(mid_y) - side / 2.0
        # exact containment check; nudge outward if float rounding shaved a side
        for _ in range(4):
            fx0, fy0, fs = Fraction(x0), Fraction(y0), Fraction(side)
            if fx0 <= lo_x and fx0 + fs >= hi_x and fy0 <= lo_y and fy0 + fs >= hi_y:
                return cls(x0, y0, side)
            side *= 2.0
            x0 = float(mid_x) - side / 2.0
            y0 = float(mid_y) - side / 2.0
        raise ValueError("could not fit frame around disks")

    def cell_size(self, resolution: int) -> float:
        return math.ldexp(self.side, -resolution)  # exact power-of-two scaling

    def cell_walls(self, r, i, j):
        """(re_lo, re_hi, im_lo, im_hi): the walls of cells (i[n], j[n]) at
        resolution r[n] (or a common r), or of one cell given as scalars.
        This is the one wall formula; every cell wall is computed by it."""
        s = np.ldexp(self.side, -r)
        return (self.x0 + i * s, self.x0 + (i + 1) * s,
                self.y0 + j * s, self.y0 + (j + 1) * s)

    def grid_span(self, rects, resolution: int):
        """(i_lo, i_hi, j_lo, j_hi): per rectangle of ``rects`` (four arrays
        of walls, each rectangle meeting the window), the index ranges of the
        grid cells at a resolution whose closed bounds meet it.  Walls are
        compared exactly as ``cell_walls`` computes them."""
        s = self.cell_size(resolution)
        n = 1 << resolution
        return (_span(rects[0], rects[1], self.x0, s, n)
                + _span(rects[2], rects[3], self.y0, s, n))

    def __repr__(self):
        return f"Frame(x0={self.x0!r}, y0={self.y0!r}, side={self.side!r})"


def _span(lo, hi, origin, s, n):
    """First and last index i < n whose closed interval
    [origin + i*s, origin + (i+1)*s] meets [lo, hi], elementwise, for
    arrays of bounds with lo <= origin + n*s and hi >= origin."""
    def last_wall(x, below):
        # the last index whose wall is below x (or 0): a guess from the
        # quotient, corrected against the computed walls
        i = np.minimum(np.clip((x - origin) / s, 0, n).astype(np.int64), n - 1)
        while (m := (i < n - 1) & below(origin + (i + 1) * s, x)).any():
            i[m] += 1
        while (m := (i > 0) & ~below(origin + i * s, x)).any():
            i[m] -= 1
        return i

    return last_wall(lo, np.less), last_wall(hi, np.less_equal)


def _ascending(r, i, j):
    """Whether the cells (r[n], i[n], j[n]) ascend strictly in (r, i, j)
    order, which rules out repeats."""
    up = (i[1:] == i[:-1]) & (j[1:] > j[:-1])
    up |= i[1:] > i[:-1]
    up &= r[1:] == r[:-1]
    up |= r[1:] > r[:-1]
    return bool(up.all())


def _rank(sorted_values, q):
    """Position of each q in a sorted array and whether it is present."""
    pos = np.minimum(np.searchsorted(sorted_values, q), len(sorted_values) - 1)
    return pos, sorted_values[pos] == q


class PavedCover:
    """Outer cover made of dyadic cells of mixed resolutions.

    Cells are (resolution, i, j); distinct cells never overlap (a cell and
    its descendant are never both present).  Preimage components of a map
    restricted to a disk live at wildly different scales within one level,
    so pavements are the representation that keeps cell counts proportional
    to geometric complexity rather than to the finest feature present.

    The cells are stored once, as arrays ``r``, ``i``, ``j`` sorted by
    (r, i, j), all int64 as made; a cell's index is its position there.
    Each resolution is a contiguous run, and one sorted int64 array keys
    every cell: the rank of i among its run's distinct i times the number
    of the run's distinct j, plus the rank of j, plus the run's offset, the
    sum of those products over the runs before it.  The key is exact at
    every resolution up to ``MAX_RESOLUTION``, where i and j still fit in
    int64, and its size is bounded by the square of the cell count.  The
    pavement of an accepted level is kept compact (``_compact``): ``r`` as
    int8 and no keys, which ``find`` and ``paved_clusters`` rebuild on
    first use, so only a queried kept pavement holds them.

    ``find`` answers which present cell contains given grid cells, and
    ``overlapping`` which present cells arrays of rectangles possibly meet;
    both read the same sorted runs.  ``tiled`` turns the pairs that
    ``overlapping`` returns into certified containment.
    """

    __slots__ = ("frame", "r", "i", "j", "_layers", "_keys")

    def __init__(self, frame: Frame, r, i, j):
        """The cover of cells (r[n], i[n], j[n]), which must ascend strictly
        in (r, i, j) order, so that none repeats.  Raises ValueError for
        cells out of that order, a resolution outside 0..MAX_RESOLUTION or a
        cell outside its grid."""
        self.frame = frame
        r, i, j = (np.asarray(v, dtype=np.int64) for v in (r, i, j))
        if not _ascending(r, i, j):
            raise ValueError("cells must ascend strictly in (r, i, j) order")
        if len(r) and not 0 <= r[0] <= r[-1] <= MAX_RESOLUTION:
            raise ValueError(f"a cell resolution lies outside 0..{MAX_RESOLUTION}")
        self.r, self.i, self.j = r, i, j
        self._layers = {}  # r -> (start, stop, distinct i, distinct j, key offset)
        offset = 0
        cuts = np.flatnonzero(np.diff(r, prepend=-1, append=-1)).tolist()
        for start, stop in zip(cuts, cuts[1:]):
            res = int(r[start])
            # a run's i ascend, so its distinct i are the heads of equal runs
            xs = i[start:stop][np.append(True, i[start + 1:stop] != i[start:stop - 1])]
            ys = np.sort(j[start:stop])
            ys = ys[np.append(True, ys[1:] != ys[:-1])]
            if min(xs[0], ys[0]) < 0 or max(xs[-1], ys[-1]) >> res:
                raise ValueError(f"a cell at resolution {res} lies outside the grid")
            self._layers[res] = (start, stop, xs, ys, offset)
            offset += len(xs) * len(ys)
        self._keys = None
        self._search_keys()

    def _search_keys(self):
        """The sorted key of every cell, made when the cover is and again on
        the first query after ``_compact`` dropped it."""
        if self._keys is None:
            self._keys = np.empty(len(self.r), dtype=np.int64)
            for start, stop, _, ys, offset in self._layers.values():
                # a run's i ascend, so the rank of an i counts the heads before it
                i = self.i[start:stop]
                ri = np.cumsum(np.append(False, i[1:] != i[:-1]))
                rj = np.searchsorted(ys, self.j[start:stop])
                self._keys[start:stop] = ri * len(ys) + rj + offset
        return self._keys

    def _compact(self):
        """Keep the cells in the form of an accepted level: resolutions as
        int8, which holds 0..MAX_RESOLUTION, and no search keys until a
        query needs them again.  No arithmetic on ``r`` may then overflow
        int8: an int8 array and a Python int combine in int8."""
        self.r = self.r.astype(np.int8)
        self._keys = None

    def __len__(self):
        return len(self.r)

    def cells_at(self, idx):
        """The cells at the given indices, as (r, i, j) tuples."""
        return list(zip(self.r[idx].tolist(), self.i[idx].tolist(), self.j[idx].tolist()))

    @property
    def finest(self) -> int:
        return max(self._layers) if self._layers else 0

    def find(self, r, i, j):
        """Index of the present cell containing grid cell (i[n], j[n]) at
        resolution r[n] (or a common r), or -1; arrays in, array out.
        Present cells finer than the query never contain it.  On a kept
        pavement the first call rebuilds the search keys."""
        r, i, j = np.broadcast_arrays(*(np.asarray(v, dtype=np.int64) for v in (r, i, j)))
        out = np.full(i.shape, -1, dtype=np.int64)
        todo, keys = np.arange(i.size), self._search_keys()
        for rp in sorted(self._layers, reverse=True):
            q = todo[r[todo] >= rp]
            if not q.size:
                continue
            start, stop, xs, ys, offset = self._layers[rp]
            d = r[q] - rp
            pi, hi = _rank(xs, i[q] >> d)
            pj, hj = _rank(ys, j[q] >> d)
            pos, hk = _rank(keys[start:stop], pi * len(ys) + pj + offset)
            out[q] = np.where(hi & hj & hk, start + pos, -1)
            todo = todo[out[todo] < 0]
        return out

    def ancestor_of(self, r, i, j):
        """The present cell containing grid cell (i, j) at resolution r, or
        None; assumes present cells are never finer than the query."""
        idx = self.find(r, [i], [j])
        return self.cells_at(idx)[0] if idx[0] >= 0 else None

    def overlapping(self, rects):
        """Every (rectangle, cell) pair in which the rectangle possibly
        overlaps the present cell (sound: any pair not returned is certified
        disjoint), as two int64 index arrays; each rectangle's cells come in
        ascending order.  ``rects`` is four float arrays of walls, as
        ``Frame.cell_walls`` returns them; one column-strip pass per
        resolution run answers all the rectangles."""
        q = np.flatnonzero(boverlap(rects, self.frame.cell_walls(0, 0, 0)))
        top = self.finest
        a, b, c, e = self.frame.grid_span([v[q] for v in rects], top)
        owners, cells = [q[:0]], [q[:0]]  # empty int64 arrays for an empty pavement
        for r, (start, stop, _, _, _) in self._layers.items():
            d = top - r
            lo, hi = start + np.searchsorted(self.i[start:stop], (a >> d, (b >> d) + 1))
            # the strip of each rectangle's columns: cells lo .. hi - 1
            owner = np.repeat(np.arange(len(q)), hi - lo)
            idx = np.arange(len(owner)) + (hi - np.cumsum(hi - lo))[owner]
            jj = self.j[idx]
            hit = (jj >= (c >> d)[owner]) & (jj <= (e >> d)[owner])
            owners.append(q[owner[hit]])
            cells.append(idx[hit])
        return np.concatenate(owners), np.concatenate(cells)

    def overlapping_cells(self, rect):
        """All present cells one rectangle possibly overlaps, sorted."""
        return self.cells_at(self.overlapping(_one_box(rect))[1])

    def tiled(self, rects, box, cell):
        """The mask of the rectangles of ``rects`` certified inside the union
        of present cells, given the (rectangle, cell) pairs that
        ``overlapping(rects)`` returned: the cells a rectangle hits tile its
        whole block of finest grid cells, and it stays inside the frame.
        Areas are Python ints: a block at resolution 40 holds 2^80 cells."""
        root = self.frame.cell_walls(0, 0, 0)
        inside = ((root[0] <= rects[0]) & (rects[1] <= root[1])
                  & (root[2] <= rects[2]) & (rects[3] <= root[3]))[box]
        box, cell = box[inside], cell[inside]
        top = self.finest
        a, b, c, e = self.frame.grid_span([v[box] for v in rects], top)  # per pair
        d = top - self.r[cell]
        i, j = self.i[cell], self.j[cell]
        w = np.minimum(b, ((i + 1) << d) - 1) - np.maximum(a, i << d) + 1
        h = np.minimum(e, ((j + 1) << d) - 1) - np.maximum(c, j << d) + 1
        area = np.zeros(len(rects[0]), dtype=object)
        np.add.at(area, box, w.astype(object) * h.astype(object))
        out = np.zeros(len(rects[0]), dtype=bool)
        out[box] = area[box] == (b - a + 1).astype(object) * (e - c + 1).astype(object)
        return out


_CHUNK = 1 << 12  # cells whose leftover neighbor slots one ``find`` call resolves


def paved_clusters(frame: Frame, cover: PavedCover, settled=None):
    """Partition the cells of a PavedCover into maximal edge-adjacent
    clusters.

    Two cells are adjacent when their boundaries share a segment of
    positive length.  Corner contact does not connect: an open connected set
    cannot pass through a grid corner whose other two cells were discarded.
    Equivalently: for every cell and each of its four same-size neighbor
    slots, the cover cell containing that slot (the same size or coarser)
    is adjacent; finer neighbors register the pair from their own side, and
    a same-size pair is kept from its +i/+j side only.

    The sorted runs of the cover answer the same-size slots with at most
    one search (a linear quadtree: Gargantini, CACM 25, 1982).  In
    (r, i, j) order the cell (r, i, j +- 1), if present, is the next or
    previous cell.  The cell (r, i +- 1, j), if present, has the key of the
    cell at the same rank of j one distinct column over: one
    ``searchsorted`` in the keys.  A slot holds a same-size cell exactly
    when the cell so placed is that slot, which rules out a column wrap
    and a gap between distinct columns.  Only the slots with no same-size
    cell, which hold a coarser cell or none, go to
    ``PavedCover.find``, one call per fixed chunk of cells.  Only the edges
    found are kept, as int32 pairs (fewer than 2^31 cells), so memory stays
    a few dozen bytes per cell.

    ``settled``, aligned with the cover, names clusters known in advance:
    cells with the same id >= 0 form one group, and -1 (every cell, when
    None) marks a cell to be joined by its neighbor slots.  Each group must
    be a whole cluster: edge-connected, and adjacent to no cell outside it.
    A group is then joined without looking at any of its slots, and every
    edge found joins two unsettled cells, so the hooks and jumps of
    ``_components`` run over those cells alone.

    ``frame`` is not read: the cover carries its own.  A kept pavement
    (int8 resolutions, keys dropped) gets its keys rebuilt first and is
    clustered as the int64 cover of its cells.  Returns the cluster
    index of each cell as an int64 array aligned with the cover, clusters
    numbered in canonical order by their least fine-grid lower-left corner,
    which is found a chunk of cells at a time.
    """
    n = len(cover)
    if settled is None:
        settled = np.full(n, -1)
    # each settled group starts as one tree rooted at its least cell
    grouped = np.flatnonzero(settled >= 0).astype(np.int32)
    ids = settled[grouped]
    if ids.max(initial=-1) >= n:
        # renumber ids past the cover's length, so the table is at most n long
        ids = np.unique(ids, return_inverse=True)[1]
    least = np.full(int(ids.max(initial=-1)) + 1, n, dtype=np.int32)
    np.minimum.at(least, ids, grouped)
    root = np.arange(n, dtype=np.int32)
    root[grouped] = least[ids]
    del grouped, ids
    todo = np.flatnonzero(settled < 0).astype(np.int32)
    # per run, its first cell and its number of distinct j
    layers, keys = cover._layers.values(), cover._search_keys()
    starts = np.array([start for start, *_ in layers], dtype=np.int64)
    widths = np.array([len(ys) for _, _, _, ys, _ in layers], dtype=np.int64)
    u, v = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for first in range(0, len(todo), _CHUNK):
        src = todo[first:first + _CHUNK]
        r, i, j, key = cover.r[src], cover.i[src], cover.j[src], keys[src]
        width = widths[np.searchsorted(starts, src, side="right") - 1]
        slots = []
        for di, dj in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            # where the same-size neighbor would be: the next or previous
            # cell for +-j, the same rank of j a distinct column over for +-i
            nbr = np.clip(src + dj if dj else np.searchsorted(keys, key + di * width),
                          0, n - 1)
            same = (cover.r[nbr] == r) & (cover.i[nbr] == i + di) & (cover.j[nbr] == j + dj)
            if di + dj > 0:
                u.append(src[same])
                v.append(nbr[same].astype(np.int32))
            ni, nj = i + di, j + dj
            free = ~same & (ni >= 0) & (nj >= 0) & (ni >> r == 0) & (nj >> r == 0)
            slots.append((src[free], r[free], ni[free], nj[free]))
        # a slot with no same-size cell holds a coarser one, or none
        src, r, ni, nj = (np.concatenate(c) for c in zip(*slots))
        nbr = cover.find(r, ni, nj)
        hit = nbr >= 0
        u.append(src[hit])
        v.append(nbr[hit].astype(np.int32))
    # every edge joins two unsettled cells, as a settled group is a whole
    # cluster; their components are found over those m cells alone,
    # numbered 0..m-1 in cover order, so a least cell stays a least cell
    u = np.concatenate(u)
    v = np.concatenate(v)
    m = len(todo)
    if m < n:
        local = np.empty(n, dtype=np.int32)
        local[todo] = np.arange(m, dtype=np.int32)
        u = local[u]
        v = local[v]
        del local
    root[todo] = todo[_components(u, v, np.arange(m, dtype=np.int32))]
    del u, v
    # number clusters by their least fine-grid lower-left corner, the least
    # in (x, y) order over their cells; distinct non-overlapping cells never
    # share that corner.  Corners are taken a chunk of cells at a time, so
    # only the cluster of each cell spans the cover
    roots = np.flatnonzero(root == np.arange(n, dtype=np.int32)).astype(np.int32)
    cluster = np.searchsorted(roots, root)
    del root

    def corners():
        for s in range(0, n, _CHUNK):
            d = cover.finest - cover.r[s:s + _CHUNK]
            yield cluster[s:s + _CHUNK], cover.i[s:s + _CHUNK] << d, cover.j[s:s + _CHUNK] << d

    least_x, least_y = np.full((2, len(roots)), np.iinfo(np.int64).max)
    for c, x, _ in corners():
        np.minimum.at(least_x, c, x)
    for c, x, y in corners():
        at = x == least_x[c]
        np.minimum.at(least_y, c[at], y[at])
    rank = np.empty(len(roots), dtype=np.int64)
    rank[np.lexsort((least_y, least_x))] = np.arange(len(roots))
    return rank[cluster]


def _components(u, v, root):
    """The least node of each node's component in the graph on the nodes
    of ``root`` with edges (u, v), starting from the identity ``root``
    (every node its own tree): each round hooks every root onto the least
    root adjacent to its tree, then jumps pointers until all point at roots
    (Shiloach and Vishkin, J. Algorithms 3, 1982).  In the first round the
    ends of each edge are their own roots, so it hooks on ``u`` and ``v``
    themselves.  Each later round keeps only the edges still between two
    trees, found a chunk of edges at a time, so that only those edges' ends
    and roots are copied whole."""
    ru, rv = u, v
    while len(u):
        # each edge offers each end's root the other's, which lowers only the
        # greater root (a root is the least node of its tree); an edge inside
        # a tree offers its root itself, a no-op
        np.minimum.at(root, ru, rv)
        np.minimum.at(root, rv, ru)
        del ru, rv
        while not np.array_equal(nxt := root[root], root):
            root = nxt
        cross = np.empty(len(u), dtype=bool)
        for s in range(0, len(u), _CHUNK):
            np.not_equal(root[u[s:s + _CHUNK]], root[v[s:s + _CHUNK]], out=cross[s:s + _CHUNK])
        if not cross.all():
            u, v = u[cross], v[cross]
        del cross
        ru, rv = root[u], root[v]
    return root
