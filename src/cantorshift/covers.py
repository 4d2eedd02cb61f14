"""Dyadic box covers and connected-cluster labeling.

A Frame fixes a square window of the plane whose side is a power of two.
At resolution r the window splits into 2^r x 2^r grid cells addressed by
integer pairs (i, j).  Cell walls are the computed floats
``x0 + i * side * 2^-r``; because ``side * 2^-r`` is an exact float and the
same expression is evaluated everywhere, the cells tile the window exactly
and a child cell at resolution r+delta is always contained in its ancestor
at resolution r.

A PavedCover is a set of such cells of mixed resolutions.  All geometric
claims made from covers are one-sided: a cover is an *outer* enclosure of
the set it tracks, so "certified disjoint" and "certified contained" tests
are the only ones exported.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .intervals import boverlap


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

    def cell_bounds(self, i: int, j: int, resolution: int):
        """(re_lo, re_hi, im_lo, im_hi) of cell (i, j); exact tiling floats."""
        s = math.ldexp(self.side, -resolution)
        return (self.x0 + i * s, self.x0 + (i + 1) * s,
                self.y0 + j * s, self.y0 + (j + 1) * s)

    def __eq__(self, other):
        return (isinstance(other, Frame) and self.x0 == other.x0
                and self.y0 == other.y0 and self.side == other.side)

    def __repr__(self):
        return f"Frame(x0={self.x0!r}, y0={self.y0!r}, side={self.side!r})"


class PavedCover:
    """Outer cover made of dyadic cells of mixed resolutions.

    Cells are (resolution, i, j); distinct cells never overlap (a cell and
    its descendant are never both present).  Preimage components of a map
    restricted to a disk live at wildly different scales within one level,
    so pavements are the representation that keeps cell counts proportional
    to geometric complexity rather than to the finest feature present.

    Queries run by quadtree descent over ancestor markers, so their cost is
    proportional to the output, not to the pavement size.
    """

    __slots__ = ("frame", "layers", "_count", "_cells", "_markers")

    def __init__(self, frame: Frame, cells):
        self.frame = frame
        layers = {}
        cellset = set()
        for c in cells:
            r, i, j = c
            layers.setdefault(r, set()).add((i, j))
            cellset.add((r, i, j))
        self.layers = {r: frozenset(s) for r, s in sorted(layers.items())}
        self._count = len(cellset)
        self._cells = frozenset(cellset)
        markers = set()
        for r, i, j in cellset:
            while r > 0:
                r, i, j = r - 1, i >> 1, j >> 1
                node = (r, i, j)
                if node in markers:
                    break
                markers.add(node)
        self._markers = frozenset(markers)

    def __len__(self):
        return self._count

    def __contains__(self, cell):
        return cell in self._cells

    def iter_cells(self):
        for r, cells in self.layers.items():
            for i, j in sorted(cells):
                yield (r, i, j)

    @property
    def finest(self) -> int:
        return max(self.layers) if self.layers else 0

    def bounding_rect(self):
        if not self._cells:
            return None
        b = self.frame.cell_bounds
        lo_x = lo_y = math.inf
        hi_x = hi_y = -math.inf
        for r, cells in self.layers.items():
            for i, j in cells:
                q = b(i, j, r)
                lo_x = min(lo_x, q[0])
                hi_x = max(hi_x, q[1])
                lo_y = min(lo_y, q[2])
                hi_y = max(hi_y, q[3])
        return (lo_x, hi_x, lo_y, hi_y)

    def _overlap_children(self, node, rect):
        r, i, j = node
        out = []
        bounds = self.frame.cell_bounds
        for ci, cj in ((2 * i, 2 * j), (2 * i + 1, 2 * j),
                       (2 * i, 2 * j + 1), (2 * i + 1, 2 * j + 1)):
            if boverlap(rect, bounds(ci, cj, r + 1)):
                out.append((r + 1, ci, cj))
        return out

    def overlapping_cells(self, rect):
        """All present cells a rectangle possibly overlaps (sound: any cell
        not returned is certified disjoint from rect)."""
        if not boverlap(rect, self.frame.cell_bounds(0, 0, 0)):
            return []
        hits = []
        stack = [(0, 0, 0)]
        while stack:
            node = stack.pop()
            if node in self._cells:
                hits.append(node)
            elif node in self._markers:
                stack.extend(self._overlap_children(node, rect))
        hits.sort()
        return hits

    def ancestor_of(self, r, i, j):
        """The present cell containing grid cell (i, j) at resolution r, or
        None; assumes present cells are never finer than the query."""
        while r >= 0:
            if (r, i, j) in self._cells:
                return (r, i, j)
            r, i, j = r - 1, i >> 1, j >> 1
        return None

    def covers_rect(self, rect) -> bool:
        """True certifies rect is inside the union of present cells."""
        root = self.frame.cell_bounds(0, 0, 0)
        if not (root[0] <= rect[0] and rect[1] <= root[1]
                and root[2] <= rect[2] and rect[3] <= root[3]):
            return False  # anything poking out of the frame is uncovered
        stack = [(0, 0, 0)]
        while stack:
            node = stack.pop()
            if node in self._cells:
                continue
            if node not in self._markers:
                return False
            kids = self._overlap_children(node, rect)
            if not kids:
                return False
            stack.extend(kids)
        return True


def paved_clusters(frame: Frame, cells):
    """Partition mixed-resolution cells into maximal edge-adjacent clusters.

    Two cells are adjacent when their boundaries share a segment of
    positive length.  Corner contact does not connect: an open connected set
    cannot pass through a grid corner whose other two cells were discarded.
    Equivalently: for every cell and each of its four same-size
    neighbor slots, the cover cell containing that slot (necessarily the
    same size or coarser) is adjacent; finer neighbors register the pair
    when processed from their own side.  Neighbor resolution is vectorized
    per pair of resolution layers and the resulting graph is labeled with
    a C-implementation of connected components.

    Returns clusters as lists of (r, i, j), clusters in canonical order by
    fine-grid lower-left corner, cells sorted within each cluster.
    """
    cells = sorted(set(cells))
    if not cells:
        return []
    n = len(cells)
    by_r = {}
    for idx, (r, i, j) in enumerate(cells):
        by_r.setdefault(r, []).append((i, j, idx))
    layer = {}
    for r, items in by_r.items():
        arr = np.array(items, dtype=np.int64)
        keys = (arr[:, 0] << 32) | arr[:, 1]
        order = np.argsort(keys)
        layer[r] = (keys[order], arr[order, 2])
    edges_a = []
    edges_b = []
    for r, items in sorted(by_r.items()):
        arr = np.array(items, dtype=np.int64)
        i, j, idx = arr[:, 0], arr[:, 1], arr[:, 2]
        span = (1 << r) - 1
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            ok = (ni >= 0) & (ni <= span) & (nj >= 0) & (nj <= span)
            if not ok.any():
                continue
            ni, nj, src = ni[ok], nj[ok], idx[ok]
            # find the cover cell containing each neighbor slot, searching
            # this and every coarser layer
            unresolved = np.ones(len(src), dtype=bool)
            for rp in sorted(by_r, reverse=True):
                if rp > r or not unresolved.any():
                    continue
                d = r - rp
                keys = ((ni[unresolved] >> d) << 32) | (nj[unresolved] >> d)
                lk, lidx = layer[rp]
                pos = np.searchsorted(lk, keys)
                pos[pos >= len(lk)] = len(lk) - 1
                hit = lk[pos] == keys
                if hit.any():
                    where = np.flatnonzero(unresolved)[hit]
                    edges_a.append(src[where])
                    edges_b.append(lidx[pos[hit]])
                    rem = unresolved.copy()
                    rem[where] = False
                    unresolved = rem
    if edges_a:
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components
        a = np.concatenate(edges_a)
        b = np.concatenate(edges_b)
        graph = coo_matrix((np.ones(len(a), dtype=np.int8), (a, b)), shape=(n, n))
        _, labels = connected_components(graph, directed=False)
    else:
        labels = np.arange(n)
    R = max(by_r)
    corner_x = np.empty(n, dtype=np.int64)
    corner_y = np.empty(n, dtype=np.int64)
    for pos, (r, i, j) in enumerate(cells):
        f = 1 << (R - r)
        corner_x[pos] = i * f
        corner_y[pos] = j * f
    groups = {}
    for pos in range(n):
        groups.setdefault(int(labels[pos]), []).append(pos)
    keyed = []
    for members in groups.values():
        key = min((int(corner_x[p]), int(corner_y[p])) for p in members)
        keyed.append((key, sorted(cells[p] for p in members)))
    keyed.sort(key=lambda t: t[0])
    return [grp for _, grp in keyed]
