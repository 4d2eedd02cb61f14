"""Levelwise component tree of disk preimages with certified degrees.

Level k holds an outer cover of f^{-k}(U) as an adaptive pavement: dyadic
cells of mixed resolutions, refined only where the geometry demands it.
Preimage components at one level live at wildly different scales (a
component containing a critical point shrinks like a square root along its
chain, while univalent branches contract geometrically), so uniform
per-level grids are ruinously expensive; pavements keep cell counts
proportional to the number of components.

Every cell is classified by the orbit-chain test: z lies in f^{-k}(U)
exactly when f^j(z) stays in U for j = 1..k.  A cell whose iterated image
enclosures are all strictly inside U is *interior* (a certified subset,
finalized coarse); a cell with some iterate certified outside the closed
disk is discarded; an undecided cell refines until it reaches its local
structure scale (its first image enclosure fits the parent-level cell it
lands on, or its k-th image enclosure is small relative to U itself), then
stays as boundary band.  Testing against the exact circle keeps the cover
collar at interval-sharpness rather than inheriting any parent fuzz.

The certificates that accept a level use a chain of *witness points*: the
root witness is the disk center, and each accepted component V carries an
exact rational point w_V certified to lie in it.  Building level k solves
f(z) = w_V for every parent component V at once (``witness_preimages``, a
batched outward-rounded Krawczyk test that answers a w_V only with d
disjoint simple roots); a w_V it leaves open, such as a critical value, goes
to the exact ``certified_roots``.  Either way the resulting enclosures
contain true preimage points counted with exact multiplicity.  A level is
accepted when, for its edge-adjacent clusters, these certificates hold, in
this order:

  * container: the cells of each cluster descend from cells of a single
    parent cluster (dyadic ancestry is exact);
  * witness location: each witness enclosure lies in exactly one cluster;
  * image: all witness enclosures inside a cluster stem from the same
    parent witness w_V; f maps each true component onto one parent
    component, so mixed parents certify a fusion of two components;
  * commuting square: container(image(W)) = image(container(W));
  * critical membership: each critical enclosure lies inside one cluster;
  * degree: the witness multiplicity in each cluster equals
    1 + (critical multiplicities certified inside), the local degree by
    the Riemann-Hurwitz count; every point of V has exactly local_degree
    preimages in each child component over V, so any mismatch certifies
    an under- or over-split cover;
  * conservation: per parent cluster P and component V over image(P),
    child degrees sum to local_degree(P) (from level 2 on: at level 1 the
    two stages above make the degrees sum to d);
  * witness membership: some witness midpoint of each cluster is certified
    inside f^-k(U), by the float orbit chain of all candidates of the level
    or, for a candidate that chain leaves open, by an exact orbit walk; it
    becomes the cluster's w_V.

Each certificate is an array stage over the attempt's cluster table and
flags the clusters (or parent pairs) where it fails.  A cluster without a
witness cannot be accepted, so spurious clusters block certification until
refinement kills them; they are never counted.

A failed attempt splits only refinable band cells, mostly those of the
flagged clusters, so within a level the cover only shrinks and its clusters
can split but never merge: the decremental case of dynamic connectivity
(Even and Shiloach, J. ACM 28, 1981).  A cluster with no split cell is
*settled*: it stays a whole cluster of the next attempt's pavement, so that
attempt clusters by neighbor slots only the other cells (``_build_level``
gives the argument).  No cell is located in the parent pavement: each
carries the parent cluster of the parent-pavement cell it descends from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .covers import MAX_RESOLUTION, Frame, PavedCover, paved_clusters
from .errors import (
    HypothesisViolation,
    InconsistentTree,
    NotInCover,
    ResolutionExceeded,
    Undecided,
    check_level,
)
from .intervals import _one_box, enclose_fraction, enclose_point, isqrt_hi, vbabs2
from .maps import (
    DomainDisk,
    PolynomialMap,
    _orbit_status,
    certified_roots,
    escape_radius,
    parse_point,
    validate_restriction,
    witness_preimages,
)


# Subdivision strategy.  Level 0 starts from the 2^BASE_RESOLUTION grid.
# An undecided boundary cell stops refining once its first image enclosure
# is within BAND_RATIO of the size of the parent-level cell it lands on, or
# once its k-step image enclosure is below BAND_SCALE times the disk
# diameter, whichever happens first; certification failures split the
# offending cells further regardless.
BASE_RESOLUTION = 3
BAND_SCALE = 0.0625
BAND_RATIO = 2.0


@dataclass(frozen=True)
class ResolutionPolicy:
    """Budgets of the subdivision loop and the orbit horizon of the
    restriction validator."""

    max_boxes: int = 1_000_000
    max_resolution: int = 16
    validation_horizon: int = 20

    def __post_init__(self):
        if min(self.max_boxes, self.max_resolution, self.validation_horizon) <= 0:
            raise ValueError("budgets must be positive and the validation horizon at least 1")
        if self.max_resolution > MAX_RESOLUTION:
            raise ValueError(f"max_resolution must be at most {MAX_RESOLUTION}")


@dataclass(slots=True)
class AbstractComponent:
    """One connected component W of a tree level, with the fields the coding
    reads.  ``container`` and ``image`` index the previous level's
    components (None at level 0).  ``cumulative_degree`` is the degree of
    f^level on W, the product of local degrees along the image chain.
    ``contains_critical`` names the critical points in W; in a generated
    tree, degree > 1 plays the critical role."""

    level: int
    index: int
    container: int
    image: int
    local_degree: int
    cumulative_degree: int
    contains_critical: tuple = ()

    @property
    def id(self):
        return (self.level, self.index)


class AbstractTree:
    """Component tree over ``degree`` symbols: ``levels[k]`` lists the
    level-k components in canonical order, geometric (``PuzzleTree``) and
    generated (``oracle.generate``) trees alike.  Components are mutable, so
    that a generated tree's many thousands are cheap to build, but a tree
    and its components are treated as immutable once built, generated or
    coded; the carrier tables an assignment stores per tree rely on it."""

    def __init__(self, degree, levels):
        self.degree = degree
        self.levels = levels

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass(kw_only=True)
class Component(AbstractComponent):
    """A component W of f^{-level}(U) with its geometry: ``cover`` holds the
    ascending int64 indices of W's cells in the level's pavement
    (``PuzzleTree.pavement``), ``bbox`` their (re_lo, re_hi, im_lo, im_hi)
    hull and ``diameter_bound`` an upper bound on W's diameter.  The covers
    of a level are views into one int64 buffer, the level's cells grouped
    by component."""

    cover: np.ndarray = field(compare=False)  # an array has no truth value
    bbox: tuple
    diameter_bound: float


@dataclass
class _Built:
    """The cluster table of an accepted level.  Aligned with the pavement's
    cells: ``interior``, the mask of the cells certified inside f^-k(U), and
    ``labels``, the cluster ``paved_clusters`` gives each cell, int64 as
    certified and int32 once the level is accepted (a level has fewer than
    2^31 cells), when its pavement is compacted too.  Per cluster,
    int64 arrays: the parent clusters that contain it (``parent_of``) and
    that f maps it onto (``image_of``), both -1 at level 0, and its
    ``local_degree``.  Per critical point of the map, the cluster certified
    to contain it, else -1 (``crit_cluster``).  Per cluster, the exact
    witness point certified to lie in it."""

    pavement: PavedCover
    interior: np.ndarray
    labels: np.ndarray
    parent_of: np.ndarray
    image_of: np.ndarray
    local_degree: np.ndarray
    crit_cluster: np.ndarray
    witness_points: list


# cells per _classify_batch call: large waves go in slices of this size
# (8,192 to 32,768 time alike on one thread; ROADMAP item 5 has the runs)
_WAVE_SLICE = 1 << 14


def _select(columns, mask):
    """The entries of each of the aligned ``columns`` where ``mask`` is set."""
    return tuple(c[mask] for c in columns)


def _count(parts):
    """The number of cells in a list of (r, i, j, up) column tuples."""
    return sum(len(part[0]) for part in parts)


def _children(r, i, j, up):
    """The four children of each cell, one resolution finer, as (r, i, j, up)
    columns: per cell, (2i, 2j), (2i + 1, 2j), (2i, 2j + 1), (2i + 1, 2j + 1),
    each with the cell's parent cluster ``up``."""
    return (np.repeat(r + 1, 4), (2 * i[:, None] + (0, 1, 0, 1)).ravel(),
            (2 * j[:, None] + (0, 0, 1, 1)).ravel(), np.repeat(up, 4))


def _pave(frame, interior, band, kept):
    """The pavement of the cells of three lists, each emptied here: the
    interior and band cells, as (r, i, j, up) column tuples, and ``kept``,
    which holds the (r, i, j, up, interior, settled) columns of the cells a
    failed attempt keeps, if any.  Returns the pavement, the mask of its
    interior cells, each cell's settled cluster (a kept cell's own, -1 for
    the others) and its parent cluster, which every cell carries.

    Kept cells come in pavement order, so with no new cell they ascend
    strictly already and pave as they are.  Otherwise one lexsort of the
    joined (r, i, j) orders the cells, and each column is gathered by its
    permutation and its unsorted form dropped before the next column is
    joined from its pieces."""
    new = [(*c, np.full(len(c[0]), flag), np.full(len(c[0]), -1))
           for flag, parts in ((True, interior), (False, band)) for c in parts]
    del interior[:], band[:]
    if kept and not _count(new):
        r, i, j, up, inner, settled = kept.pop()
        return PavedCover(frame, r, i, j), inner, settled, up
    columns = [list(c) for c in zip(*kept, *new)]
    del kept[:], new

    def joined(c):
        pieces, columns[c] = columns[c], None
        return np.concatenate(pieces)

    r, i, j = joined(0), joined(1), joined(2)
    order = np.lexsort((j, i, r))
    r = r[order]
    i = i[order]
    j = j[order]
    up, inner, settled = (joined(c)[order] for c in (3, 4, 5))
    del order
    return PavedCover(frame, r, i, j), inner, settled, up


def _distinct(groups, values, n_groups):
    """Item i lies in group ``groups[i]`` and carries ``values[i]`` >= -1.
    Per group 0..n_groups-1: the number of distinct values its items carry,
    and that value where there is exactly one, else -1."""
    m = int(values.max(initial=-1)) + 2
    # the distinct (group, value) keys, sorted: one key array, sorted in place
    keys = groups * m
    keys += values
    keys += 1
    keys.sort()
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    group, value = np.divmod(keys[head], m)
    count = np.bincount(group, minlength=n_groups)
    single = np.full(n_groups, -1, dtype=np.int64)
    single[group] = value - 1
    return count, np.where(count == 1, single, -1)


def _groups(keys, n_groups):
    """The indices of the items with key 0..n_groups-1, one ascending array
    per key."""
    ends = np.cumsum(np.bincount(keys, minlength=n_groups))
    return np.split(np.argsort(keys, kind="stable"), ends[:-1])


def _conservation(parent_of, image_of, local_degree, parent):
    """Conservation: for each parent cluster P and each component V of the
    level above whose container is image(P), the children of P over V have
    local degrees summing to local_degree(P).  Returns these (P, V) pairs,
    ascending, with the sum over each and the sum wanted; once the commuting
    square holds, every child's (container, image) is one of them."""
    n = len(parent.parent_of)
    by_container = np.argsort(parent.parent_of, kind="stable")
    lo, hi = (np.searchsorted(parent.parent_of[by_container], parent.image_of, side)
              for side in ("left", "right"))
    p = np.repeat(np.arange(n), hi - lo)
    v = by_container[np.arange(len(p)) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]
    pair = np.searchsorted(p * n + v, parent_of * n + image_of)
    got = np.bincount(pair, weights=local_degree, minlength=len(p)).astype(np.int64)
    return p, v, got, parent.local_degree[p]


class _Failure(Exception):
    """Internal: a certification attempt failed (``_Defects.flag`` raises
    it), or certified a level-1 cover not yet inside U (``_build_level``).

    ``refine``, a mask over the attempt's pavement, localizes the failure:
    when set, only those cells (intersected with the refinable band) need
    splitting, which keeps a small defect (a spurious island, one
    unresolved critical enclosure) from forcing a refinement of the whole
    level.  ``labels`` are the attempt's cluster per cell."""

    def __init__(self, detail, labels, refine=None):
        super().__init__(f"defects: {detail}")
        self.labels, self.refine = labels, refine


class _Defects:
    """Collector for the certification defects of one stage, so a single
    refinement pass can address all of them at once: a count per defect
    kind, the first defect's text, and the clusters to refine.  Given the
    ``labels`` that map pavement cells to clusters, a stage that flags any
    defect ends the attempt in a _Failure that carries them."""

    def __init__(self, labels=None):
        self.labels = labels
        self.counts = {}
        self.first = None
        self.clusters = set()

    def flag(self, flagged, describe, clusters=None):
        """Record one defect per set entry of the mask ``flagged``, in index
        order: ``describe(i)`` gives entry i's kind and text.  Entry i names
        the clusters ``clusters(i)`` to refine, or cluster i itself.  Raises
        the stage's _Failure when given ``labels`` and any entry is set."""
        for i in np.flatnonzero(flagged).tolist():
            kind, detail = describe(i)
            self.counts[kind] = self.counts.get(kind, 0) + 1
            if self.first is None:
                self.first = f"{kind}: {detail}"
            self.clusters.update([i] if clusters is None else clusters(i))
        if self.counts and self.labels is not None:
            refine = None
            if self.clusters:
                named = np.zeros(int(self.labels.max()) + 1, dtype=bool)
                named[list(self.clusters)] = True
                refine = named[self.labels]
            raise _Failure(str(self), self.labels, refine=refine)

    def __str__(self):
        histogram = ", ".join(f"{kind}={n}" for kind, n in self.counts.items())
        return f"{self.first} (by kind: {histogram})"


class PuzzleTree(AbstractTree):
    """Result of build_tree; levels[k] lists the components of f^{-k}(U)."""

    def __init__(self, pmap, disk, frame, policy, levels, built, restriction):
        super().__init__(pmap.degree, levels)
        self.map = pmap
        self.disk = disk
        self.frame = frame
        self.policy = policy
        self._built = built
        self.restriction = restriction

    @property
    def n_level1(self) -> int:
        return len(self.levels[1]) if self.depth >= 1 else 0

    def pavement(self, level: int) -> PavedCover:
        """The pavement of a level, whose cells its components' covers index,
        in its kept form: int8 resolutions, and search keys only once a
        ``find`` or ``paved_clusters`` has rebuilt them."""
        check_level(level, self.depth)
        return self._built[level].pavement

    def level_resolution(self, level: int) -> int:
        return self.pavement(level).finest

    def to_json_dict(self) -> dict:
        levels_out = []
        for comps in self.levels:
            row = []
            for c in comps:
                row.append({
                    "id": [c.level, c.index],
                    "level": c.level,
                    "container": c.container,
                    "image": c.image,
                    "local_degree": c.local_degree,
                    "cumulative_degree": c.cumulative_degree,
                    "diameter": repr(c.diameter_bound),
                    "bbox": [repr(x) for x in c.bbox],
                })
            levels_out.append(row)
        meta = {
            "degree": self.map.degree,
            "coefficients": [[str(re), str(im)] for re, im in self.map.exact_coefficients],
            "disk_center": [str(self.disk.center[0]), str(self.disk.center[1])],
            "disk_radius": str(self.disk.radius),
            "depth": self.depth,
            "level_resolutions": [b.pavement.finest for b in self._built],
            "frame": {"x0": repr(self.frame.x0), "y0": repr(self.frame.y0),
                      "side": repr(self.frame.side)},
            "precision": "ieee754-binary64, shortest round-trip decimal strings",
            "hypothesis_ok": None if self.restriction is None else self.restriction.hypothesis_ok,
        }
        return {"levels": levels_out, "meta": meta}


class _TreeBuilder:
    def __init__(self, pmap: PolynomialMap, disk: DomainDisk, policy: ResolutionPolicy):
        self.pmap = pmap
        self.disk = disk
        self.policy = policy
        r_esc = escape_radius(pmap)
        self.frame = Frame.around_disks([
            (disk.center, disk.radius),
            ((Fraction(0), Fraction(0)), r_esc),
        ])
        self.built = []                # _Built per level, 0-based
        self.levels = []               # components per accepted level
        # band cells stop once their k-step image is below this width
        self._stop_width = BAND_SCALE * 2.0 * float(disk.radius)
        # the local-scale raster of the parent level, repainted per level:
        # per pixel the code r + 1 of a resolution-r cell, 0 off the cover
        self._scale_raster = np.zeros((1 << self._SCALE_BITS,) * 2, dtype=np.uint8)
        self._scale_sizes = np.array(  # the cell size of each code
            [0.0] + [self.frame.cell_size(r) for r in range(MAX_RESOLUTION + 1)])

    # -- level 0: the disk itself ------------------------------------------

    def _build_level0(self):
        """Pave the closed disk; circle-straddling cells are refined a few
        extra steps so level 1 starts from a reasonable boundary scale."""
        band_target = max(BASE_RESOLUTION + 4,
                          -int(math.floor(math.log2(
                              BAND_SCALE * float(self.disk.radius)
                              / self.frame.side))))
        band_target = min(band_target, self.policy.max_resolution)
        n = 1 << BASE_RESOLUTION
        cells = (np.full(n * n, BASE_RESOLUTION), *np.divmod(np.arange(n * n), n),
                 np.full(n * n, -1))  # level 0 has no parent clusters
        interior = []
        r = BASE_RESOLUTION
        while True:
            inside, outside = self.disk.sides(self.frame.cell_walls(*cells[:3]))
            interior.append(_select(cells, inside))
            cells = _select(cells, ~inside & ~outside)
            if r >= band_target:
                break
            cells = _children(*cells)
            r += 1
        pavement, inner, _, _ = _pave(self.frame, interior, [cells], [])
        self._accept(_Built(pavement, inner, np.zeros(len(pavement), dtype=np.int64),
                            np.array([-1]), np.array([-1]), np.array([1]),
                            np.full(len(self.pmap.critical_points), -1), [self.disk.center]))

    # -- witness preimages ---------------------------------------------------

    def _solve_witness_preimages(self, k):
        """Certified enclosures of f^{-1}(w_V) for every parent component V.

        Returns an (n, 4) array of enclosure rectangles, their multiplicities
        and their parent indices, ascending in (rectangle, multiplicity,
        parent index): the canonical candidate order.  One
        ``witness_preimages`` batch answers every w_V with d simple roots;
        the rest (a w_V at or next to a critical value) go to
        ``certified_roots``, whose multiplicities are exact.  Either way the
        enclosures of the preimages of w_V carry total multiplicity d.
        """
        parent = self.built[k - 1]
        rows = []
        batch = witness_preimages(self.pmap, parent.witness_points)
        for v_idx, (w, roots) in enumerate(zip(parent.witness_points, batch)):
            if roots is None:
                coeffs = list(self.pmap.exact_coefficients)
                coeffs[0] = (coeffs[0][0] - w[0], coeffs[0][1] - w[1])
                roots = [(box, mult) for box, mult, _ in certified_roots(tuple(coeffs))]
            for box, mult in roots:
                rows.append((*box, mult, v_idx))
        rows = np.array(rows, dtype=np.float64).reshape(-1, 6)
        rows = rows[np.lexsort(rows.T[::-1])]
        return rows[:, :4], rows[:, 4].astype(np.int64), rows[:, 5].astype(np.int64)

    # -- classification ----------------------------------------------------

    def _orbit_chain(self, k, boxes):
        """The orbit-chain test of ``boxes`` (four arrays of walls): k sharp
        steps of f, each image enclosure tested against the exact circle of
        U.  Returns the indices of the boxes with no iterate certified
        outside the closed disk, the mask of those whose iterates all lie
        strictly inside U, the first image enclosures of every box and the
        k-th image enclosures of the indexed ones.  Every box is evaluated
        on its own, so a box's answer does not depend on the others."""
        center = self.disk.center_box
        alive = np.arange(len(boxes[0]))
        strict = np.ones(len(alive), dtype=bool)
        first_image = None
        for step in range(k):
            boxes = self.pmap.eval_boxes_sharp(boxes)
            if step == 0:
                first_image = boxes
            d2_lo, d2_hi = vbabs2(boxes, center)
            keep = ~(d2_lo > self.disk.r2_hi)
            strict = strict & (d2_hi < self.disk.r2_lo)
            if not keep.all():
                alive = alive[keep]
                strict = strict[keep]
                boxes = tuple(a[keep] for a in boxes)
                if alive.size == 0:
                    break
        return alive, strict, first_image, boxes

    def _classify_batch(self, k, r, i, j):
        """Orbit-chain classification of one wave of cells, (r, i, j) arrays
        of mixed resolutions.

        z lies in f^{-k}(U) exactly when f^j(z) stays in U for j = 1..k, so
        a cell whose iterated sharp enclosures are all strictly inside U is
        a certified subset (status 1), a cell with some iterate certified
        outside the closed disk is discarded (status 0), and the rest are
        undecided boundary cells.  Anchoring the test to the exact circle
        keeps the undecided band at interval-sharpness width.

        An undecided cell stops refining (status 2 rather than 3) at the
        resolution cap, or once its first image enclosure is no wider than
        the parent-pavement cell it lands on: its scale has reached the
        local structure scale one level up, which is the scale the
        certificates need.  The parent lookup is a heuristic only; soundness
        rests on the chain alone.  A cell's status depends on the cell and
        on data fixed for the level, not on the rest of its wave.
        """
        status = np.zeros(len(i), dtype=np.int8)
        alive, strict, e1, boxes = self._orbit_chain(k, self.frame.cell_walls(r, i, j))
        status[alive[strict]] = 1
        mask = ~strict
        undecided = alive[mask]
        if undecided.size == 0:
            return status
        # two independent reasons to stop refining an undecided cell below
        # the cap: its first image enclosure is down to the parent-level
        # structure scale where it lands (raster lookup), or its k-th image
        # enclosure is small relative to U itself; either way its size
        # matches the local geometry, and the certificates split it further
        # if they must
        w1 = np.maximum(e1[1] - e1[0], e1[3] - e1[2])[undecided]
        mx = 0.5 * (e1[0][undecided] + e1[1][undecided])
        my = 0.5 * (e1[2][undecided] + e1[3][undecided])
        local = self._scale_lookup(mx, my)
        wk = np.maximum(boxes[1] - boxes[0], boxes[3] - boxes[2])[mask]
        stop = ((r[undecided] >= self.policy.max_resolution)
                | (w1 <= BAND_RATIO * local) | (wk <= self._stop_width))
        status[undecided[stop]] = 2
        status[undecided[~stop]] = 3
        return status

    _SCALE_BITS = 10  # the local-scale raster is 2^bits x 2^bits

    def _build_scale_raster(self, built):
        """Repaint the raster with a level's local structure scale: per
        pixel, the code r + 1 of the coarsest band cell over it, else of the
        coarsest interior cell, 0 off the cover.  Only the band stopping
        rule reads it, as a heuristic; certificates never do.  The coarsest
        cell keeps fine collar cells from dragging the next level's target
        scale down.  Interior cells go first and band cells over them, each
        group finest first and one block assignment per resolution, so the
        last write to a pixel comes from its coarsest cell."""
        bits = self._SCALE_BITS
        m, raster, pav = 1 << bits, self._scale_raster, built.pavement
        raster.fill(0)
        finest_first = np.flatnonzero(np.bincount(pav.r))[::-1].tolist()
        for group in (built.interior, ~built.interior):
            for r in finest_first:
                sel = group & (pav.r == r)
                n, s = 1 << min(r, bits), max(r - bits, 0)
                i, j = pav.i[sel], pav.j[sel]
                i >>= s
                j >>= s
                raster.reshape(n, m // n, n, m // n)[i, :, j, :] = r + 1

    def _scale_lookup(self, x, y):
        """The local scale at each point (x, y), clipped into the frame: the
        float64 cell size of its pixel's code, 0.0 off the cover."""
        m = len(self._scale_raster)
        s = self.frame.side / m
        ix = np.clip(((x - self.frame.x0) / s).astype(np.int64), 0, m - 1)
        iy = np.clip(((y - self.frame.y0) / s).astype(np.int64), 0, m - 1)
        return self._scale_sizes.take(self._scale_raster.ravel().take(ix * m + iy))

    # -- certificates ----------------------------------------------------------

    def _locate_criticals(self, k, pavement, labels, defects):
        """Critical membership: the enclosure of each restriction critical
        point (every one at level 1, then those level 1 placed in U') lies
        inside one cluster's cells, not across clusters or the cover's edge.
        Returns the cluster of each critical point of the map, else -1.  At
        k >= 2 a restriction critical outside the whole cover certifies an
        escaping critical orbit; at level 1, one outside U'."""
        ids = (np.arange(len(self.pmap.critical_points)) if k == 1
               else np.flatnonzero(self.built[1].crit_cluster >= 0))
        crits = [self.pmap.critical_points[c] for c in ids]
        rects = np.array([crit.enclosure for crit in crits]).reshape(-1, 4)
        box, cell = pavement.overlapping(rects.T)
        touched, cluster = _distinct(box, labels[cell], len(crits))
        lost = np.flatnonzero(touched == 0)
        if k >= 2 and lost.size:
            raise HypothesisViolation(
                f"critical point {crits[lost[0]].point_str()} certified outside "
                f"f^-{k}(U): its orbit escapes U'")
        inside = (touched == 1) & pavement.tiled(rects.T, box, cell)
        defects.flag((touched > 0) & ~inside, lambda b: (
            "critical-straddle", f"critical {crits[b].point_str()} not resolved yet"),
            lambda b: labels[cell[box == b]].tolist())
        crit_cluster = np.full(len(self.pmap.critical_points), -1)
        crit_cluster[ids[inside]] = cluster[inside]
        return crit_cluster

    def _chain_inside(self, k, rects):
        """Per witness enclosure of ``rects``: whether the orbit chain of its
        midpoint c certifies c in f^-k(U), every enclosure of f^j(c),
        j = 1..k, strictly inside U.  The midpoints are floats, so their
        point boxes hold c exactly."""
        mx = 0.5 * (rects[:, 0] + rects[:, 1])
        my = 0.5 * (rects[:, 2] + rects[:, 3])
        alive, strict, _, _ = self._orbit_chain(k, (mx, mx, my, my))
        inside = np.zeros(len(rects), dtype=bool)
        inside[alive[strict]] = True
        return inside

    def _witness_point(self, k, rects, inside):
        """The first midpoint c of the witness enclosures ``rects`` certified
        to lie in f^-k(U), or None.  It does when f^j(c), j = 1..k, stays
        strictly inside U: at once where ``inside`` (``_chain_inside``) says
        so, else when the exact orbit walk of f(c) through step k - 1 says
        so."""
        for (re_lo, re_hi, im_lo, im_hi), sure in zip(rects.tolist(), inside.tolist()):
            c = (Fraction(0.5 * (re_lo + re_hi)), Fraction(0.5 * (im_lo + im_hi)))
            if sure or _orbit_status(
                    self.pmap, self.disk, self.pmap.eval_exact(c), k - 1)[0] == "in_Uprime":
                return c
        return None

    def _certify(self, k, pavement, interior, witness_boxes, settled, up):
        """Run the certificates of level k on one attempt's pavement, in the
        order of the module docstring.  Returns the level's cluster table, or
        raises _Failure with the defects of the first stage that has any.

        ``witness_boxes`` holds the level's witness enclosures, their
        multiplicities and parent indices (``_solve_witness_preimages``) and
        the float chain's verdict on each midpoint (``_chain_inside``): all
        four are the same on every attempt, so the level computes them once.

        ``settled``, aligned with the pavement, is the hand-off of the
        level's last failed attempt (see ``_pave``): each cell's cluster
        where settled, else -1 (every cell, when None); only the other cells
        are joined by neighbor lookups.  ``up``, aligned too, is the parent
        cluster of each cell, which it carries from the parent-pavement cell
        it descends from."""
        labels = paved_clusters(self.frame, pavement, settled)
        n_clusters = int(labels.max(initial=-1)) + 1
        parent = self.built[k - 1]

        # container, from exact dyadic ancestry
        defects = _Defects(labels)
        spans, parent_of = _distinct(labels, up, n_clusters)
        defects.flag(parent_of < 0, lambda idx: (
            "container-straddle", f"cluster spans {spans[idx]} parent clusters"))

        # witness location: every true preimage of every parent witness lies
        # in the kept region, so each enclosure touches some cluster
        rects, mults, sources, inside = witness_boxes
        box, cell = pavement.overlapping(rects.T)
        touched, cluster = _distinct(box, labels[cell], len(mults))
        if k == 1 and self.disk.sides(rects[touched == 0].T)[1].any():
            raise HypothesisViolation(
                "a preimage of the basepoint is certified outside the "
                "closed disk U, so U' is not contained in U")
        defects.flag(touched != 1, lambda b: (
            ("witness-lost", f"a preimage of witness {sources[b]} fell outside the cover")
            if touched[b] == 0 else
            ("witness-straddle", f"a preimage of witness {sources[b]} touches "
                                 f"{touched[b]} clusters")),
            lambda b: labels[cell[box == b]].tolist())

        # image: the parent witnesses whose preimages each cluster holds
        n_images, image_of = _distinct(cluster, sources, n_clusters)
        defects.flag(n_images != 1, lambda idx: (
            ("no-witness", f"cluster {idx} holds no preimage of any parent witness")
            if n_images[idx] == 0 else
            ("witness-disagree", f"cluster {idx} holds preimages of {n_images[idx]} "
                                 f"distinct parent witnesses (fused components)")))

        # commuting square; at level 1 both sides are level 0's -1
        defects.flag(parent.parent_of[image_of] != parent.image_of[parent_of], lambda idx: (
            "commuting-square", f"container(image) != image(container) at cluster {idx}"))

        crit_cluster = self._locate_criticals(k, pavement, labels, defects)

        # degree: the Riemann-Hurwitz local degree must equal the witness
        # preimage count
        placed = crit_cluster >= 0
        crit_mult = np.array([c.multiplicity for c in self.pmap.critical_points], dtype=np.int64)
        local_degree = 1 + np.bincount(np.repeat(crit_cluster[placed], crit_mult[placed]),
                                       minlength=n_clusters)
        witness_mult = np.bincount(np.repeat(cluster, mults), minlength=n_clusters)
        defects.flag(witness_mult != local_degree, lambda idx: (
            "degree-mismatch", f"cluster {idx}: {witness_mult[idx]} witness preimages vs "
                               f"local degree {local_degree[idx]} from critical points"))

        # conservation; at level 1 the d preimages of the disk center lie one
        # cluster each and local degrees equal witness multiplicities, so the
        # degrees sum to d already
        if k >= 2:
            p, v, got, want = _conservation(parent_of, image_of, local_degree, parent)
            defects.flag(got != want, lambda i: (
                "conservation", f"children of parent {p[i]} over component {v[i]} have "
                                f"degree {got[i]}, want {want[i]}"),
                lambda i: np.flatnonzero(parent_of == p[i]).tolist())

        # witness membership: each cluster tries its boxes in candidate order,
        # the exact walk only for a midpoint the float chain leaves open
        witness_points = [self._witness_point(k, rects[members], inside[members])
                          for members in _groups(cluster, n_clusters)]
        missing = _Defects()
        missing.flag([w is None for w in witness_points], lambda idx: (
            "witness-member", f"no witness midpoint of cluster {idx} certifies "
                              f"membership in f^-{k}(U)"))
        if missing.counts:
            # the candidates are the midpoints of the witness enclosures,
            # solved once per level: no refinement changes a walk's answer
            raise Undecided(f"level {k}: {missing}")

        return _Built(pavement, interior, labels, parent_of, image_of, local_degree,
                      crit_cluster, witness_points)

    # -- per-level driver ----------------------------------------------------

    def _build_level(self, k):
        """Classify the parent pavement's cells and their refinements until
        the level certifies.  Cells travel as (r, i, j, up) tuples of integer
        columns, ``up`` being the cell's parent cluster: a cell enters the
        level as a parent-pavement cell, which carries its own label (the
        first wave is the parent level's kept int8 resolutions and int32
        labels, so it and its children keep those dtypes), or as
        a child of a cell of the level, which carries that cell's.  The
        first attempt classifies the parent pavement's cells, and each later
        one the children of the cells the last failed attempt split, in
        waves (``_classify_waves``); each paves the result with the cells
        the last failed attempt keeps (``_pave``), so no cell is ever
        located in the parent pavement.

        A failed attempt keeps the cells that its refinement did not choose,
        each with its interior flag, parent cluster and settled cluster: its
        own where that has no chosen cell, else -1.  Those six columns are
        selected once and are all that outlives the attempt: its pavement,
        masks and labels are dropped before the next classification, so the
        level holds one whole copy of its cells at a time.  Within a level
        the cover only shrinks, so clusters can split but never merge, and a
        settled cluster is a whole cluster of the next pavement too.  Its
        cells all survive, and no cell of the next pavement outside it is
        edge-adjacent to it: a kept cell of a touched cluster was not
        adjacent to it before, and a new cell lies inside a chosen cell p,
        so an edge it shared with a settled cell u would lie on p's
        boundary, making p and u adjacent and so one cluster.  Only the
        other cells need neighbor lookups.  A level-1 table that certifies
        with its cover not yet inside U continues like a failed attempt on
        the whole band; the fourth such table, or the last once nothing can
        refine, is accepted."""
        rects, mults, sources = self._solve_witness_preimages(k)
        witness_boxes = (rects, mults, sources, self._chain_inside(k, rects))
        parent = self.built[k - 1]
        self._build_scale_raster(parent)
        first = (parent.pavement.r, parent.pavement.i, parent.pavement.j, parent.labels)
        pending, interior, band, kept, uncontained = [], [], [], [], []
        while True:
            self._classify_waves(k, first, pending, interior, band, _count(kept))
            first = None
            pavement, is_inner, settled, up = _pave(self.frame, interior, band, kept)
            try:
                built = self._certify(k, pavement, is_inner, witness_boxes, settled, up)
                if k == 1 and not self.disk.contains_cover(pavement):
                    # the preimage plausibly touches the circle; the
                    # restriction validator reports the accepted table
                    uncontained.append(built)
                    if len(uncontained) < 4:
                        raise _Failure("level-1 cover not inside U", built.labels)
            except _Failure as fail:
                chosen = self._subdivide_band(pavement, is_inner, up, pending, fail.refine)
                if chosen is None:
                    if uncontained:
                        self._accept(uncontained[-1])
                        return
                    raise ResolutionExceeded(
                        f"level {k}: certification stalled at the resolution cap "
                        f"(last failure: {fail})")
                # a settled cluster, one with no chosen cell, keeps its label
                touched = np.zeros(int(fail.labels.max(initial=-1)) + 1, dtype=bool)
                touched[fail.labels[chosen]] = True
                settled = np.where(touched[fail.labels], -1, fail.labels)
            else:
                self._accept(built)
                return
            # only the kept cells' columns outlive the attempt: with the
            # failure gone, each column is selected as its source is dropped
            keep = ~chosen
            columns = [pavement.r, pavement.i, pavement.j, up, is_inner, settled]
            del pavement, is_inner, settled, up, chosen
            kept.append(tuple(columns.pop(0)[keep] for _ in range(6)))

    def _classify_waves(self, k, first, pending, interior, band, n_kept):
        """Classify the cells of ``first``, a (r, i, j, up) column tuple or
        None, then the children of the cells of the ``pending`` list of
        such tuples, and so on down, appending the interior and band cells
        to those lists and leaving ``pending`` empty.

        ``first`` forms the first wave, of mixed resolutions.  The children
        of the cells pending after a wave form the next, and a pending cell
        stands for its four children until their slice is classified, so
        only a slice of children is ever made.  A wave goes to
        ``_classify_batch`` in slices of at most ``_WAVE_SLICE`` cells, the
        only chunking on the way to the interval kernels, which bounds the
        orbit chain's arrays.  A cell's status depends only on the cell, so
        waves and slices give each attempt the cells that one batch per
        resolution would.  Before each slice, the live cells (``n_kept``
        kept ones, the classified ones and the waiting ones) must fit the
        box budget."""
        cap = self.policy.max_boxes
        wave, per = first, 1  # cells per wave entry: 1, or 4 children
        while wave is not None or pending:
            if wave is None:
                wave, per = [np.concatenate(c) for c in zip(*pending)], 4
                pending.clear()
            step = _WAVE_SLICE // per
            for start in range(0, len(wave[0]), step):
                cells = [c[start:start + step] for c in wave]
                if per > 1:
                    cells = _children(*cells)
                total = (n_kept + _count(interior) + _count(band)
                         + per * (len(wave[0]) - start) + 4 * _count(pending))
                if total > cap:
                    raise ResolutionExceeded(f"level {k}: {total} boxes exceed cap {cap}")
                status = self._classify_batch(k, *cells[:3])
                interior.append(_select(cells, status == 1))
                band.append(_select(cells, status == 2))
                refine = status == 3
                if refine.any():
                    pending.append(_select(cells, refine))
            wave = None

    def _subdivide_band(self, pavement, interior, up, pending, targets):
        """Split refinable band cells once: add them, with the parent
        clusters ``up`` of the pavement's cells, to the ``pending`` list of
        (r, i, j, up) column tuples, whose children the next attempt
        classifies.

        ``interior`` and ``targets`` are masks over the pavement; ``targets``
        localizes the split to the cells named by a failure (falling back to
        the whole band when none of them can refine).  Returns the mask of
        the cells split, or None when nothing can refine further.
        """
        band = ~interior & (pavement.r < self.policy.max_resolution)
        chosen = band & targets if targets is not None else band
        if not chosen.any():
            chosen = band
            if not chosen.any():
                return None
        pending.append(_select((pavement.r, pavement.i, pavement.j, up), chosen))
        return chosen

    # -- public driver -------------------------------------------------------

    def build(self, depth) -> PuzzleTree:
        self._build_level0()
        restriction = None
        for k in range(1, depth + 1):
            self._build_level(k)
            if k == 1:
                restriction = validate_restriction(
                    self.pmap, self.disk, self.levels[1], self.built[1].pavement,
                    horizon=self.policy.validation_horizon)
                if not restriction.hypothesis_ok:
                    raise HypothesisViolation(
                        "restriction hypotheses not satisfied: "
                        + "; ".join(restriction.summary_lines()), restriction)
        tree = PuzzleTree(self.pmap, self.disk, self.frame, self.policy,
                          self.levels, self.built, restriction)
        check_structure(tree)
        return tree

    def _accept(self, built):
        """Record an accepted level and build its components, with Python int
        and float fields: each cover is its cluster's group of the level's
        cells, and each bbox one grouped min/max of their walls.  The walls
        are computed for whole clusters together, in chunks of about
        ``_WAVE_SLICE`` cells, so no wall array spans the level.  Then the
        level is kept compact: its pavement's resolutions as int8 and no
        search keys (``PavedCover._compact``), its labels as int32.  The
        next level's first wave starts from these columns."""
        k = len(self.built)
        self.built.append(built)
        parent_of, image_of, local_degree, crit_cluster = (a.tolist() for a in (
            built.parent_of, built.image_of, built.local_degree, built.crit_cluster))
        n, pav = len(parent_of), built.pavement
        groups = _groups(built.labels, n)
        ends = np.cumsum([len(g) for g in groups])
        # each chunk ends with the cluster that reaches the next multiple of
        # _WAVE_SLICE cells, or with the last cluster
        marks = np.arange(_WAVE_SLICE, ends[-1] + _WAVE_SLICE, _WAVE_SLICE)
        bounds = [0, *np.unique(np.minimum(np.searchsorted(ends, marks) + 1, n)).tolist()]
        bboxes = []
        for lo, hi in zip(bounds, bounds[1:]):
            cells = np.concatenate(groups[lo:hi])
            walls = self.frame.cell_walls(pav.r[cells], pav.i[cells], pav.j[cells])
            starts = np.cumsum([0, *map(len, groups[lo:hi - 1])])
            bboxes += zip(*(f.reduceat(v, starts).tolist()
                            for f, v in zip((np.minimum, np.maximum) * 2, walls)))
        pav._compact()
        built.labels = built.labels.astype(np.int32)
        comps = []
        for idx, (members, rect) in enumerate(zip(groups, bboxes)):
            if k == 0:
                diam = enclose_fraction(2 * self.disk.radius)[1]
                cum, container, image = 1, None, None
            else:
                w = rect[1] - rect[0]
                h = rect[3] - rect[2]
                diam = isqrt_hi(math.nextafter(w * w + h * h, math.inf))
                cum = local_degree[idx] * self.levels[k - 1][image_of[idx]].cumulative_degree
                container, image = parent_of[idx], image_of[idx]
            comps.append(Component(
                level=k,
                index=idx,
                container=container,
                image=image,
                local_degree=local_degree[idx],
                cumulative_degree=cum,
                cover=members,
                bbox=rect,
                diameter_bound=diam,
                contains_critical=tuple(c for c, cl in enumerate(crit_cluster) if cl == idx),
            ))
        self.levels.append(comps)


def check_structure(tree):
    """Raise InconsistentTree, naming the first failure, unless every
    structural invariant holds; geometric (``build_tree``) and abstract
    (``oracle.generate``) trees satisfy them.  Level 0 is one component of
    index 0 and cumulative degree 1.  Each component W of level k >= 1 has
    its list position as index, a container and an image in level k-1,
    local degree >= 1 and cumulative degree its local degree times its
    image's; container(image) = image(container); and W is branched
    exactly when it contains a critical point.  Per level, the local
    degrees over each image sum to d, and from level 2 the children of a
    parent P over one image have degrees summing to P's.  The cumulative
    degrees of level k then sum to d^k.  Each level checks its components
    in list order, then the images and the groups in order of first
    occurrence.
    """
    d = tree.degree
    if not tree.levels or [(c.index, c.cumulative_degree) for c in tree.levels[0]] != [(0, 1)]:
        raise InconsistentTree("level 0 is not one component of index 0 and cumulative degree 1")
    for k in range(1, tree.depth + 1):
        above = tree.levels[k - 1]
        n = len(above)
        per_image = [0] * n
        groups = {}  # container * n + image -> the container's degree its children leave
        for i, c in enumerate(tree.levels[k]):
            container, image, degree = c.container, c.image, c.local_degree
            if c.index != i:
                raise InconsistentTree(f"level {k}: position {i} holds index {c.index}")
            if not (0 <= container < n and 0 <= image < n):
                raise InconsistentTree(f"container or image outside level {k - 1} at {c.id}")
            if degree < 1:
                raise InconsistentTree(f"local degree {degree} below 1 at {c.id}")
            v = above[image]
            if c.cumulative_degree != degree * v.cumulative_degree:
                raise InconsistentTree(f"cumulative degree {c.cumulative_degree} is not {degree} "
                                       f"times its image's {v.cumulative_degree} at {c.id}")
            if k >= 2:
                parent = above[container]
                if v.container != parent.image:
                    raise InconsistentTree(f"commuting square fails at {c.id}")
                key = container * n + image
                groups[key] = groups.get(key, parent.local_degree) - degree
            if (degree >= 2) != bool(c.contains_critical):
                raise InconsistentTree(f"degree/critical mismatch at {c.id}")
            per_image[image] += degree
        for image, got in enumerate(per_image):
            if got != d:
                raise InconsistentTree(
                    f"level {k}: degrees over image component {image} sum to {got}, want {d}")
        if any(groups.values()):
            key, left = next((key, left) for key, left in groups.items() if left)
            container, image = divmod(key, n)
            want = above[container].local_degree
            raise InconsistentTree(f"level {k}: children of {(k - 1, container)} over image "
                                   f"{(k - 1, image)} have degrees summing to {want - left}, "
                                   f"want {want}")


def build_tree(pmap: PolynomialMap, disk: DomainDisk, depth: int,
               policy: ResolutionPolicy = None) -> PuzzleTree:
    """Build the component tree of f^{-k}(U) for k = 0..depth.

    Each level is refined until the container/image/witness/conservation
    certificates all hold.  Raises ResolutionExceeded when budgets run out
    first, Undecided when no witness candidate of some cluster certifies
    its membership (refinement cannot change that), and HypothesisViolation
    when the geometry is certified incompatible with a polynomial-like
    restriction (N < 2, escaping or periodic critical orbits).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if policy is None:
        policy = ResolutionPolicy()
    return _TreeBuilder(pmap, disk, policy).build(depth)


def locate(tree: PuzzleTree, z, k: int):
    """Certified nested chain W_0 > W_1 > ... > W_k of components around an
    exact point z (a pair of decimal strings / rationals, or a complex
    number taken at its exact float value).

    One query of z's point box against the level-k pavement finds W_k, the
    one component whose cells tile it; the rest is W_k's container chain,
    certified already, as W's cells descend from cells of its container.
    Raises NotInCover when z is certified outside U or the level-k cover
    and Undecided when membership cannot be certified at the built
    resolution.
    """
    check_level(k, tree.depth)
    z = parse_point(z)
    side = tree.disk.classify_exact(z)
    if side == "out":
        raise NotInCover("z is certified outside U")
    if side == "boundary":
        raise Undecided("z lies exactly on the boundary circle of U")
    if k == 0:
        return [tree.levels[0][0]]
    box = _one_box(enclose_point(z))
    built = tree._built[k]
    owners, hits = built.pavement.overlapping(box)
    touched, cluster = _distinct(owners, built.labels[hits], 1)
    if not touched[0]:
        raise NotInCover(f"z is certified outside the level-{k} cover")
    if touched[0] > 1 or not built.pavement.tiled(box, owners, hits)[0]:
        raise Undecided(f"membership of z at level {k} is not certified "
                        f"at the built resolution")
    chain = [tree.levels[k][cluster[0]]]
    while len(chain) <= k:
        chain.append(tree.levels[k - len(chain)][chain[-1].container])
    return chain[::-1]


@dataclass(frozen=True)
class CantorDiagnostic:
    """Per-level maximal diameter bounds and the shrinking-trend verdict.

    A decreasing sequence is evidence (not proof) that the components
    shrink to points, the defining property of the Cantor regime."""

    max_diameters: tuple
    strictly_decreasing: bool


def cantor_diagnostic(tree: PuzzleTree) -> CantorDiagnostic:
    # the verdict compares levels 1..depth; level 0 is the disk itself
    diams = tuple(max(c.diameter_bound for c in tree.levels[k])
                  for k in range(tree.depth + 1))
    dec = all(diams[i + 1] < diams[i] for i in range(1, len(diams) - 1))
    return CantorDiagnostic(diams, dec)
