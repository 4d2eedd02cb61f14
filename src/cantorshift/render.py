"""Deterministic SVG rendering of puzzle-piece covers.

Components are drawn as their pavement cells (filled rectangles with a
matching stroke, so each cluster reads as one blob), nested level by level
over the domain circle.  Identical trees render to identical bytes:
iteration orders are canonical and coordinates use a fixed decimal format.
"""

from __future__ import annotations

import numpy as np

from .errors import check_level

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)


def _color_for(comp, color_by, assignment, symbol_index):
    if color_by == "symbols" and assignment is not None:
        key = assignment.of(comp.level, comp.index)
        return _PALETTE[symbol_index[key] % len(_PALETTE)]
    return _PALETTE[comp.level % len(_PALETTE)]


def _formatted(values):
    """Each float of ``values`` as ``f"{v:.8f}"``, formatting every distinct
    bit pattern once (so -0.0 and 0.0 keep their own strings)."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array([f"{v:.8f}" for v in bits.view(np.float64).tolist()],
                    dtype=object)[inverse].tolist()


_BATCH = 1 << 12  # cells whose distinct wall values one ``_formatted`` pass covers


def _rects(pavement, covers):
    """Per cover, an index array into the pavement, the <rect> lines of its
    cells.  Most components are a few cells, so the wall values are
    formatted for whole covers together, about _BATCH cells at a time."""
    ends = np.cumsum([len(cover) for cover in covers])
    lo = 0
    while lo < len(covers):
        # the covers lo..hi-1: at least _BATCH cells, or the rest
        hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + _BATCH)) + 1
        batch = covers[lo:hi]
        cells = np.concatenate(batch)
        x_lo, x_hi, y_lo, y_hi = pavement.frame.cell_walls(
            pavement.r[cells], pavement.i[cells], pavement.j[cells])
        columns = [_formatted(v) for v in (x_lo, -y_hi, x_hi - x_lo, y_hi - y_lo)]
        end = 0
        for c in batch:
            start, end = end, end + len(c)
            yield [f'<rect x="{x}" y="{y}" width="{w}" height="{h}"/>'
                   for x, y, w, h in zip(*(column[start:end] for column in columns))]
        lo = hi


def svg_parts(tree, level: int, color_by: str = "level", assignment=None,
              size: int = 800):
    """The text of ``render_svg`` as an iterator of whole lines, one string
    per component and one per other line; a caller that writes them as they
    come holds one component at a time.  The arguments are checked before
    the iterator is returned."""
    check_level(level, tree.depth)
    if color_by not in ("level", "symbols"):
        raise ValueError("color_by must be 'level' or 'symbols'")
    if color_by == "symbols" and assignment is None:
        raise ValueError("symbol coloring needs an assignment")
    if size < 1:
        raise ValueError(f"size {size} is not a positive pixel count")
    return _parts(tree, level, color_by, assignment, size)


def _parts(tree, level, color_by, assignment, size):
    frame = tree.frame
    vb = f"{frame.x0:.8f} {-(frame.y0 + frame.side):.8f} {frame.side:.8f} {frame.side:.8f}"
    stroke = frame.side / 800.0
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
           f'viewBox="{vb}">\n')
    yield (f'<rect x="{frame.x0:.8f}" y="{-(frame.y0 + frame.side):.8f}" '
           f'width="{frame.side:.8f}" height="{frame.side:.8f}" fill="#ffffff"/>\n')
    cx = 0.5 * (tree.disk.center_box[0] + tree.disk.center_box[1])
    cy = 0.5 * (tree.disk.center_box[2] + tree.disk.center_box[3])
    radius = float(tree.disk.radius)
    yield (f'<circle cx="{cx:.8f}" cy="{-cy:.8f}" r="{radius:.8f}" '
           f'fill="none" stroke="#cccccc" stroke-width="{stroke:.8f}"/>\n')
    for lvl in range(1, level + 1):
        symbol_index = {}
        if color_by == "symbols":
            for comp in tree.levels[lvl]:
                key = assignment.of(lvl, comp.index)
                if key not in symbol_index:
                    symbol_index[key] = len(symbol_index)
        yield (f'<g id="level-{lvl}" fill-opacity="0.35" '
               f'stroke-width="{stroke:.8f}">\n')
        comps = tree.levels[lvl]
        for comp, rects in zip(comps, _rects(tree.pavement(lvl), [c.cover for c in comps])):
            color = _color_for(comp, color_by, assignment, symbol_index)
            yield "\n".join([
                f'<g fill="{color}" stroke="{color}"><title>component '
                f'{lvl}:{comp.index} degree {comp.local_degree}</title>',
                *rects, '</g>', ''])
        yield '</g>\n'
    yield '</svg>\n'


def render_svg(tree, level: int, color_by: str = "level", assignment=None,
               size: int = 800) -> str:
    """Draw the puzzle pieces of levels 1..level, plus the domain circle.

    ``color_by`` is "level" (hue per level) or "symbols" (hue per distinct
    symbol set, requires an assignment); ``size`` is the width and height in
    pixels, at least 1.  The parts of ``svg_parts`` go into one buffer as
    they come, decoded once at the end, so no list of parts lives beside
    the result.
    """
    buf = bytearray()
    for part in svg_parts(tree, level, color_by, assignment, size):
        buf += part.encode()
    return buf.decode()
