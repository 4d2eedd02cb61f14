"""Deterministic SVG rendering of puzzle-piece covers.

Components are drawn as their pavement cells (filled rectangles with a
matching stroke, so each cluster reads as one blob), nested level by level
over the domain circle.  Identical trees render to identical bytes:
iteration orders are canonical and coordinates use a fixed decimal format.
"""

from __future__ import annotations

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf", "#bcbd22", "#7f7f7f", "#aec7e8", "#98df8a",
)


def _color_for(comp, color_by, assignment, symbol_index):
    if color_by == "symbols" and assignment is not None:
        key = assignment.of(comp.level, comp.index)
        return _PALETTE[symbol_index[key] % len(_PALETTE)]
    return _PALETTE[comp.level % len(_PALETTE)]


def render_svg(tree, level: int, color_by: str = "level", assignment=None,
               size: int = 800) -> str:
    """Draw the puzzle pieces of levels 1..level, plus the domain circle.

    ``color_by`` is "level" (hue per level) or "symbols" (hue per distinct
    symbol set, requires an assignment).
    """
    if not 0 <= level <= tree.depth:
        raise ValueError(f"level {level} outside 0..{tree.depth}, the tree's depth")
    if color_by not in ("level", "symbols"):
        raise ValueError("color_by must be 'level' or 'symbols'")
    if color_by == "symbols" and assignment is None:
        raise ValueError("symbol coloring needs an assignment")
    frame = tree.frame
    vb = f"{frame.x0:.8f} {-(frame.y0 + frame.side):.8f} {frame.side:.8f} {frame.side:.8f}"
    stroke = frame.side / 800.0
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{vb}">',
        f'<rect x="{frame.x0:.8f}" y="{-(frame.y0 + frame.side):.8f}" '
        f'width="{frame.side:.8f}" height="{frame.side:.8f}" fill="#ffffff"/>',
    ]
    cx = 0.5 * (tree.disk.center_box[0] + tree.disk.center_box[1])
    cy = 0.5 * (tree.disk.center_box[2] + tree.disk.center_box[3])
    radius = float(tree.disk.radius)
    out.append(f'<circle cx="{cx:.8f}" cy="{-cy:.8f}" r="{radius:.8f}" '
               f'fill="none" stroke="#cccccc" stroke-width="{stroke:.8f}"/>')
    for lvl in range(1, level + 1):
        symbol_index = {}
        if color_by == "symbols":
            for comp in tree.levels[lvl]:
                key = assignment.of(lvl, comp.index)
                if key not in symbol_index:
                    symbol_index[key] = len(symbol_index)
        out.append(f'<g id="level-{lvl}" fill-opacity="0.35" '
                   f'stroke-width="{stroke:.8f}">')
        for comp in tree.levels[lvl]:
            # one string per component: the list of its lines lives briefly
            color = _color_for(comp, color_by, assignment, symbol_index)
            cover = comp.cover
            walls = (w.tolist() for w in frame.cell_walls(cover.r, cover.i, cover.j))
            out.append("\n".join([
                f'<g fill="{color}" stroke="{color}"><title>component '
                f'{lvl}:{comp.index} degree {comp.local_degree}</title>',
                *(f'<rect x="{x_lo:.8f}" y="{-y_hi:.8f}" '
                  f'width="{x_hi - x_lo:.8f}" height="{y_hi - y_lo:.8f}"/>'
                  for x_lo, x_hi, y_lo, y_hi in zip(*walls)),
                '</g>']))
        out.append('</g>')
    out.append('</svg>\n')
    return "\n".join(out)
