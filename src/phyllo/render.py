"""SVG rendering of tessellations.

Figures are drawn straight from chart coordinates into a square viewBox, one
``<polygon>`` per interior cell, colored by cell class: pentagons blue,
hexagons red, heptagons green, four-sided cells yellow.  A white dot marks
the pattern origin.  Output contains no timestamps or other run metadata,
so identical input gives byte-identical SVG.

Polygons are written from the columns, tessellation._BLOCK drawn cells at a
time: each distinct x and -y value of a block's vertices is formatted once
(``.6g``, export._distinct_text), the points joined per cell fill one
``<polygon>`` template, and only the block's joined text is kept.
"""

from __future__ import annotations

from itertools import compress, islice, repeat

import numpy as np

from .export import _distinct_text
from .geometry import HYPERBOLIC, SPHERE, chart_to_unit_surface
from .tessellation import _BLOCK, Tessellation, classify

__all__ = ["PROJECTIONS", "render_svg"]

CELL_COLORS = {
    "pentagon": "blue",
    "hexagon": "red",
    "heptagon": "green",
    "square": "yellow",
}
FALLBACK_COLOR = "lightgray"

PROJECTIONS = ("chart", "orthographic", "stereographic")


def _g6(values: np.ndarray) -> list[str]:
    return list(map(format, values.tolist(), repeat(".6g")))


def render_svg(tess: Tessellation, projection: str | None = None, size: int = 900) -> str:
    """SVG text of the tessellation; the sphere is drawn orthographic by default."""
    kind = tess.pattern.surface.kind
    if projection is None:
        projection = "orthographic" if kind == SPHERE else "chart"
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    if projection != "chart" and kind != SPHERE:
        raise ValueError(f"projection {projection!r} needs a sphere pattern")

    offsets, verts = tess.vertex_offsets, tess.vertices
    owner = np.repeat(np.arange(tess.n), np.diff(offsets))
    keep = ~tess.cells.is_boundary
    extent = 1.0  # the orthographic disc and the Poincare disc's limit circle
    if projection == "orthographic":
        # drop the back hemisphere (the origin pole sits at z = -1)
        xyz = chart_to_unit_surface(SPHERE, verts)
        keep &= np.bincount(owner, xyz[:, 2] > 0.0, minlength=tess.n) == 0
        verts = xyz[:, :2]
    elif projection == "stereographic":
        # the equator maps to r = 1; r = 4 reaches 150 degrees colatitude,
        # beyond which cells blow up toward the projection pole
        extent = 4.0
        far = ~(np.sum(verts * verts, axis=1) <= extent * extent)
        keep &= np.bincount(owner, far, minlength=tess.n) == 0
    if not keep.any():
        where = "out of view" if kind == SPHERE else "boundary cells"
        raise ValueError(f"nothing to draw: all {tess.n} cells are {where}")
    corners = np.diff(offsets)[keep].tolist()
    xy = np.column_stack((verts[:, 0], -verts[:, 1]))[keep[owner]]  # SVG's y points down
    if projection == "chart" and kind != HYPERBOLIC:
        extent = 1.02 * float(np.max(np.abs(xy)))

    stroke = extent / 600.0
    corner, box, width, dot = _g6(np.array([-extent, 2.0 * extent, stroke, 6.0 * stroke]))
    pen = f'stroke="black" stroke-width="{width}"'
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{corner} {corner} {box} {box}">',
        f'<rect x="{corner}" y="{corner}" width="{box}" height="{box}" fill="white"/>',
    ]
    if kind == HYPERBOLIC:
        lines.append(f'<circle cx="0" cy="0" r="1" fill="none" {pen}/>')
    template = f'<polygon points="%s" fill="%s" {pen}/>'
    fills = [CELL_COLORS.get(label, FALLBACK_COLOR) for label in compress(classify(tess), keep)]
    ends = np.cumsum([0] + corners)
    for lo in range(0, len(corners), _BLOCK):
        hi = min(lo + _BLOCK, len(corners))
        text = _distinct_text(xy[ends[lo] : ends[hi]], _g6)
        points = map("%s,%s".__mod__, zip(text, text))
        coords = [" ".join(islice(points, k)) for k in corners[lo:hi]]
        lines.append("\n".join(map(template.__mod__, zip(coords, fills[lo:hi]))))
    # white dot on the pattern origin (chart center / near pole); joining a
    # last "" ends the text with a newline without copying it
    lines += [f'<circle cx="0" cy="0" r="{dot}" fill="white" {pen}/>', "</svg>", ""]
    return "\n".join(lines)
