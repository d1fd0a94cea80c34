"""SVG rendering of tessellations.

Figures are drawn straight from chart coordinates into a square viewBox, one
``<polygon>`` per interior cell, colored by cell class: pentagons blue,
hexagons red, heptagons green, four-sided cells yellow, any other light
gray.  A white dot marks the pattern origin.  Output contains no
timestamps or other run metadata, so identical input gives byte-identical
SVG.

Each corner point of the drawn cells is formatted once, as " x,y" (y
negated) in a row of bytes padded with 0, by export's decimal kernel
(byte for byte ``format(v, ".6g")``).  The polygons are then written
_CELLS drawn cells at a time: each cell is one row of a byte array (the
``<polygon`` head, its corners' rows, and its fill and pen by its side
count), and the array's bytes other than 0 are the cells' text.  Only
these texts are kept.
"""

from __future__ import annotations

import numpy as np

from .export import _g_rows
from .geometry import HYPERBOLIC, SPHERE, chart_to_unit_surface
from .tessellation import _BLOCK, CELL_TYPE_BY_SIDES, Tessellation

__all__ = ["PROJECTIONS", "render_svg"]

CELL_COLORS = {
    "pentagon": "blue",
    "hexagon": "red",
    "heptagon": "green",
    "square": "yellow",
}
FALLBACK_COLOR = "lightgray"

PROJECTIONS = ("chart", "orthographic", "stereographic")


#: the fill of a cell by its side count, the last entry for any larger count
_FILLS = [
    CELL_COLORS.get(CELL_TYPE_BY_SIDES.get(k), FALLBACK_COLOR) for k in range(max(CELL_TYPE_BY_SIDES) + 2)
]
_POLYGON = np.frombuffer(b'<polygon points="', dtype=np.uint8)
#: drawn cells per byte array: arrays this small let the texts kept reuse
#: the heap's free space (at 2,048 cells they raised the peak RSS of a
#: hyperbolic 20000 render by 1.5 MB)
_CELLS = 256


def render_svg(tess: Tessellation, projection: str | None = None, size: int = 900) -> str:
    """SVG text of the tessellation; the sphere is drawn orthographic by default."""
    kind = tess.pattern.surface.kind
    if projection is None:
        projection = "orthographic" if kind == SPHERE else "chart"
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    if projection != "chart" and kind != SPHERE:
        raise ValueError(f"projection {projection!r} needs a sphere pattern")

    offsets, verts, index = tess.vertex_offsets, tess.vertices, tess.vertex_index
    owner = np.repeat(np.arange(tess.n), np.diff(offsets))
    keep = ~tess.cells.is_boundary
    extent = 1.0  # the orthographic disc and the Poincare disc's limit circle
    if projection == "orthographic":
        # drop the back hemisphere (the origin pole sits at z = -1)
        xyz = chart_to_unit_surface(SPHERE, verts)
        keep &= np.bincount(owner, (xyz[:, 2] > 0.0)[index], minlength=tess.n) == 0
        verts = xyz[:, :2]
    elif projection == "stereographic":
        # the equator maps to r = 1; r = 4 reaches 150 degrees colatitude,
        # beyond which cells blow up toward the projection pole
        extent = 4.0
        far = ~(np.sum(verts * verts, axis=1) <= extent * extent)
        keep &= np.bincount(owner, far[index], minlength=tess.n) == 0
    if not keep.any():
        where = "out of view" if kind == SPHERE else "boundary cells"
        raise ValueError(f"nothing to draw: all {tess.n} cells are {where}")
    drawn_offsets = np.concatenate(([0], np.cumsum(np.diff(offsets)[keep])))
    drawn = index[keep[owner]]
    xy = np.column_stack((verts[:, 0], -verts[:, 1]))  # SVG's y points down
    if projection == "chart" and kind != HYPERBOLIC:
        extent = 1.02 * float(np.max(np.abs(xy[drawn])))

    stroke = extent / 600.0
    header = np.array([-extent, 2.0 * extent, stroke, 6.0 * stroke])
    corner, box, width, dot = str(_g_rows(header, 6), "ascii").split()
    pen = f'stroke="black" stroke-width="{width}"'
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{corner} {corner} {box} {box}">',
        f'<rect x="{corner}" y="{corner}" width="{box}" height="{box}" fill="white"/>',
    ]
    if kind == HYPERBOLIC:
        lines.append(f'<circle cx="0" cy="0" r="1" fill="none" {pen}/>')
    # the end of a drawn cell's <polygon>, by its side count, padded with 0
    ends = [f'" fill="{fill}" {pen}/>\n' for fill in _FILLS]
    longest = max(map(len, ends))
    ends = np.frombuffer("".join(end.ljust(longest, "\0") for end in ends).encode(), dtype=np.uint8)
    fills = np.minimum(tess.cells.sides[keep], len(_FILLS) - 1)
    lines += _polygons(xy, drawn, drawn_offsets, ends.reshape(len(_FILLS), longest), fills)
    # white dot on the pattern origin (chart center / near pole); joining a
    # last "" ends the text with a newline without copying it
    lines += [f'<circle cx="0" cy="0" r="{dot}" fill="white" {pen}/>', "</svg>", ""]
    return "\n".join(lines)


def _polygons(
    xy: np.ndarray, index: np.ndarray, offsets: np.ndarray, ends: np.ndarray, fills: np.ndarray
) -> list[str]:
    """The texts of the <polygon> lines of cells j, _CELLS cells a text.

    Cell j has the corners xy[index[offsets[j]:offsets[j + 1]]] and the end
    ends[fills[j]].  Each point it draws is formatted once, _BLOCK points
    at a time, into the row " x,y" of a byte array padded with 0.
    """
    used = np.zeros(len(xy), dtype=bool)
    used[index] = True
    values = xy[used]
    formatted = [_g_rows(values[lo : lo + _BLOCK].ravel(), 6, blank=0) for lo in range(0, len(values), _BLOCK)]
    width = max(rows.shape[1] for rows in formatted)
    point = np.zeros((len(values), 2 * width + 2), dtype=np.uint8)
    point[:, 0], point[:, width + 1] = 32, 44
    for lo, rows in zip(range(0, len(values), _BLOCK), formatted):
        point[lo : lo + _BLOCK, 1 : rows.shape[1] + 1] = rows[0::2]
        point[lo : lo + _BLOCK, width + 2 : width + 2 + rows.shape[1]] = rows[1::2]
    rank = np.cumsum(used) - 1  # the row of point that holds each point of xy
    texts = []
    for lo in range(0, len(fills), _CELLS):
        corners = offsets[lo : lo + _CELLS + 1]
        read = point[rank[index[corners[0] : corners[-1]]]]
        text = _polygon_bytes(read, np.diff(corners), ends[fills[lo : lo + _CELLS]])
        texts.append(str(text[:-1], "ascii"))  # made once the cells' arrays are freed
    return texts


def _polygon_bytes(corners: np.ndarray, sides: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The bytes of the <polygon> lines of cells whose corners, in order, are the rows of corners.

    Cell j is row j of a byte array: the polygon's head, its sides[j]
    corners, 0 where it has fewer corners than the most, and ends[j].  The
    text is the array's bytes other than 0.
    """
    head, body = len(_POLYGON), sides.max() * corners.shape[1]
    rows = np.zeros((len(sides), head + body + ends.shape[1]), dtype=np.uint8)
    rows[:, :head], rows[:, head + body :] = _POLYGON, ends
    slots = rows[:, head : head + body].reshape(len(sides), sides.max(), corners.shape[1])
    cell = np.repeat(np.arange(len(sides)), sides)
    slots[cell, np.arange(len(corners)) - (np.cumsum(sides) - sides)[cell]] = corners
    slots[:, 0, 0] = 0  # no blank before the first corner
    flat = rows.ravel()
    return flat[flat != 0]
