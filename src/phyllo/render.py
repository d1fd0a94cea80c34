"""SVG rendering of tessellations.

Figures are drawn straight from chart coordinates into a square viewBox, one
``<polygon>`` per interior cell, colored by cell class: pentagons blue,
hexagons red, heptagons green, four-sided cells yellow.  A white dot marks
the pattern origin.  Output contains no timestamps or other run metadata,
so identical input gives byte-identical SVG.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import HYPERBOLIC, SPHERE
from .tessellation import Tessellation, classify

__all__ = ["CELL_COLORS", "PROJECTIONS", "default_projection", "render_svg"]

CELL_COLORS = {
    "pentagon": "blue",
    "hexagon": "red",
    "heptagon": "green",
    "square": "yellow",
}
FALLBACK_COLOR = "lightgray"

PROJECTIONS = ("chart", "orthographic", "stereographic")


def default_projection(tess: Tessellation) -> str:
    return "orthographic" if tess.pattern.surface.kind == SPHERE else "chart"


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _polygon(points, color: str, stroke_width: float) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in points)
    return (
        f'<polygon points="{coords}" fill="{color}" '
        f'stroke="black" stroke-width="{_fmt(stroke_width)}"/>'
    )


def _chart_to_unit_sphere(verts: np.ndarray) -> np.ndarray:
    r2 = np.sum(verts * verts, axis=1)
    denom = 1.0 + r2
    return np.column_stack(
        [2.0 * verts[:, 0] / denom, 2.0 * verts[:, 1] / denom, (r2 - 1.0) / denom]
    )


def render_svg(tess: Tessellation, projection: str | None = None, size: int = 900) -> str:
    """Draw the tessellation; returns the SVG text."""
    if projection is None:
        projection = default_projection(tess)
    if projection not in PROJECTIONS:
        raise ValueError(f"unknown projection {projection!r}")
    kind = tess.pattern.surface.kind
    if projection != "chart" and kind != SPHERE:
        raise ValueError(f"projection {projection!r} needs a sphere pattern")

    labels = classify(tess)
    offsets, verts = tess.vertex_offsets, tess.vertices
    owner = np.repeat(np.arange(tess.n), np.diff(offsets))
    keep = ~tess.cells.is_boundary
    extent = 1.0  # the orthographic disc and the Poincare disc's limit circle
    if projection == "orthographic":
        # drop the back hemisphere (the origin pole sits at z = -1)
        xyz = _chart_to_unit_sphere(verts)
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
    if projection == "chart" and kind != HYPERBOLIC:
        extent = 1.02 * float(np.max(np.abs(verts[keep[owner]])))

    stroke = extent / 600.0
    box = _fmt(2.0 * extent)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="{_fmt(-extent)} {_fmt(-extent)} {box} {box}">',
        f'<rect x="{_fmt(-extent)}" y="{_fmt(-extent)}" width="{box}" height="{box}" fill="white"/>',
    ]
    if kind == HYPERBOLIC:
        lines.append(
            f'<circle cx="0" cy="0" r="1" fill="none" stroke="black" stroke-width="{_fmt(stroke)}"/>'
        )
    for s in np.flatnonzero(keep).tolist():
        color = CELL_COLORS.get(labels[s], FALLBACK_COLOR)
        lines.append(_polygon(verts[offsets[s] : offsets[s + 1]], color, stroke))
    # white dot on the pattern origin (chart center / near pole)
    lines.append(
        f'<circle cx="0" cy="0" r="{_fmt(6.0 * stroke)}" fill="white" stroke="black" '
        f'stroke-width="{_fmt(stroke)}"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
