"""Voronoi cells and Delaunay adjacency for a generated pattern.

Plane and disc patterns are tessellated on their charts with Euclidean
predicates: both charts are conformal, so chart circles are metric circles
and the Delaunay combinatorics agree with the intrinsic ones.  Cell edges
are kept as straight chart segments (they are short, and the combinatorics
do not depend on how the edges are drawn); areas are always metric.  Sphere
patterns are tessellated through the convex hull of the embedded points,
whose facets are the Delaunay triangles and whose facet normals point at the
Voronoi vertices.

All reported lengths and areas are normalized so the mean cell area is pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError, Voronoi

from .generator import PhylloPattern, normalization_scale
from .geometry import PLANE, SPHERE, chart_distance_xy
from .numerics import MAX_FIB_RANK, fibonacci

__all__ = [
    "VoronoiCell",
    "NeighborLink",
    "Tessellation",
    "tessellate",
    "classify",
    "CELL_TYPE_BY_SIDES",
    "cell_contains",
]

#: side count -> cell label; anything else is "other"
CELL_TYPE_BY_SIDES = {4: "square", 5: "pentagon", 6: "hexagon", 7: "heptagon"}

_FIB_RANK = {fibonacci(u): u for u in range(2, MAX_FIB_RANK + 1)}  # 1 -> rank 2


@dataclass(frozen=True)
class NeighborLink:
    """One Delaunay edge, seen from site s."""

    s: int
    t: int
    delta_s: int
    distance: float
    parastichy_rank: int | None


@dataclass(eq=False)
class VoronoiCell:
    s: int
    vertices: np.ndarray  # (k, 2) chart polygon, counterclockwise
    sides: int  # number of Delaunay neighbors
    area: float  # metric area (nan for boundary cells)
    is_boundary: bool


@dataclass(eq=False)
class Tessellation:
    pattern: PhylloPattern
    cells: list[VoronoiCell]
    adjacency: list[list[NeighborLink]]

    @property
    def n(self) -> int:
        return self.pattern.n

    @property
    def sides(self) -> np.ndarray:
        return np.array([c.sides for c in self.cells])

    @property
    def areas(self) -> np.ndarray:
        return np.array([c.area for c in self.cells])

    @property
    def boundary_mask(self) -> np.ndarray:
        return np.array([c.is_boundary for c in self.cells])

    def neighbor_sites(self, s: int) -> list[int]:
        return [link.t for link in self.adjacency[s]]


def _check_distinct(points: np.ndarray) -> None:
    order = np.lexsort(points.T)
    sorted_pts = points[order]
    same = np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)
    if np.any(same):
        k = int(np.argmax(same))
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise ValueError(f"coincident sites {i} and {j}")


def _links_from_pairs(pattern: PhylloPattern, pairs: np.ndarray, dist: np.ndarray):
    adjacency: list[list[NeighborLink]] = [[] for _ in range(pattern.n)]
    for (i, j), d in zip(pairs, dist):
        i, j, d = int(i), int(j), float(d)
        adjacency[i].append(NeighborLink(i, j, j - i, d, _FIB_RANK.get(abs(j - i))))
        adjacency[j].append(NeighborLink(j, i, i - j, d, _FIB_RANK.get(abs(i - j))))
    for links in adjacency:
        links.sort(key=lambda link: link.t)
    return adjacency


def _polygon_area(vertices: np.ndarray) -> float:
    x, y = vertices[:, 0], vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _hyperbolic_polygon_area(vertices: np.ndarray, R: float) -> float:
    """Metric area of a straight-edge chart polygon, by midpoint quadrature.

    Fans the polygon around its chart centroid and integrates the area
    density (2R/(1-r^2))^2 with the degree-2 edge-midpoint rule on each
    triangle.  Cell-sized triangles keep the rule's error far below any
    tolerance used in the analysis.
    """
    g = vertices.mean(axis=0)
    a = vertices
    b = np.roll(vertices, -1, axis=0)
    cross = (a[:, 0] - g[0]) * (b[:, 1] - g[1]) - (a[:, 1] - g[1]) * (b[:, 0] - g[0])
    mids = np.stack(((a + b) / 2, (g + a) / 2, (g + b) / 2))  # (3, k, 2)
    lam2 = (2.0 * R / (1.0 - np.sum(mids * mids, axis=-1))) ** 2
    return float(np.sum(0.5 * cross * lam2.mean(axis=0)))


def _tessellate_chart(pattern: PhylloPattern) -> Tessellation:
    xy = pattern.chart_xy
    _check_distinct(xy)
    vor = Voronoi(xy)
    scale = normalization_scale(pattern.surface)

    pairs = vor.ridge_points
    dist = chart_distance_xy(pattern.surface, xy[pairs[:, 0]], xy[pairs[:, 1]]) / scale
    adjacency = _links_from_pairs(pattern, pairs, dist)

    r_max = float(pattern.r.max())
    cells: list[VoronoiCell] = []
    for s in range(pattern.n):
        region = vor.regions[vor.point_region[s]]
        unbounded = -1 in region
        verts = vor.vertices[[v for v in region if v != -1]]
        boundary = unbounded or bool(np.any(np.sum(verts * verts, axis=1) > r_max * r_max))
        if boundary:
            area = math.nan
        elif pattern.surface.kind == PLANE:
            area = abs(_polygon_area(verts)) / (scale * scale)
        else:
            # abs: scipy does not promise an orientation for region vertices
            area = abs(_hyperbolic_polygon_area(verts, pattern.surface.R)) / (scale * scale)
        cells.append(VoronoiCell(s, verts, len(adjacency[s]), area, boundary))
    return Tessellation(pattern, cells, adjacency)


def _triangle_solid_angle(a, b, c) -> float:
    """Signed solid angle of the spherical triangle on unit vectors a, b, c."""
    numer = float(np.dot(a, np.cross(b, c)))
    denom = 1.0 + float(np.dot(a, b)) + float(np.dot(b, c)) + float(np.dot(c, a))
    return 2.0 * math.atan2(numer, denom)


def _tessellate_sphere(pattern: PhylloPattern) -> Tessellation:
    xyz = pattern.xyz
    _check_distinct(xyz)
    hull = ConvexHull(xyz)
    if hull.nsimplex < 4 or len(hull.vertices) != pattern.n:
        inside = sorted(set(range(pattern.n)) - set(map(int, hull.vertices)))
        raise ValueError(f"sites not in convex position: {inside[:5]}")

    R = pattern.surface.R
    unit = xyz / R
    # facet circumcenters: outward unit normals of the hull facets
    centers = hull.equations[:, :3].copy()
    centers /= np.linalg.norm(centers, axis=1)[:, None]

    simplices = hull.simplices
    edges = np.vstack((simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]))
    edges.sort(axis=1)
    pairs = np.unique(edges, axis=0)
    cosang = np.clip(np.sum(unit[pairs[:, 0]] * unit[pairs[:, 1]], axis=1), -1.0, 1.0)
    scale = normalization_scale(pattern.surface)
    adjacency = _links_from_pairs(pattern, pairs, R * np.arccos(cosang) / scale)

    incident: list[list[int]] = [[] for _ in range(pattern.n)]
    for f, tri in enumerate(simplices):
        for v in tri:
            incident[int(v)].append(f)

    cells: list[VoronoiCell] = []
    scale2 = scale * scale
    for s in range(pattern.n):
        site = unit[s]
        # tangent-plane basis to sort the incident circumcenters around the site
        helper = np.array([0.0, 0.0, 1.0]) if abs(site[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(site, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(site, e1)
        ring = centers[incident[s]]
        order = np.argsort(np.arctan2(ring @ e2, ring @ e1))
        ring = ring[order]
        area = 0.0
        for k in range(1, len(ring) - 1):
            area += _triangle_solid_angle(ring[0], ring[k], ring[k + 1])
        area = abs(area) * R * R / scale2
        # chart polygon of the ordered Voronoi vertices, for rendering
        denom = 1.0 - ring[:, 2]
        verts = np.where(denom[:, None] > 1e-12, ring[:, :2] / denom[:, None], np.inf)
        cells.append(VoronoiCell(s, verts, len(adjacency[s]), area, False))
    return Tessellation(pattern, cells, adjacency)


def tessellate(pattern: PhylloPattern) -> Tessellation:
    """Build the Voronoi tessellation of a pattern (deterministic).

    Patterns Qhull cannot triangulate (too few sites, all sites on a line
    or plane, coordinates below its precision) raise ValueError.
    """
    build = _tessellate_sphere if pattern.surface.kind == SPHERE else _tessellate_chart
    try:
        return build(pattern)
    except QhullError as exc:
        raise ValueError(
            f"Qhull cannot tessellate this {pattern.surface.kind} pattern of"
            f" {pattern.n} sites: {exc}"
        ) from exc


def classify(tess: Tessellation) -> list[str]:
    """Per-site cell label from the side count; boundary cells set aside."""
    return [
        "boundary" if c.is_boundary else CELL_TYPE_BY_SIDES.get(c.sides, "other")
        for c in tess.cells
    ]


def cell_contains(tess: Tessellation, s: int, point) -> bool:
    """Whether a probe point lies in cell s (ties count as inside).

    Decided purely against the constructed adjacency: the probe is in the
    cell iff it is at least as close to s as to every Delaunay neighbor of
    s.  The comparisons reduce to polynomial predicates on each chart.
    """
    pattern = tess.pattern
    point = np.asarray(point, dtype=float)
    kind = pattern.surface.kind
    if kind == SPHERE:
        site = pattern.xyz[s]
        others = pattern.xyz[tess.neighbor_sites(s)]
        return bool(np.all(point @ site >= others @ point))
    xy = pattern.chart_xy
    site = xy[s]
    others = xy[tess.neighbor_sites(s)]
    d2s = float(np.sum((point - site) ** 2))
    d2t = np.sum((point - others) ** 2, axis=1)
    if kind == PLANE:
        return bool(np.all(d2s <= d2t))
    w_s = 1.0 - float(np.sum(site * site))
    w_t = 1.0 - np.sum(others * others, axis=1)
    return bool(np.all(d2s * w_t <= d2t * w_s))
