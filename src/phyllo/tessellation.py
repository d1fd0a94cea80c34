"""Voronoi cells and Delaunay adjacency for a generated pattern.

Every cell is the fan of circumcenters of the Delaunay triangles around its
site.  Plane and disc patterns are triangulated on their charts with
Euclidean predicates: both charts are conformal, so chart circles are metric
circles and the Delaunay combinatorics agree with the intrinsic ones.  Sphere
patterns are triangulated by the convex hull of the embedded points.  Qhull
yields the triangles and nothing else.  Plane cells are Euclidean polygons.
On both curved surfaces a vertex is the unit normal of the plane through the
lifted sites of its triangle (the hull facet normal on the sphere, a
Minkowski normal on the hyperboloid over the disc, lifted as seen from one
corner moved to the origin), and an area is the fan of geodesic triangles.

From the triangles on, every surface takes one path: one edge list, one
stable sort of the triangle corners by site, and one sort of each fan by the
direction of the geodesic to each vertex.  Sites with the same number of
triangles are processed together, at most _BLOCK at a time, which bounds the
temporary memory.  Each value is reduced in the order, and through the same
numpy and BLAS kernels, that a cell-by-cell computation would use (row dot
products go through a stacked matmul, fan terms are summed with math.atan2),
so the results are bit-identical to the per-cell formulas.

A Tessellation holds columns only: the Delaunay links as one CSR table, the
fixed-width cell values as one array each, and every chart polygon as a
slice of one vertex array.  Lengths and areas are normalized so the mean
cell area is pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, Delaunay, QhullError

from .generator import PhylloPattern, normalization_scale
from .geometry import HYPERBOLIC, PLANE, SPHERE, chart_distance_xy, chart_to_unit_surface
from .numerics import MAX_FIB_RANK, fibonacci

__all__ = ["Tessellation", "tessellate"]

#: side count -> cell label; anything else is "other"
CELL_TYPE_BY_SIDES = {4: "square", 5: "pentagon", 6: "hexagon", 7: "heptagon"}

#: f_u for u = 2, 3, ..., MAX_FIB_RANK: strictly increasing, so a step's rank
#: is its position here plus 2
_FIBS = np.array([fibonacci(u) for u in range(2, MAX_FIB_RANK + 1)], dtype=np.int64)

#: sites per array block; bounds the temporary arrays of the cell geometry
_BLOCK = 2048


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Delaunay links in CSR form, both directions of every edge.

    Site s links to ``indices[indptr[s]:indptr[s + 1]]``, in ascending
    order, and ``distance`` holds the metric length of each link; the two
    directions of an edge carry the same value.
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (links,) int64: the far site t of each link
    distance: np.ndarray  # (links,) float64

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, s: int) -> np.ndarray:
        """The neighbor sites of site s, ascending."""
        s = range(len(self))[s]  # IndexError past either end, as for a list
        return self.indices[self.indptr[s] : self.indptr[s + 1]]

    @property
    def source(self) -> np.ndarray:
        """The near site s of each link."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    @property
    def delta(self) -> np.ndarray:
        """The index step t - s of each link."""
        return self.indices - self.source

    @property
    def rank(self) -> np.ndarray:
        """Parastichy rank u of each link, where |t - s| = f_u (u >= 2); else -1."""
        step = np.abs(self.delta)
        u = np.minimum(np.searchsorted(_FIBS, step), len(_FIBS) - 1)
        return np.where(_FIBS[u] == step, u + 2, -1)


#: the fixed-width values of one cell, as Python scalars (a numpy record
#: array would yield numpy scalars, whose sums JSON cannot write)
Cell = NamedTuple("Cell", [("sides", int), ("area", float), ("is_boundary", bool)])


@dataclass(frozen=True, eq=False)
class Cells:
    """The fixed-width values of every cell, one column each, indexed by site.

    ``sides`` is the number of Delaunay neighbors and ``area`` the metric
    area (nan for boundary cells).  Iteration yields one Cell per site.
    """

    sides: np.ndarray  # (n,) int64
    area: np.ndarray  # (n,) float64
    is_boundary: np.ndarray  # (n,) bool

    def __iter__(self):
        return map(Cell, self.sides.tolist(), self.area.tolist(), self.is_boundary.tolist())


@dataclass(eq=False)
class Tessellation:
    """The Voronoi cells and Delaunay links of a pattern, as columns.

    The chart polygon of site s is
    ``vertices[vertex_offsets[s]:vertex_offsets[s + 1]]``, in order around
    the cell.
    """

    pattern: PhylloPattern
    cells: Cells
    adjacency: Adjacency
    vertex_offsets: np.ndarray  # (n + 1,) int64
    vertices: np.ndarray  # (V, 2) float64

    @property
    def n(self) -> int:
        return self.pattern.n


def _check_distinct(points: np.ndarray) -> None:
    order = np.lexsort(points.T)
    same = np.flatnonzero(np.all(points[order[1:]] == points[order[:-1]], axis=1))
    if len(same):
        i, j = sorted(order[same[0] : same[0] + 2].tolist())
        raise ValueError(f"coincident sites {i} and {j}")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (m, k) arrays.

    The stacked matmul hands each row pair to the same BLAS dot that
    ``np.dot`` uses on one pair, so every value has the bits of the per-row
    call; ``(a * b).sum(1)`` and ``einsum`` round differently.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _blocks(sizes: np.ndarray):
    """(k, indices of sizes equal to k) in ascending order, _BLOCK at a time."""
    for k in np.unique(sizes).tolist():
        sites = np.flatnonzero(sizes == k)
        for lo in range(0, len(sites), _BLOCK):
            yield k, sites[lo : lo + _BLOCK]


def _polygon_areas(poly: np.ndarray) -> np.ndarray:
    """Signed shoelace areas of m chart polygons given as an (m, k, 2) array."""
    x, y = poly[..., 0], poly[..., 1]
    return 0.5 * (_row_dot(x, np.roll(y, -1, axis=1)) - _row_dot(y, np.roll(x, -1, axis=1)))


def _fan_areas(ring: np.ndarray, sign: float) -> np.ndarray:
    """Signed areas of m geodesic polygons on the unit sphere (sign 1) or hyperboloid (-1)."""
    # Van Oosterom and Strackee's fan: tan(A/2) = a.(b x c) / (1 + a.cos b +
    # b.cos c + c.cos a), where x.cos y is the cosine or hyperbolic cosine of a
    # side (cos y = y on the sphere, bit for bit); np.arctan2 rounds differently
    cos = ring * np.array([sign, sign, 1.0])
    fan = np.zeros(len(ring))
    a = ring[:, 0]
    for j in range(1, ring.shape[1] - 1):
        b, c = ring[:, j], ring[:, j + 1]
        numer = _row_dot(a, np.cross(b, c))
        denom = 1.0 + _row_dot(a, cos[:, j]) + _row_dot(b, cos[:, j + 1]) + _row_dot(c, cos[:, 0])
        fan += 2.0 * np.array(list(map(math.atan2, numer.tolist(), denom.tolist())))
    return fan


def _delaunay(xy: np.ndarray) -> tuple[np.ndarray, ...]:
    """Delaunay triangles, none of zero area: corners, a, b - a, c - a, 2 x chart area."""
    tri = Delaunay(xy)
    if len(tri.coplanar):
        raise ValueError(f"site {int(tri.coplanar[0, 0])} lies in no Delaunay triangle")
    simplices = tri.simplices
    a = xy[simplices[:, 0]]
    b = xy[simplices[:, 1]] - a
    c = xy[simplices[:, 2]] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if not d.all():
        corners = sorted(simplices[np.argmin(np.abs(d))].tolist())
        raise ValueError(f"degenerate Delaunay triangle of sites {corners}")
    return simplices, a, b, c, d


def _plane_triangles(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delaunay triangles of plane sites and their circumcenters."""
    simplices, a, b, c, d = _delaunay(xy)
    b2, c2 = np.sum(b * b, axis=1), np.sum(c * c, axis=1)
    offset = np.column_stack((c[:, 1] * b2 - b[:, 1] * c2, b[:, 0] * c2 - c[:, 0] * b2))
    return simplices, a + offset / d[:, None]


def _to_origin(xy: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Disc points (..., 2) as seen from p: the isometry taking p to the origin."""
    z, p = xy.view(complex), p.view(complex)
    return ((z - p) / (1.0 - np.conj(p) * z)).view(float)


def _disc_triangles(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delaunay triangles of disc sites and their circumcenters.

    With corner a moved to the origin, the lift of a corner w minus that of a
    is 2 (w, |w|^2) / (1 - |w|^2), parallel to (w, |w|^2).  A timelike normal
    is the circumcenter, (x, y)/(1 + z) in the chart; any other (no hyperbolic
    circle) puts its vertex at (x, y)/z, on or outside the unit circle.
    """
    simplices, minkowski = _delaunay(xy)[0], np.array([1.0, 1.0, -1.0])
    a = xy[simplices[:, 0]]
    b, c = (_to_origin(xy[simplices[:, j]], a) for j in (1, 2))
    normal = np.cross(*(np.column_stack((w, np.sum(w * w, axis=1))) for w in (b, c)))
    normal *= np.where(normal[:, 2] > 0.0, -1.0, 1.0)[:, None] * minkowski  # upper sheet
    norm = np.sqrt(np.maximum(-_row_dot(normal, normal * minkowski), 0.0))
    center = (normal[:, 0] + 1j * normal[:, 1]) / (norm + normal[:, 2])
    return simplices, _to_origin(center[:, None].view(float), -a)


def _sphere_triangles(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hull facets of sphere sites and their circumcenters, as unit vectors."""
    hull = ConvexHull(xyz)
    if hull.nsimplex < 4 or len(hull.vertices) != len(xyz):
        inside = sorted(set(range(len(xyz))) - set(map(int, hull.vertices)))
        raise ValueError(f"sites not in convex position: {inside[:5]}")
    # facet circumcenters: outward unit normals of the hull facets
    centers = hull.equations[:, :3].copy()
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    return hull.simplices, centers


def tessellate(pattern: PhylloPattern) -> Tessellation:
    """Build the Voronoi tessellation of a pattern (deterministic).

    Patterns Qhull cannot triangulate (too few sites, all sites on a line or
    plane, coordinates below its precision) raise ValueError, as do chart
    triangulations that leave a site out or hold a zero-area triangle.
    """
    n, surface, kind, R = pattern.n, pattern.surface, pattern.surface.kind, pattern.surface.R
    points = pattern.xyz if kind == SPHERE else pattern.chart_xy
    _check_distinct(points)
    triangles = {SPHERE: _sphere_triangles, HYPERBOLIC: _disc_triangles, PLANE: _plane_triangles}
    try:
        simplices, centers = triangles[kind](points)
    except QhullError as exc:
        raise ValueError(
            f"Qhull cannot tessellate this {kind} pattern of {n} sites: {exc}"
        ) from exc
    scale = normalization_scale(surface)

    # each triangle edge once, as i * n + j with i < j; hull edges are in one triangle
    edges = np.vstack((simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]))
    edges.sort(axis=1)
    key, count = np.unique(edges[:, 0].astype(np.int64) * n + edges[:, 1], return_counts=True)
    pairs = np.column_stack((key // n, key % n))
    if kind == SPHERE:
        unit = points / R
        cosang = np.clip(np.sum(unit[pairs[:, 0]] * unit[pairs[:, 1]], axis=1), -1.0, 1.0)
        dist = R * np.arccos(cosang)
    else:
        dist = chart_distance_xy(surface, points[pairs[:, 0]], points[pairs[:, 1]])
    # CSR links, each site's sorted by t: link 2e runs pairs[e, 0] -> pairs[e, 1], 2e + 1 back
    s, t = pairs.ravel(), pairs[:, ::-1].ravel().astype(np.int64)
    order = np.lexsort((t, s))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(s, minlength=n))))
    adjacency = Adjacency(indptr, t[order], np.repeat(dist / scale, 2)[order])

    # hull sites have unbounded cells, and the window cuts every cell with a
    # vertex beyond the outermost site
    boundary = np.zeros(n, dtype=bool)
    boundary[pairs[count == 1]] = True
    if kind != SPHERE:
        boundary[simplices[np.sum(centers * centers, axis=1) > pattern.r.max() ** 2]] = True

    # incident triangles of each site in ascending triangle order
    corners = simplices.ravel()
    fans = np.argsort(corners, kind="stable") // 3
    offsets = np.concatenate(([0], np.cumsum(np.bincount(corners, minlength=n))))
    if kind == SPHERE:
        # tangent-plane basis to sort the circumcenters around each site
        helper = np.where((np.abs(unit[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        e1 = np.cross(unit, helper)
        e1 /= np.sqrt(_row_dot(e1, e1))[:, None]
        e2 = np.cross(unit, e1)

    areas = np.full(n, math.nan)
    vertices = np.empty((len(corners), 2))
    for k, rows in _blocks(np.diff(offsets)):
        slots = offsets[rows][:, None] + np.arange(k)
        ring = centers[fans[slots]]  # (m, k, 3) on the sphere, (m, k, 2) on a chart
        if kind == SPHERE:
            x = (ring @ e1[rows][:, :, None])[..., 0]
            y = (ring @ e2[rows][:, :, None])[..., 0]
        elif kind == HYPERBOLIC:
            # each cell as seen from its site, where geodesics are diameters
            moved = _to_origin(ring, points[rows][:, None, :])
            x, y = moved[..., 0], moved[..., 1]
        else:
            x, y = np.moveaxis(ring - points[rows][:, None, :], -1, 0)
        turn = np.argsort(np.arctan2(y, x), axis=1)[..., None]
        ring = np.take_along_axis(ring, turn, axis=1)
        inner = ~boundary[rows]
        # a cell is convex around its site, so its sorted fan turns counterclockwise
        if kind == PLANE:
            area = _polygon_areas(ring[inner])
        elif kind == SPHERE:
            area = _fan_areas(ring[inner], 1.0) * R * R
        else:
            moved = chart_to_unit_surface(kind, np.take_along_axis(moved, turn, axis=1)[inner])
            area = _fan_areas(moved, -1.0) * R * R
        areas[rows[inner]] = area / (scale * scale)
        if kind == SPHERE:
            # stereographic chart polygon of the ordered vertices, for rendering
            polar = 1.0 - ring[..., 2]
            ring = np.where(polar[..., None] > 1e-12, ring[..., :2] / polar[..., None], np.inf)
        vertices[slots] = ring

    cells = Cells(np.diff(adjacency.indptr), areas, boundary)
    return Tessellation(pattern, cells, adjacency, offsets, vertices)


def classify(tess: Tessellation) -> list[str]:
    """Per-site cell label from the side count; boundary cells set aside."""
    top = max(CELL_TYPE_BY_SIDES) + 1  # this and every larger side count is "other"
    names = [CELL_TYPE_BY_SIDES.get(k, "other") for k in range(top + 1)] + ["boundary"]
    code = np.where(tess.cells.is_boundary, top + 1, np.minimum(tess.cells.sides, top))
    return np.array(names)[code].tolist()


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
        others = pattern.xyz[tess.adjacency[s]]
        return bool(np.all(point @ site >= others @ point))
    xy = pattern.chart_xy
    site = xy[s]
    others = xy[tess.adjacency[s]]
    d2s = float(np.sum((point - site) ** 2))
    d2t = np.sum((point - others) ** 2, axis=1)
    if kind == PLANE:
        return bool(np.all(d2s <= d2t))
    w_s = 1.0 - float(np.sum(site * site))
    w_t = 1.0 - np.sum(others * others, axis=1)
    return bool(np.all(d2s * w_t <= d2t * w_s))
