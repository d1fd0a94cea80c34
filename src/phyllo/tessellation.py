"""Voronoi cells and Delaunay adjacency for a generated pattern.

Every cell is the fan of circumcenters of the Delaunay triangles around its
site.  Plane and disc patterns are triangulated on their charts with
Euclidean predicates: both charts are conformal, so chart circles are metric
circles and the Delaunay combinatorics agree with the intrinsic ones.  Sphere
patterns are triangulated by the convex hull of the embedded points.

The triangles come from the pattern's own parastichies.  Site s sits at
azimuth 2 pi lam s, so outside the disordered core each Delaunay neighbour
of s is a site s +- q for a parastichy number q of lam (a Fibonacci number
for the golden divergence).  Each site's fan is found among the sites its
steps of four consecutive ranks reach, around the two shortest that hold the
near-lattice neighbours (five on a strongly curved disc, more at the rim and
on a retry; a disordered core site takes as many of its nearest sites), the
sites of a block in one vectorized call, and the fans are kept only if a
certificate proves them the Delaunay triangulation: each triangle is found
from all three corners (as its corners in ascending order: every kept fan
turns counterclockwise, so orientation adds nothing), every edge passes the
in-circle test with a margin, and the triangles number what Euler's formula
asks.  Qhull, which scipy provides and which is imported only then,
triangulates the patterns whose parastichy numbers are not the Fibonacci
numbers (other divergences, decided from lam's continued fraction before
any fan is built), those that do not certify (nearly cocircular sites), and
those whose certificate key of a triangle could overflow int64 (n w**2 >=
2**63, w one more than the widest triangle's index span).  Patterns of
fewer than three sites (four on the sphere) have no triangulation and raise
before either.  Either way a triangle is the row of its corners in
ascending order, so both paths round every circumcenter alike.

Plane cells are Euclidean polygons.  On both curved surfaces a vertex is
the unit normal of the plane through the lifted sites of its triangle (the
hull facet normal on the sphere, a Minkowski normal on the hyperboloid over
the disc, lifted as seen from one corner moved to the origin; where that
plane cuts the hyperboloid in no circle, the vertex is the pole of the
normal's geodesic, outside the disc), and an area is the fan of geodesic
triangles.

From the triangles on, every surface takes one path.  tessellate builds
what ring detection reads: the CSR links with their sources, the side
counts and the boundary flags (which on a chart read the circumcenters, so
those are computed there too).  The links are sorted keys s * n + t: those
of the certified fans, which list each link of their site once and are
open at the hull sites alone; or, as Qhull gives triangles and no fans,
those of both directions of every triangle edge, whose edges met once mark
the hull sites.  The cell geometry is left to two passes, each run at most
once, on the first read of one of its properties:
- the polygon pass sorts the triangle corners by site (one stable sort)
  and each fan by the direction of the geodesic to each vertex;
- the area pass sums each sorted fan; it reads the polygon pass's result,
  running it first if no polygon has been read.
Sites with the same number of triangles are processed together, at most
_BLOCK at a time, which bounds the temporary memory.  Each value is reduced
in the order, and through the same numpy and BLAS kernels, that a
cell-by-cell computation would use (row dot products go through a stacked
matmul, fan terms are summed with math.atan2), so the results are
bit-identical to the per-cell formulas.  Plane circumcenters and areas are
computed on the chart scaled by a power of two near 1/a, which moves no
rounding and keeps their squares and cubes in range at every a.

A Tessellation holds columns only: the Delaunay links as one CSR table, the
fixed-width cell values as one array each, one chart vertex per triangle,
and every chart polygon as a slice of one array of indices into those.
Areas are normalized so the mean cell area is pi; link lengths are measured
by analysis.distance_series, on the links it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generator import PhylloPattern, chart_pow2, normalization_scale
from .geometry import HYPERBOLIC, PLANE, SPHERE, chart_to_unit_surface
from .numerics import FIBONACCI, fibonacci_rank

__all__ = ["Tessellation", "tessellate"]

#: side count -> cell label; anything else is "other"
CELL_TYPE_BY_SIDES = {4: "square", 5: "pentagon", 6: "hexagon", 7: "heptagon"}

#: sites per array block; bounds the temporary arrays of the cell geometry
_BLOCK = 2048

#: candidate steps of the parastichy triangulation, as ranks relative to the
#: rank k of the step to a site's nearest site: for most sites (k - 2 to k + 1,
#: or k - 1 to k + 2 where step k + 2 reaches a nearer site than step k - 2),
#: for the bulk of a disc more curved than _NARROW_A, for the rim, and for a retry
_BULK, _WIDE, _RIM, _RETRY = (-2, 1), (-2, 2), (-6, 2), (-7, 3)

#: the largest disc curvature a (in cell units) whose bulk takes _BULK.  A
#: near-lattice site's neighbours are its two shortest steps and their sum
#: or difference, four consecutive ranks; curvature shears the lattice apart
#: from that.  Measured by tessellate on discs of 3000 and 20000 sites at
#: a = 0.10, 0.11, ..., 0.15 with both windows: _BULK certified on the first
#: try and was faster up to 0.12 (52 against 62 ms at 20000 sites); at 0.13
#: it missed a neighbour of 164 of the 15,807 bulk sites of 20000 (1,449 at
#: 0.15), and the retry made it slower than _WIDE (84 against 69 ms).
#: Spheres and planes need no bound: with _BULK, no bulk site of a sphere of
#: 25 to 163689 sites, nor of a plane of 100 to 100000, missed a neighbour.
_NARROW_A = 0.12

#: the disordered core: sites this close in index to either end of the
#: index range take the nearest of the _CORE_POOL sites at that end and of
#: their steps, as many candidates as their block's other sites take
_CORE, _CORE_POOL = 12, 32

#: a turn whose sine is smaller is too close to four cocircular sites for
#: the parastichy triangulation to decide; Qhull decides such patterns
_MIN_SINE = 1e-9


class _Pass:
    """Values computed together, once, the first time they are read.

    It holds the inputs of its function until the first call runs it, and
    from then on only the result.  An input may be another _Pass, which the
    function calls for the values it reads: so a pass runs the one it reads
    from first, and that one's result is shared, not computed again.
    """

    def __init__(self, run, *inputs):
        self._run, self._inputs, self._result = run, inputs, None

    def __call__(self):
        if self._result is None:
            self._result, self._inputs = self._run(*self._inputs), None
        return self._result


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Delaunay links in CSR form, both directions of every edge.

    Site s links to ``indices[indptr[s]:indptr[s + 1]]``, in ascending
    order; ``source`` holds the near site s of each link.
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (links,) int64: the far site t of each link
    source: np.ndarray  # (links,) int64

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, s: int) -> np.ndarray:
        """The neighbor sites of site s, ascending."""
        s = range(len(self))[s]  # IndexError past either end, as for a list
        return self.indices[self.indptr[s] : self.indptr[s + 1]]

    @property
    def delta(self) -> np.ndarray:
        """The index step t - s of each link."""
        return self.indices - self.source

    @property
    def rank(self) -> np.ndarray:
        """Parastichy rank u of each link, where |t - s| = f_u (u >= 2); else -1."""
        return fibonacci_rank(np.abs(self.delta))


#: the triangulation's values of one cell, as Python scalars (a numpy record
#: array would yield numpy scalars, whose sums JSON cannot write)
Cell = NamedTuple("Cell", [("sides", int), ("is_boundary", bool)])


@dataclass(frozen=True, eq=False)
class Cells:
    """The fixed-width values of every cell, one column each, indexed by site.

    ``sides`` is the number of Delaunay neighbors and ``area`` the metric
    area (nan for boundary cells).  ``sides`` and ``is_boundary`` come with
    the triangulation.  ``area`` is a read-only property over the area pass,
    which runs on its first read, from the sorted fans of the polygon pass
    (run first if no chart polygon has been read yet).  Iteration yields one
    Cell per site and runs no pass.
    """

    sides: np.ndarray  # (n,) int64
    is_boundary: np.ndarray  # (n,) bool
    _areas: _Pass  # the area pass
    area = property(lambda self: self._areas())  # (n,) float64

    def __iter__(self):
        return map(Cell, self.sides.tolist(), self.is_boundary.tolist())


@dataclass(eq=False)
class Tessellation:
    """The Voronoi cells and Delaunay links of a pattern, as columns.

    The chart polygon of site s is
    ``vertices[vertex_index[vertex_offsets[s]:vertex_offsets[s + 1]]]``, in
    order around the cell: ``vertices`` holds each Delaunay triangle's
    circumcenter once, for the cells of its three corners.  The adjacency's
    CSR columns and link sources, the side counts and the boundary flags are
    computed by tessellate.  Two passes run on first read, each at most
    once: the polygons (the three vertex properties) and the cell areas
    (``cells.area``, which reads the polygons).  So ring detection reads
    neither, and rendering only the polygons.
    """

    pattern: PhylloPattern
    cells: Cells
    adjacency: Adjacency
    _polygons: _Pass  # the polygon pass
    vertex_offsets = property(lambda self: self._polygons()["vertex_offsets"])  # (n + 1,) int64
    vertices = property(lambda self: self._polygons()["vertices"])  # (triangles, 2) float64
    vertex_index = property(lambda self: self._polygons()["vertex_index"])  # (V,) int64: a vertex row per corner

    @property
    def n(self) -> int:
        return self.pattern.n


def _check_distinct(points: np.ndarray, key: np.ndarray) -> None:
    """Raise ValueError if two sites coincide.

    key is a value per site that equal points share; when it rises strictly
    with s, no two sites are equal and the points are not sorted.
    """
    if np.all(key[1:] > key[:-1]):
        return
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


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis of (..., 3) arrays.

    The products and differences of np.cross in its order, so the same bits,
    without its per-call overhead.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0), axis=-1)


def _blocks(sizes: np.ndarray):
    """(k, indices of sizes equal to k) in ascending order, _BLOCK at a time."""
    # (np.unique(a), with no return_* argument, imports numpy.ma: about 35 ms)
    for k in np.flatnonzero(np.bincount(sizes)).tolist():
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
        numer = _row_dot(a, _cross(b, c))
        denom = 1.0 + _row_dot(a, cos[:, j]) + _row_dot(b, cos[:, j + 1]) + _row_dot(c, cos[:, 0])
        fan += 2.0 * np.fromiter(map(math.atan2, numer.tolist(), denom.tolist()), float, count=len(numer))
    return fan


def _tangent_frames(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal tangent vectors e1, e2 at each unit vector, with e1 x e2 the vector."""
    helper = np.where((np.abs(unit[:, 2]) < 0.9)[:, None], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = _cross(unit, helper)
    e1 /= np.sqrt(_row_dot(e1, e1))[:, None]
    return e1, _cross(unit, e1)


# ---------------------------------------------------------------------------
# Delaunay triangles from the pattern's own parastichies
# ---------------------------------------------------------------------------

def _parastichy_steps(lam: float, n: int) -> np.ndarray | None:
    """The Fibonacci numbers below n if they are lam's parastichy numbers there, else None.

    The parastichy numbers of the spiral lattice are the denominators of
    lam's convergents and intermediate convergents (Coxeter, J. Algebra 20,
    167-175, 1972; Rothen and Koch, J. Phys. France 50, 633-657, 1989): the
    Fibonacci numbers for the golden divergence and its mirror 1 - lam.
    Elsewhere a partial quotient above one puts a run of steps in
    arithmetic progression, along which the sites lie on near-rays (on
    rays, for a rational lam with a denominator below n); the rank of the
    nearest step then no longer brackets the ranks of the neighbours, and
    such patterns go to Qhull without being tried.
    """
    fibs = [f for f in FIBONACCI[2:].tolist() if f < n]
    # the continued fraction of the float lam = num/den, exactly
    num, den = float(lam).as_integer_ratio()
    steps, num = [], num % den
    q2, q1 = 0, 1  # the last two convergent denominators
    while num and q1 < n and steps == fibs[: len(steps)]:
        a, rest = divmod(den, num)
        num, den = rest, num
        run = min(a, (n - 1 - q2) // q1, len(fibs) + 1 - len(steps))
        steps += [q2 + j * q1 for j in range(1, run + 1)]
        q2, q1 = q1, q2 + a * q1
    return np.array(steps, dtype=np.int64) if steps == fibs else None


def _local_rank(coords: tuple[np.ndarray, ...], steps: np.ndarray) -> np.ndarray:
    """Per site s, the position in steps of the q for which s + q or s - q is nearest."""
    n = len(coords[0])
    best, rank = np.full(n, np.inf), np.zeros(n, dtype=np.int64)
    for k, q in enumerate(steps.tolist()):
        d2 = sum((c[q:] - c[:-q]) ** 2 for c in coords)
        for sites in (slice(0, n - q), slice(q, n)):
            nearer = d2 < best[sites]
            best[sites][nearer] = d2[nearer]
            rank[sites][nearer] = k
    return rank


def _leans_out(coords: tuple[np.ndarray, ...], steps: np.ndarray, rank: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """Per site s of rank k, whether step k + 2 reaches a site nearer s than step k - 2 does.

    A step q reaches s + q and s - q, where they exist; a step that reaches
    no site, or a rank outside steps, is infinitely far.
    """
    n = len(rank)
    # steps k - 2 and k + 2, where a rank outside steps takes a step of n
    q = np.concatenate(([n, n], steps, [n, n]))[rank[sites] + [[0], [4]]]
    t = np.concatenate((sites + q, sites - q))  # one row per step and direction
    reached = (t >= 0) & (t < n)
    t = np.where(reached, t, sites)
    d2 = np.where(reached, sum((c[t] - c[sites]) ** 2 for c in coords), np.inf)
    near = np.minimum(d2[:2], d2[2:])
    return near[1] < near[0]


def _inverted(coords, frames, sites: np.ndarray, cand: np.ndarray):
    """x, y and |d|^2 of d = (candidate - site) for (m,) sites and (m, c) candidates.

    (x, y)/|d|^2 is the candidate inverted in a circle about the site: on a
    chart, the chart offset; on the sphere, the offset in the site's tangent
    frame, which makes it the stereographic projection from the site.
    """
    if frames is None:
        x, y = (c[cand] - c[sites][:, None] for c in coords)
        return x, y, x * x + y * y
    e1, e2 = frames[0][sites], frames[1][sites]
    x = y = d2 = 0.0
    for j, c in enumerate(coords):
        d = c[cand] - c[sites][:, None]
        x, y, d2 = x + d * e1[:, j, None], y + d * e2[:, j, None], d2 + d * d
    return x, y, d2


def _fans(coords, frames, sites: np.ndarray, cand: np.ndarray, open_ok):
    """Delaunay fans of (m,) sites among their (m, c) candidates (-1 for none).

    open_ok is a bool, or one per site: whether the site's fan may open.  A
    fan that may not is closed; the gap test runs only on the sites that may.

    Inversion in a circle about site s maps the circles through s to lines.
    So candidate t is a Delaunay neighbour of s among the candidates iff its
    image is a vertex of the convex hull of the images, and of the origin
    when s lies on the hull of the pattern (its images then leave a gap of a
    half turn or more, and the fan is open).  The hull is found by deleting
    reflex vertices of the images sorted by angle, for every site at once.
    Each pass deletes the first vertex of each run of reflex vertices: both
    of its neighbours stay alive, so it is unlinked by one scatter on each
    side.  The passes end when no run has a first vertex; a fan whose live
    images are all reflex keeps them, and is unsound.  The turn at a kept
    vertex t is the in-circle test of the edge (s, t) against the neighbours
    before and after t.

    Returns the neighbours in counterclockwise order, flat, their count per
    site, whether each fan closes, and whether it is sound: every turn and
    every triangle (s, t, next t) counterclockwise with a sine above
    _MIN_SINE, and an open fan spanning less than a half turn by as much.
    """
    m, c = cand.shape
    given = cand >= 0
    cand = np.where(given, cand, sites[:, None])
    x, y, d2 = _inverted(coords, frames, sites, cand)
    d2[~given] = 1.0
    # images sorted by angle; every position below as a flat index
    flat = np.arange(m * c).reshape(m, c)
    order = np.argsort(np.where(given, np.arctan2(y, x), np.inf), axis=1) + flat[:, :1]
    wx, wy, cand = np.take(x / d2, order), np.take(y / d2, order), np.take(cand, order)
    count = given.sum(axis=1)[:, None]
    alive = flat - flat[:, :1] < count
    first, last = flat[:, :1], flat[:, :1] + count - 1
    behind, ahead = np.where(flat > first, flat - 1, last), np.where(flat < last, flat + 1, first)
    closed = np.ones(m, dtype=bool)
    may = np.flatnonzero(np.broadcast_to(open_ok, m))
    if len(may):
        # a gap of a half turn or more between images: the fan is open
        gap = alive[may] & ~(wx[may] * np.take(wy, ahead[may]) - wy[may] * np.take(wx, ahead[may]) > 0)
        opened = gap.any(axis=1)
        closed[may], rows = ~opened, may[opened]
        # an open fan starts after its gap; its ends link to themselves
        start = np.argmax(gap[opened], axis=1)[:, None] + 1
        at = np.where(alive[rows], (flat[rows] - first[rows] + start) % count[rows] + first[rows], flat[rows])
        for a in (wx, wy, cand):
            a[rows] = np.take(a, at)
        behind[rows] = np.where(flat[rows] > first[rows], flat[rows] - 1, flat[rows])
        ahead[rows] = np.where(flat[rows] < last[rows], flat[rows] + 1, flat[rows])

    while True:
        qx, qy = np.take(wx, ahead), np.take(wy, ahead)
        ux, uy = wx - np.take(wx, behind), wy - np.take(wy, behind)
        vx, vy = qx - wx, qy - wy
        turn = ux * vy - uy * vx
        inner = alive & (behind != flat) & (ahead != flat)
        reflex = inner & ~(turn > 0)
        # the first reflex vertex of each run; no two of them are neighbours
        drop = np.flatnonzero(reflex & ~np.take(reflex, behind))
        if not len(drop):
            break
        alive.flat[drop] = False
        back, on = behind.flat[drop], ahead.flat[drop]
        ahead.flat[back], behind.flat[on] = on, back
    floor = _MIN_SINE * _MIN_SINE
    spin = wx * qy - wy * qx
    sound = np.all(
        (~inner | (turn > 0) & (turn * turn > floor * (ux * ux + uy * uy) * (vx * vx + vy * vy)))
        & (~alive | (ahead == flat) | (spin > 0) & (spin * spin > floor * (wx * wx + wy * wy) * (qx * qx + qy * qy)))
        & np.isfinite(wx) & np.isfinite(wy),
        axis=1,
    )
    k = alive.sum(axis=1)
    sound &= k >= np.where(closed, 3, 2)
    if not closed.all():
        # an open fan spans less than a half turn: last to first turns clockwise
        end = np.max(np.where(alive, flat, 0), axis=1)
        lx, ly, fx, fy = np.take(wx, end), np.take(wy, end), wx[:, 0], wy[:, 0]
        span = lx * fy - ly * fx
        sound &= closed | (span < 0) & (span * span > floor * (lx * lx + ly * ly) * (fx * fx + fy * fy))
    return cand[alive], k, closed, sound


def _certify(sphere: bool, count, neighbors, closed, sound):
    """Simplices of the Delaunay triangulation the fans describe, or None; and suspect sites.

    The fans pass when each is sound, each triangle (s, t, next t) is found
    from all three of its corners, and the triangles number 2n - 2 - h on a
    chart (h open fans) and 2n - 4 on the sphere.  The triangles then form a
    triangulation of the hull (of the sphere) whose every inner edge passed
    the in-circle test, which is the Delaunay triangulation by Delaunay's
    lemma.  A sound fan turns counterclockwise at each of its triangles and
    meets each once, so orientation adds nothing: a triangle is keyed by its
    corners in ascending order, and a key met three times was met once from
    each corner.  The key is (low w + mid - low) w + high - low, its least
    corner and the offsets of the others from it, where w is one more than
    the widest triangle's span high - low; for one least corner the offsets
    sort like the corners.  The keys decode into the simplices, one
    ascending row each, in the order of their corners.  A key is below
    n w**2: fans with n w**2 >= 2**63 are refused, None with no suspects.

    Fans that pass list each link of their site once: a triangle met from
    all three corners puts each of its edges (s, t) in the fans of s and of
    t.  A fan is open just where its site has an edge in one triangle only,
    at a hull site.  So tessellate reads the links and the hull sites off
    the fans that pass.
    """
    n = len(count)
    offsets, sites = np.concatenate(([0], np.cumsum(count))), np.flatnonzero(count)
    # the position after each neighbour in its fan: after a fan's last, its first (none if open)
    after = np.arange(1, len(neighbors) + 1)
    after[offsets[sites + 1] - 1] = np.where(closed[sites], offsets[sites], -1)
    use = after >= 0
    s, a, b = np.repeat(np.arange(n), count)[use], neighbors[use], neighbors[after[use]]
    del after, use
    # corners in ascending order
    low, high = np.minimum(np.minimum(s, a), b), np.maximum(np.maximum(s, a), b)
    s += a + b - low - high  # the middle corner, in place
    del a, b
    # the offsets from the least corner, in place once a and b are freed
    s -= low
    high -= low
    w = int(high.max(initial=0)) + 1
    if n * w * w >= 2**63:
        return None, np.empty(0, dtype=np.int64)
    key, seen = np.unique((low * w + s) * w + high, return_counts=True)
    low = key // (w * w)
    simplices = np.column_stack((low, key // w % w + low, key % w + low))
    suspect = ~sound
    suspect[simplices[seen != 3]] = True
    suspects = np.flatnonzero(suspect)
    triangles = 2 * n - 4 if sphere else 2 * n - 2 - int(np.sum(~closed))
    if len(suspects) or len(key) != triangles or triangles < 1:
        return None, suspects
    return simplices, suspects


def _parastichy_simplices(points: np.ndarray, lam: float, frames=None, wide: bool = False) -> tuple | None:
    """Delaunay triangles found from Fibonacci index steps, with their fans; or None.

    The triangles as _certify decodes them, and the fans it passed: count,
    neighbors and closed, as _fans gives them, in site order.  None when
    lam's parastichy numbers below n are not the Fibonacci numbers, or when
    the triangles do not certify or their keys would overflow (see
    _certify); n itself has no bound.

    Site s sits at azimuth 2 pi lam s, so outside the disordered core its
    Delaunay neighbours are sites s +- q, for parastichy numbers q near the
    step to its nearest site, of rank k.  Near a lattice they are its two
    shortest steps and their sum or difference, four consecutive ranks: so
    each site takes the candidates of the _BULK ranks k - 2 to k + 1, or
    k - 1 to k + 2 where step k + 2 reaches a nearer site than step k - 2
    (_leans_out), the window dropping its farther end.  When wide (a disc
    too curved for four ranks) it takes _WIDE's five instead.  Sites whose
    outward steps leave the pattern (its rim, where the hull edges are long)
    take _RIM; sites that fail the certificate are retried, with their
    fans' neighbours, on _RETRY steps.  The rest is left to Qhull.  A window
    of steps gives w = 2 (window[1] - window[0] + 1) candidates.  The _CORE
    sites nearest each end of the index range, where the steps do not yet
    hold the neighbours, take the block's w nearest (by squared distance on
    the points, ties to the earlier) of the _CORE_POOL sites at that end and
    of their window's steps outside it; so they run in their block's _fans
    call, _BLOCK sites at a time, and on a chart their fans may open as the
    rim's do.  A core site whose nearest miss a neighbour fails the
    certificate and is retried, never accepted.

    points are chart points scaled by chart_pow2, which keeps squared
    lengths and their inverses in range, or on the sphere unit vectors with
    their tangent frames.
    """
    n = len(points)
    steps = _parastichy_steps(lam, n)
    if steps is None:
        return None
    with np.errstate(all="ignore"):
        sphere = frames is not None
        coords = tuple(np.ascontiguousarray(points.T))
        rank = _local_rank(coords, steps)
        site = np.arange(n)
        # index distance to the nearer end: s = 0, or on the sphere either pole
        depth = np.minimum(site, n - 1 - site) if sphere else site
        pool = min(n, _CORE_POOL)

        def candidates(sites, window):
            ks = rank[sites] + _leans_out(coords, steps, rank, sites) if window == _BULK else rank[sites]
            ks = ks[:, None] + np.arange(window[0], window[1] + 1)
            q = steps[np.clip(ks, 0, len(steps) - 1)]
            cand = np.hstack((sites[:, None] + q, sites[:, None] - q))
            cand = np.where(np.tile((ks >= 0) & (ks < len(steps)), 2) & (cand >= 0) & (cand < n), cand, -1)
            core = np.flatnonzero(depth[sites] < _CORE)
            if len(core):
                # a core row's pool and its steps outside the pool, cut to the nearest as many
                at, step = sites[core, None], cand[core]
                north = (at >= n // 2) & sphere
                members = np.where(north, n - 1 - np.arange(pool), np.arange(pool))
                step = np.where(np.where(north, step < n - pool, step >= pool), step, -1)
                pooled = np.hstack((np.where(members == at, -1, members), step))
                d2 = sum((c[pooled] - c[at]) ** 2 for c in coords)
                d2[pooled < 0] = np.inf
                nearest = np.argsort(d2, axis=1, kind="stable")[:, : cand.shape[1]]
                cand[core] = np.take_along_axis(pooled, nearest, axis=1)
            return cand

        count, closed, sound = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)

        def run(mask, window, open_ok, pieces):
            sites = np.flatnonzero(mask)
            for lo in range(0, len(sites), _BLOCK):
                block = sites[lo : lo + _BLOCK]
                # a core site of a few-site chart pattern is a hull site: its fan may open
                may_open = open_ok or (not sphere and depth[block] < _CORE)
                found, count[block], closed[block], sound[block] = _fans(
                    coords, frames, block, candidates(block, window), may_open
                )
                pieces.append((block, found))
            return pieces

        rim = np.zeros(n, dtype=bool)
        if not sphere:
            rim = site + steps[np.minimum(rank + 1, len(steps) - 1)] >= n
        pieces = run(~rim, _WIDE if wide else _BULK, False, [])
        pieces = run(rim, _RIM, True, pieces)
        neighbors = _gather(count, pieces)
        simplices, suspects = _certify(sphere, count, neighbors, closed, sound)
        if simplices is None and len(suspects):
            redo = np.zeros(n, dtype=bool)
            redo[suspects] = True
            redo[neighbors[np.repeat(redo, count)]] = True
            kept = np.flatnonzero(~redo)
            pieces = run(redo, _RETRY, not sphere, [(kept, neighbors[np.repeat(~redo, count)])])
            neighbors = _gather(count, pieces)
            simplices, _ = _certify(sphere, count, neighbors, closed, sound)
    return None if simplices is None else (simplices, count, neighbors, closed)


def _gather(count: np.ndarray, pieces) -> np.ndarray:
    """Flat fans in site order from (sites, their fans flat) pieces."""
    offsets = np.concatenate(([0], np.cumsum(count)))
    neighbors = np.empty(offsets[-1], dtype=np.int64)
    for sites, found in pieces:
        k = count[sites]
        neighbors[np.repeat(offsets[sites] - np.cumsum(k) + k, k) + np.arange(len(found))] = found
    return neighbors


def _qhull_simplices(kind: str, points: np.ndarray) -> np.ndarray:
    """Qhull's Delaunay triangles (hull facets on the sphere), for patterns that do not certify."""
    from scipy.spatial import ConvexHull, Delaunay, QhullError

    try:
        if kind == SPHERE:
            hull = ConvexHull(points)
            if hull.nsimplex < 4 or len(hull.vertices) != len(points):
                inside = sorted(set(range(len(points))) - set(map(int, hull.vertices)))
                raise ValueError(f"sites not in convex position: {inside[:5]}")
            return hull.simplices
        tri = Delaunay(points)
    except QhullError as exc:
        raise ValueError(
            f"Qhull cannot tessellate this {kind} pattern of {len(points)} sites: {exc}"
        ) from exc
    if len(tri.coplanar):
        raise ValueError(f"site {int(tri.coplanar[0, 0])} lies in no Delaunay triangle")
    return tri.simplices


def _chart_triangles(xy: np.ndarray, simplices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Corner a, b - a, c - a and 2 x chart area of each triangle, none of zero area."""
    a = xy[simplices[:, 0]]
    b = xy[simplices[:, 1]] - a
    c = xy[simplices[:, 2]] - a
    d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    if not d.all():
        corners = sorted(simplices[np.argmin(np.abs(d))].tolist())
        raise ValueError(f"degenerate Delaunay triangle of sites {corners}")
    return a, b, c, d


def _plane_centers(xy: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Circumcenters of the Delaunay triangles of plane sites."""
    a, b, c, d = _chart_triangles(xy, simplices)
    b2, c2 = np.sum(b * b, axis=1), np.sum(c * c, axis=1)
    offset = np.column_stack((c[:, 1] * b2 - b[:, 1] * c2, b[:, 0] * c2 - c[:, 0] * b2))
    return a + offset / d[:, None]


def _to_origin(xy: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Disc points (..., 2) as seen from p: the isometry taking p to the origin."""
    z, p = xy.view(complex), p.view(complex)
    return ((z - p) / (1.0 - np.conj(p) * z)).view(float)


def _disc_centers(xy: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Circumcenters of the Delaunay triangles of disc sites.

    With corner a moved to the origin, the lift of a corner w minus that of a
    is 2 (w, |w|^2) / (1 - |w|^2), parallel to (w, |w|^2).  A timelike normal
    is the circumcenter, (x, y)/(1 + z) in the chart, mapped back from a.
    Any other has no hyperbolic circle: its vertex is the pole (x, y)/z of
    the normal's geodesic, on or outside the unit circle, taken after the
    normal is boosted back from a.  A pole, unlike a center, is not carried
    by the isometry, so taken from a it would depend on which corner is a.
    """
    a, minkowski = _chart_triangles(xy, simplices)[0], np.array([1.0, 1.0, -1.0])
    b, c = (_to_origin(xy[simplices[:, j]], a) for j in (1, 2))
    normal = _cross(*(np.column_stack((w, np.sum(w * w, axis=1))) for w in (b, c)))
    normal *= np.where(normal[:, 2] > 0.0, -1.0, 1.0)[:, None] * minkowski  # upper sheet
    norm = np.sqrt(np.maximum(-_row_dot(normal, normal * minkowski), 0.0))
    center = (normal[:, 0] + 1j * normal[:, 1]) / (norm + normal[:, 2])
    center = _to_origin(center[:, None].view(float), -a)
    # a pole's normal under the boost taking the origin to a, times
    # 1 - |a|^2, which the ratio (x, y)/z ignores
    pole = norm == 0.0
    p, (u, v, z) = a[pole], normal[pole].T
    along, a2 = p[:, 0] * u + p[:, 1] * v, np.sum(p * p, axis=1)
    boosted = np.column_stack((u, v)) * (1.0 - a2)[:, None] + p * (2.0 * (along + z))[:, None]
    center[pole] = boosted / ((1.0 + a2) * z + 2.0 * along)[:, None]
    return center


def _sphere_centers(xyz: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Circumcenters of the hull facets of sphere sites, as unit vectors."""
    a = xyz[simplices[:, 0]]
    # outward unit normals of the facets.  A facet's outward normal has a
    # positive dot product with its corners when the hull holds the center;
    # when the sites lie in a closed hemisphere and the facet's plane passes
    # through the center, it has a negative one with the sites' centroid
    centers = _cross(xyz[simplices[:, 1]] - a, xyz[simplices[:, 2]] - a)
    side = np.sign(_row_dot(centers, a))
    through = np.flatnonzero(side == 0.0)
    side[through] = -np.sign(_row_dot(centers[through], np.mean(xyz, axis=0) - a[through]))
    centers /= (side * np.sqrt(_row_dot(centers, centers)))[:, None]
    return centers


def tessellate(pattern: PhylloPattern) -> Tessellation:
    """Build the Voronoi tessellation of a pattern (deterministic).

    Patterns with no triangulation (fewer than three sites, four on the
    sphere, all sites on a line or a plane, a scale whose squared lengths
    underflow) raise ValueError, as do coincident sites and chart
    triangulations that leave a site out or hold a zero-area triangle.  The
    cell polygons and the areas are left to the first read (see
    Tessellation); every error is raised here.

    The links and the hull sites are read off the certified fans, or on
    Qhull's path off the directed edges of its triangles (see the module
    docstring).
    """
    n, surface, kind, R = pattern.n, pattern.surface, pattern.surface.kind, pattern.surface.R
    scale = normalization_scale(surface)
    if not scale * scale >= np.finfo(float).tiny:
        raise ValueError(
            f"scale a={surface.a!r} is too small: squared lengths at this scale underflow"
        )
    least = 4 if kind == SPHERE else 3
    if n < least:
        raise ValueError(f"a {kind} pattern needs at least {least} sites to tessellate, got {n}")
    points = pattern.xyz if kind == SPHERE else pattern.chart_xy
    # plane fans, circumcenters and areas are computed on the scaled
    # chart, which keeps the cubes of lengths in range at every a
    pow2 = chart_pow2(surface)
    chart = points * pow2 if kind == PLANE else points  # the disc's pow2 is 1
    # equal sites share z on the sphere, and their squared radius on a chart
    # (on the scaled one, whose squares do not overflow)
    _check_distinct(points, points[:, 2] if kind == SPHERE else chart[:, 0] ** 2 + chart[:, 1] ** 2)
    frames = None
    if kind == SPHERE:
        # tangent-plane basis of each site: its chart for the fans, and
        # the directions the circumcenters around it are sorted by
        unit = points / R
        frames = _tangent_frames(unit)
        found = _parastichy_simplices(unit, surface.lam, frames)
    else:
        # a disc's curvature in cell units is a: past _NARROW_A its bulk takes _WIDE
        found = _parastichy_simplices(chart, surface.lam, None, kind == HYPERBOLIC and surface.a > _NARROW_A)

    # the links as s * n + t, sorted: the CSR rows
    if found is None:
        # corners in ascending order, as the certificate's are, so both paths round each
        # circumcenter alike; int64, as Qhull's int32 corners would wrap in the keys past n = 46340
        simplices = np.sort(_qhull_simplices(kind, points), axis=1).astype(np.int64, copy=False)
        # both directions of every triangle edge; a hull edge lies in one
        # triangle, so its links occur once
        key, count = np.unique(
            simplices[:, [0, 1, 1, 2, 0, 2]] * n + simplices[:, [1, 0, 2, 1, 2, 0]], return_counts=True
        )
        boundary = np.zeros(n, dtype=bool)
        boundary[key[count == 1] // n] = True
    else:
        # a certified fan lists each link of its site once, and the open fans are the hull sites
        simplices, count, neighbors, closed = found
        key = np.repeat(np.arange(n) * n, count) + neighbors
        key.sort()
        boundary = ~closed
        del found, neighbors  # the fans: 6n entries
    source, indices = np.divmod(key, n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=n))))
    adjacency = Adjacency(indptr, indices, source)

    # hull sites have unbounded cells, and the window cuts every cell with a
    # vertex beyond the outermost site; the chart circumcenters are computed
    # here for that test (and the check for zero-area triangles), the
    # sphere's wait for the polygon pass
    vertices = None
    if kind != SPHERE:
        if kind == HYPERBOLIC:
            centers = vertices = _disc_centers(points, simplices)
        else:
            centers = _plane_centers(chart, simplices)
            with np.errstate(over="ignore"):
                vertices = centers / pow2
            if not np.isfinite(vertices).all():
                raise ValueError(f"scale a={surface.a!r} is too large: Voronoi vertices overflow")
        boundary[simplices[np.sum(centers * centers, axis=1) > (pattern.r.max() * pow2) ** 2]] = True

    polygons = _Pass(_cell_polygons, kind, points, simplices, vertices, frames)
    cells = Cells(np.diff(indptr), boundary, _Pass(_cell_areas, polygons, pattern, boundary, pow2))
    return Tessellation(pattern, cells, adjacency, polygons)


def _cell_polygons(kind, points, simplices, vertices, frames) -> dict:
    """The polygon pass: the chart polygon of every cell, by Tessellation property name.

    vertices are the chart circumcenters of the triangles, or None on the
    sphere, whose are computed here from the facet normals; those are
    returned too, as "normals", which the area pass takes out.
    """
    n, polygons = len(points), {}
    centers = vertices
    if kind == SPHERE:
        centers = polygons["normals"] = _sphere_centers(points, simplices)
        e1, e2 = frames
        # stereographic chart vertices, for rendering
        polar = 1.0 - centers[:, 2]
        vertices = np.where(polar[:, None] > 1e-12, centers[:, :2] / polar[:, None], np.inf)

    # incident triangles of each site in ascending triangle order, each fan
    # then sorted by the direction of the geodesic to each vertex
    corners = simplices.ravel()
    fans = np.argsort(corners, kind="stable") // 3
    offsets = np.concatenate(([0], np.cumsum(np.bincount(corners, minlength=n))))
    index = np.empty(len(corners), dtype=np.int64)
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
        index[slots] = np.take_along_axis(fans[slots], np.argsort(np.arctan2(y, x), axis=1), axis=1)
    polygons.update(vertex_offsets=offsets, vertices=vertices, vertex_index=index)
    return polygons


def _cell_areas(polygons: _Pass, pattern: PhylloPattern, boundary: np.ndarray, pow2: float) -> np.ndarray:
    """The area pass: the metric area of every cell but the boundary ones, normalized.

    It reads the fans the polygon pass sorted (a cell is convex around its
    site, so its sorted fan turns counterclockwise) and takes the normals out.
    """
    surface, polygons = pattern.surface, polygons()
    kind, R, offsets, index = surface.kind, surface.R, polygons["vertex_offsets"], polygons["vertex_index"]
    centers = polygons.pop("normals") if kind == SPHERE else polygons["vertices"]
    scale = normalization_scale(surface) * pow2
    areas = np.full(len(boundary), math.nan)
    for k, rows in _blocks(np.diff(offsets)):
        rows = rows[~boundary[rows]]
        ring = centers[index[offsets[rows][:, None] + np.arange(k)]]
        if kind == PLANE:
            area = _polygon_areas(ring * pow2)
        elif kind == SPHERE:
            area = _fan_areas(ring, 1.0) * R * R
        else:
            moved = _to_origin(ring, pattern.chart_xy[rows][:, None, :])
            area = _fan_areas(chart_to_unit_surface(kind, moved), -1.0) * R * R
        areas[rows] = area / (scale * scale)
    return areas
