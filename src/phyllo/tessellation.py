"""Voronoi cells and Delaunay adjacency for a generated pattern.

Every cell is the fan of circumcenters of the Delaunay triangles around its
site.  Plane and disc patterns are triangulated on their charts with
Euclidean predicates: both charts are conformal, so chart circles are metric
circles and the Delaunay combinatorics agree with the intrinsic ones.  Sphere
patterns are triangulated by the convex hull of the embedded points.

The triangles come from the pattern's own parastichies.  Site s sits at
azimuth 2 pi lam s, so outside the disordered core each Delaunay neighbour
of s is a site s +- q for a parastichy number q of lam (a Fibonacci number
for the golden divergence).  Each site's fan is found among a few such
candidates, and the fans are kept only if a certificate proves them the
Delaunay triangulation: each triangle is found from all three corners,
every edge passes the in-circle test with a margin, and the triangles number
what Euler's formula asks.  Qhull, which scipy provides and which is
imported only then, triangulates the patterns whose parastichy numbers
are not the Fibonacci numbers (other divergences, decided from lam's
continued fraction before any fan is built) and those that do not certify
(nearly cocircular sites).  Patterns of fewer than three sites (four on the
sphere) have no triangulation and raise before either.  Either way each
triangle's corners are put in ascending order, so both paths round every
circumcenter alike.

Plane cells are Euclidean polygons.  On both curved surfaces a vertex is
the unit normal of the plane through the lifted sites of its triangle (the
hull facet normal on the sphere, a Minkowski normal on the hyperboloid over
the disc, lifted as seen from one corner moved to the origin; where that
plane cuts the hyperboloid in no circle, the vertex is the pole of the
normal's geodesic, outside the disc), and an area is the fan of geodesic
triangles.

From the triangles on, every surface takes one path.  tessellate builds
what ring detection reads: the CSR links with their sources (one sorted
table of both directions of every triangle edge, whose edges met once mark
the hull sites), the side counts and the boundary flags (which on a chart
read the circumcenters, so those are computed there too).  The rest is left
to three passes, each run at most once, on the first read of one of its
fields:
- the length pass measures every link; each formula is symmetric in its
  ends, so both directions of an edge get the same bits;
- the polygon pass sorts the triangle corners by site (one stable sort)
  and each fan by the direction of the geodesic to each vertex;
- the area pass sums each sorted fan; it reads the polygon pass's result,
  running it first if no polygon has been read.
Sites with the same number of triangles are processed together, at most
_BLOCK at a time, which bounds the temporary memory.  Each value is reduced
in the order, and through the same numpy and BLAS kernels, that a
cell-by-cell computation would use (row dot products go through a stacked
matmul, fan terms are summed with math.atan2), so the results are
bit-identical to the per-cell formulas.  Plane circumcenters, lengths and
areas are computed on the chart scaled by a power of two near 1/a, which
moves no rounding and keeps their squares and cubes in range at every a.

A Tessellation holds columns only: the Delaunay links as one CSR table, the
fixed-width cell values as one array each, one chart vertex per triangle,
and every chart polygon as a slice of one array of indices into those.
Lengths and areas are normalized so the mean cell area is pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .generator import PhylloPattern, chart_pow2, normalization_scale
from .geometry import HYPERBOLIC, PLANE, SPHERE, chart_distance_xy, chart_to_unit_surface
from .numerics import FIBONACCI, fibonacci_rank

__all__ = ["Tessellation", "tessellate"]

#: side count -> cell label; anything else is "other"
CELL_TYPE_BY_SIDES = {4: "square", 5: "pentagon", 6: "hexagon", 7: "heptagon"}

#: sites per array block; bounds the temporary arrays of the cell geometry
_BLOCK = 2048

#: candidate steps of the parastichy triangulation, as ranks relative to the step
#: to a site's nearest site: for most sites, for the rim, and for a retry
_BULK, _RIM, _RETRY = (-2, 2), (-6, 2), (-7, 3)

#: the disordered core: sites this close in index to either end of the
#: index range also take every one of the _CORE_POOL sites at that end
_CORE, _CORE_POOL = 12, 32

#: a turn whose sine is smaller is too close to four cocircular sites for
#: the parastichy triangulation to decide; Qhull decides such patterns
_MIN_SINE = 1e-9


class _Pass:
    """Fields computed together, once, the first time one of them is read.

    It holds the inputs of its function until the first call runs it, and
    from then on only the result, a dict from field name to array.  An
    input may be another _Pass, which the function calls for the fields it
    reads: so a pass runs the one it reads from first, and that one's result
    is shared, not computed again.
    """

    def __init__(self, run, *inputs):
        self._run, self._inputs, self._result = run, inputs, None

    def __call__(self) -> dict[str, np.ndarray]:
        if self._result is None:
            self._result, self._inputs = self._run(*self._inputs), None
        return self._result


class _OnFirstRead:
    """A dataclass field set to its array, or to the _Pass that computes it.

    In the second case the first read runs the pass (once for all its
    fields) and keeps the field's array in place of it.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # read on the class: the field has no default
        value = obj.__dict__[self.name]
        if isinstance(value, _Pass):
            value = obj.__dict__[self.name] = value()[self.name]
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class Adjacency:
    """Delaunay links in CSR form, both directions of every edge.

    Site s links to ``indices[indptr[s]:indptr[s + 1]]``, in ascending
    order; ``source`` holds the near site s of each link, and ``distance``
    the metric length of each link, the same for both directions of an
    edge.  tessellate computes ``indptr``, ``indices`` and ``source``;
    ``distance`` is computed from ``source`` and ``indices`` on first read
    (the length pass).
    """

    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (links,) int64: the far site t of each link
    source: np.ndarray  # (links,) int64
    distance: np.ndarray = _OnFirstRead()  # (links,) float64

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


#: the fixed-width values of one cell, as Python scalars (a numpy record
#: array would yield numpy scalars, whose sums JSON cannot write)
Cell = NamedTuple("Cell", [("sides", int), ("area", float), ("is_boundary", bool)])


@dataclass(frozen=True, eq=False)
class Cells:
    """The fixed-width values of every cell, one column each, indexed by site.

    ``sides`` is the number of Delaunay neighbors and ``area`` the metric
    area (nan for boundary cells).  ``sides`` and ``is_boundary`` come with
    the triangulation.  ``area`` is computed on first read (the area pass),
    from the sorted fans of the polygon pass, which it runs first if no
    chart polygon has been read yet.  Iteration yields one Cell per site,
    and so reads ``area``.
    """

    sides: np.ndarray  # (n,) int64
    area: np.ndarray = _OnFirstRead()  # (n,) float64
    is_boundary: np.ndarray  # (n,) bool

    def __iter__(self):
        return map(Cell, self.sides.tolist(), self.area.tolist(), self.is_boundary.tolist())


@dataclass(eq=False)
class Tessellation:
    """The Voronoi cells and Delaunay links of a pattern, as columns.

    The chart polygon of site s is
    ``vertices[vertex_index[vertex_offsets[s]:vertex_offsets[s + 1]]]``, in
    order around the cell: ``vertices`` holds each Delaunay triangle's
    circumcenter once, for the cells of its three corners.  The adjacency's
    CSR columns and link sources, the side counts and the boundary flags are
    computed by tessellate.  Three passes run on first read, each at most
    once: the link lengths (``adjacency.distance``), the polygons (the three
    vertex fields) and the cell areas (``cells.area``, which reads the
    polygons).  So ring detection reads none of them, and rendering only
    the polygons.
    """

    pattern: PhylloPattern
    cells: Cells
    adjacency: Adjacency
    vertex_offsets: np.ndarray = _OnFirstRead()  # (n + 1,) int64
    vertices: np.ndarray = _OnFirstRead()  # (triangles, 2) float64
    vertex_index: np.ndarray = _OnFirstRead()  # (V,) int64: a row of vertices per polygon corner

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
        fan += 2.0 * np.array(list(map(math.atan2, numer.tolist(), denom.tolist())))
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


def _fans(coords, frames, sites: np.ndarray, cand: np.ndarray, open_ok: bool):
    """Delaunay fans of (m,) sites among their (m, c) candidates (-1 for none).

    Inversion in a circle about site s maps the circles through s to lines.
    So candidate t is a Delaunay neighbour of s among the candidates iff its
    image is a vertex of the convex hull of the images, and of the origin
    when s lies on the hull of the pattern (its images then leave a gap of a
    half turn or more, and the fan is open).  The hull is found by deleting
    the reflex vertices of the images sorted by angle until none is left,
    for every site at once.  The turn at a kept vertex t is the in-circle
    test of the edge (s, t) against the neighbours before and after t.

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
    if open_ok:
        # a gap of a half turn or more between images: the fan is open
        gap = alive & ~(wx * np.take(wy, ahead) - wy * np.take(wx, ahead) > 0)
        closed = ~gap.any(axis=1)
        rows = np.flatnonzero(~closed)
        # an open fan starts after its gap; its ends link to themselves
        start = np.argmax(gap[rows], axis=1)[:, None] + 1
        at = np.where(alive[rows], (flat[rows] - first[rows] + start) % count[rows] + first[rows], flat[rows])
        for a in (wx, wy, cand):
            a[rows] = np.take(a, at)
        behind[rows] = np.where(flat[rows] > first[rows], flat[rows] - 1, flat[rows])
        ahead[rows] = np.where(flat[rows] < last[rows], flat[rows] + 1, flat[rows])

    wrap = closed[:, None]
    while True:
        qx, qy = np.take(wx, ahead), np.take(wy, ahead)
        ux, uy = wx - np.take(wx, behind), wy - np.take(wy, behind)
        vx, vy = qx - wx, qy - wy
        turn = ux * vy - uy * vx
        inner = alive & (behind != flat) & (ahead != flat)
        reflex = inner & ~(turn > 0)
        if not reflex.any():
            break
        alive &= ~reflex
        # relink each position to the nearest live one on either side
        up = np.maximum.accumulate(np.where(alive, flat, -1), axis=1)
        down = np.minimum.accumulate(np.where(alive, flat, m * c)[:, ::-1], axis=1)[:, ::-1]
        behind[:, 0], behind[:, 1:] = -1, up[:, :-1]
        ahead[:, -1], ahead[:, :-1] = m * c, down[:, 1:]
        # a closed fan wraps around (within its row, should no site be left)
        behind = np.where(behind < 0, np.where(wrap, np.maximum(up[:, -1:], flat[:, :1]), flat), behind)
        ahead = np.where(ahead == m * c, np.where(wrap, np.minimum(down[:, :1], flat[:, -1:]), flat), ahead)
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
    lemma.  Each simplex is returned counterclockwise, least site first.
    """
    n = len(count)
    offsets = np.concatenate(([0], np.cumsum(count)))
    pos = np.arange(len(neighbors))
    last = np.repeat(offsets[1:] - 1, count)
    use = (pos != last) | np.repeat(closed, count)
    s = np.repeat(np.arange(n), count)[use]
    a = neighbors[use]
    b = neighbors[np.where(pos == last, np.repeat(offsets[:-1], count), pos + 1)[use]]
    # rotate each triangle to put its least site first; n**3 < 2**63
    low_a, low_b = (a < s) & (a < b), (b < s) & (b < a)
    key = np.where(low_a, a, np.where(low_b, b, s)) * n
    key = (key + np.where(low_a, b, np.where(low_b, s, a))) * n
    key += np.where(low_a, s, np.where(low_b, a, b))
    key.sort()
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    seen = np.diff(starts, append=len(key))
    odd = key[starts[seen != 3]]
    suspect = ~sound
    suspect[np.concatenate((odd // (n * n), odd // n % n, odd % n))] = True
    suspects = np.flatnonzero(suspect)
    triangles = 2 * n - 4 if sphere else 2 * n - 2 - int(np.sum(~closed))
    if len(suspects) or len(starts) != triangles or triangles < 1:
        return None, suspects
    key = key[starts]
    return np.column_stack((key // (n * n), key // n % n, key % n)), suspects


def _parastichy_simplices(points: np.ndarray, lam: float, frames=None) -> np.ndarray | None:
    """Delaunay triangles found from Fibonacci index steps, or None.

    None when lam's parastichy numbers below n are not the Fibonacci
    numbers, or when the triangles do not certify.

    Site s sits at azimuth 2 pi lam s, so outside the disordered core its
    Delaunay neighbours are sites s +- q, for parastichy numbers q near the
    step to its nearest site.  Each site takes the candidates of _BULK steps
    around that one; sites whose outward steps leave the pattern (its rim,
    where the hull edges are long) take _RIM; the _CORE sites nearest each
    end of the index range take every site of a pool as well.  Sites that
    fail the certificate are retried, with their fans' neighbours, on
    _RETRY steps.  The rest is left to Qhull.

    points are chart points, or on the sphere unit vectors with their
    tangent frames.
    """
    n = len(points)
    if not 3 <= n < 2**21:  # the certificate packs a triangle into n**3 < 2**63
        return None
    steps = _parastichy_steps(lam, n)
    if steps is None:
        return None
    with np.errstate(all="ignore"):
        sphere = frames is not None
        if sphere:
            coords = tuple(np.ascontiguousarray(points.T))
        else:
            # scaled by a power of two, which moves no rounding, to keep
            # squared lengths and their inverses in range
            scale = np.ldexp(1.0, -int(np.frexp(np.max(np.abs(points)))[1]))
            coords = tuple(np.ascontiguousarray(points.T) * scale)
        rank = _local_rank(coords, steps)
        site = np.arange(n)
        # index distance to the nearer end: s = 0, or on the sphere either pole
        depth = np.minimum(site, n - 1 - site) if sphere else site
        pool = min(n, _CORE_POOL)

        def candidates(sites, window, pooled):
            ks = rank[sites, None] + np.arange(window[0], window[1] + 1)
            q = steps[np.clip(ks, 0, len(steps) - 1)]
            cand = np.hstack((sites[:, None] + q, sites[:, None] - q))
            keep = np.tile((ks >= 0) & (ks < len(steps)), 2) & (cand >= 0) & (cand < n)
            if not pooled:
                return np.where(keep, cand, -1)
            north = (sites >= n // 2)[:, None] & sphere
            members = np.where(north, n - 1 - np.arange(pool), np.arange(pool))
            keep &= np.where(north, cand < n - pool, cand >= pool)
            return np.hstack((np.where(members == sites[:, None], -1, members), np.where(keep, cand, -1)))

        count, closed, sound = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool), np.zeros(n, dtype=bool)

        def run(mask, window, open_ok, pieces):
            for pooled in (False, True):
                sites = np.flatnonzero(mask & ((depth < _CORE) == pooled))
                for lo in range(0, len(sites), _BLOCK):
                    block = sites[lo : lo + _BLOCK]
                    found, count[block], closed[block], sound[block] = _fans(
                        coords, frames, block, candidates(block, window, pooled), open_ok or (pooled and not sphere)
                    )
                    pieces.append((block, found))
            return pieces

        rim = np.zeros(n, dtype=bool)
        if not sphere:
            rim = site + steps[np.minimum(rank + 1, len(steps) - 1)] >= n
        pieces = run(~rim, _BULK, False, [])
        pieces = run(rim, _RIM, True, pieces)
        neighbors = _gather(count, pieces)
        simplices, suspects = _certify(sphere, count, neighbors, closed, sound)
        if simplices is None and len(suspects):
            offsets = np.concatenate(([0], np.cumsum(count)))
            redo = np.zeros(n, dtype=bool)
            redo[suspects] = True
            redo[neighbors[np.repeat(redo, count)]] = True
            kept = np.flatnonzero(~redo)
            pieces = run(redo, _RETRY, not sphere, [(kept, neighbors[np.repeat(~redo, np.diff(offsets))])])
            simplices, _ = _certify(sphere, count, _gather(count, pieces), closed, sound)
    return simplices


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
    underflow) raise ValueError, as do chart triangulations that leave a
    site out or hold a zero-area triangle.  The link lengths, the cell
    polygons and the areas are left to the first read (see Tessellation);
    every error is raised here.
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
    _check_distinct(points)
    # plane circumcenters, lengths and areas are computed on the scaled chart,
    # which keeps the cubes of lengths in range at every a
    pow2 = chart_pow2(surface)
    frames = None
    if kind == SPHERE:
        # tangent-plane basis of each site: its chart for the fans, and
        # the directions the circumcenters around it are sorted by
        unit = points / R
        frames = _tangent_frames(unit)
        simplices = _parastichy_simplices(unit, surface.lam, frames)
    else:
        simplices = _parastichy_simplices(points, surface.lam)
    if simplices is None:
        simplices = _qhull_simplices(kind, points)
    # corners in ascending order, so both paths round each circumcenter alike;
    # int64, as Qhull's int32 corners would wrap in the keys below past n = 46340
    simplices = np.sort(simplices, axis=1).astype(np.int64, copy=False)

    # both directions of every triangle edge as s * n + t: sorted, they are
    # the CSR links; a hull edge lies in one triangle, so its links occur once
    key, count = np.unique(
        simplices[:, [0, 1, 1, 2, 0, 2]] * n + simplices[:, [1, 0, 2, 1, 2, 0]], return_counts=True
    )
    source, indices = np.divmod(key, n)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(source, minlength=n))))
    adjacency = Adjacency(indptr, indices, source, _Pass(_link_lengths, source, indices, pattern, pow2))

    # hull sites have unbounded cells, and the window cuts every cell with a
    # vertex beyond the outermost site; the chart circumcenters are computed
    # here for that test (and the check for zero-area triangles), the
    # sphere's wait for the polygon pass
    boundary = np.zeros(n, dtype=bool)
    boundary[source[count == 1]] = True
    vertices = None
    if kind != SPHERE:
        if kind == HYPERBOLIC:
            centers = vertices = _disc_centers(points, simplices)
        else:
            centers = _plane_centers(points * pow2, simplices)
            with np.errstate(over="ignore"):
                vertices = centers / pow2
            if not np.isfinite(vertices).all():
                raise ValueError(f"scale a={surface.a!r} is too large: Voronoi vertices overflow")
        boundary[simplices[np.sum(centers * centers, axis=1) > (pattern.r.max() * pow2) ** 2]] = True

    polygons = _Pass(_cell_polygons, kind, points, simplices, vertices, frames)
    cells = Cells(np.diff(indptr), _Pass(_cell_areas, polygons, pattern, boundary, pow2), boundary)
    return Tessellation(pattern, cells, adjacency, polygons, polygons, polygons)


def _link_lengths(s: np.ndarray, t: np.ndarray, pattern: PhylloPattern, pow2: float) -> dict:
    """The length pass: the metric length of every link, normalized.

    Every length formula is symmetric in its ends, bit for bit, so both
    links of an edge get the same value.
    """
    surface = pattern.surface
    if surface.kind == SPHERE:
        unit = pattern.xyz / surface.R
        cosang = np.clip(np.sum(unit[s] * unit[t], axis=1), -1.0, 1.0)
        distance = surface.R * np.arccos(cosang)
    else:
        xy = pattern.chart_xy * pow2
        distance = chart_distance_xy(surface, xy[s], xy[t])
    distance /= normalization_scale(surface) * pow2
    return {"distance": distance}


def _cell_polygons(kind, points, simplices, vertices, frames) -> dict:
    """The polygon pass: the chart polygon of every cell, as the Tessellation fields.

    vertices are the chart circumcenters of the triangles, or None on the
    sphere, whose are computed here from the facet normals; those are
    returned too, as "normals", for the area pass.
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


def _cell_areas(polygons: _Pass, pattern: PhylloPattern, boundary: np.ndarray, pow2: float) -> dict:
    """The area pass: the metric area of every cell but the boundary ones, normalized.

    It reads the fans the polygon pass sorted; a cell is convex around its
    site, so its sorted fan turns counterclockwise.
    """
    surface, polygons = pattern.surface, polygons()
    kind, R, offsets, index = surface.kind, surface.R, polygons["vertex_offsets"], polygons["vertex_index"]
    centers = polygons["normals"] if kind == SPHERE else polygons["vertices"]
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
    return {"area": areas}


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
