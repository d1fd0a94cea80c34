"""Grain and grain-boundary structure of tessellated spiral patterns.

A grain boundary is a thin annulus of heptagon/pentagon dipoles (plus the
hexagons wedged between dipole pairs) separating two grains of hexagonal
cells.  Detection is adjacency-based: defect cells are linked through the
Delaunay graph, grouped, and the groups read off as rings.  A ring whose
pentagon count is the Fibonacci number f_{u-1} gets rank u; the full census
of a complete ring is then (f_{u-1}, f_{u-2}, f_{u-1}) over f_{u+1}
consecutive sites, its dipoles step +f_u in the spiral index, and the
singleton/pair pattern of its dipoles inflates from one ring to the next.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .generator import PhylloPattern, _effective_index, _radial_law, chart_pow2, normalization_scale
from .geometry import HYPERBOLIC, PLANE, SPHERE, SurfaceSpec, chart_distance_xy, circle_circumference, conformal_factor
from .numerics import fibonacci, fibonacci_rank, inflate, words_equal
from .tessellation import Tessellation

__all__ = [
    "CORE_DEPTH",
    "DISTANCE_MIN",
    "DISTANCE_MAX",
    "detect_grain_boundaries",
    "ring_spans_equator",
    "verify_inflation",
    "dipole_angles",
    "boundary_perimeter_prediction",
    "boundary_radius",
    "sphere_thresholds",
    "boundary_polar_angle",
    "analytic_distance",
    "distance_series",
    "area_series",
]

#: sites closer than this (in index steps) to a pattern pole form the
#: disordered core and are left out of defect analysis
CORE_DEPTH = 10

#: cells within this many mean cell widths of the pattern edge are dropped
#: from area statistics (the tessellation distorts about two cells deep)
EDGE_MARGIN_CELLS = 2.0

#: defect detection needs a wider margin: edge distortion can squeeze an
#: interior cell to five sides without flagging it as a boundary cell, so a
#: ring reaching this close to the edge is left out whole
DEFECT_EDGE_MARGIN_CELLS = 3.0

#: confinement bounds for neighbor distances at mean cell area pi:
#: sqrt(2*pi/sqrt(5)) (tightest parastichy) up to sqrt(2*pi) (square diagonal)
DISTANCE_MIN = math.sqrt(2.0 * math.pi / math.sqrt(5.0))
DISTANCE_MAX = math.sqrt(2.0 * math.pi)

#: links per array block; bounds the temporary arrays of the link lengths
_LINK_BLOCK = 65536


def site_depth(pattern: PhylloPattern, s) -> np.ndarray:
    """Index distance from the pattern center; spheres count from both poles."""
    s = np.asarray(s)
    if pattern.surface.kind == SPHERE:
        return np.minimum(s, pattern.n - 1 - s)
    return s


def _clear_of_edge(pattern: PhylloPattern, margin_cells: float) -> np.ndarray:
    """Sites at least margin_cells mean cell widths inside the pattern edge.

    Sphere patterns have no edge, so every site qualifies there.
    """
    if pattern.surface.kind == SPHERE:
        return np.ones(pattern.n, dtype=bool)
    rho = pattern.rho / normalization_scale(pattern.surface)
    return rho <= rho.max() - margin_cells * math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# grain boundaries
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class GrainBoundary:
    """One detected defect ring."""

    rank: int | None  # u with pentagon count f_{u-1}; None if anomalous
    members: list[int]  # all member sites, ordered by azimuth
    counts: tuple[int, int, int]  # (heptagons, hexagons, pentagons)
    dipoles: list[tuple[int, int]]  # (heptagon site, pentagon site)
    word: str | None  # singleton/pair pattern of the dipoles, over {L, S}
    s_range: tuple[int, int]
    mean_radius: float  # mean geodesic distance from the ring's own pole
    perimeter: float  # circumference of the circle at mean_radius
    complete: bool
    anomalous: bool
    pole_side: int  # 0 = ring around the s=0 pole; 1 = around s=n-1 (sphere)


def _rank_from_pentagon_count(count: int) -> int | None:
    """Rank u with f_{u-1} = count, allowing one unit of slack.

    An exact match wins; otherwise count - 1 before count + 1, so a count
    between two Fibonacci numbers (4) takes the lower rank.
    """
    if count < 1:
        return None
    ranks = fibonacci_rank([count, count - 1, count + 1]).tolist()
    return next((u + 1 for u in ranks if u >= 2), None)


def _ring_word(order: list[int], heptagons: set[int]) -> str | None:
    """Singleton/pair word from the azimuthal member order.

    Consecutive heptagons two member-steps apart share no hexagon: their
    dipoles form a pair.  Three steps apart means a hexagon sits between
    them.  Runs of pair-linked dipoles of size two map to L, singletons
    to S; any larger run means the ring is not in the expected form.
    """
    pos = [k for k, s in enumerate(order) if s in heptagons]
    if len(pos) < 2:
        return None
    m = len(order)
    gaps = [(pos[(k + 1) % len(pos)] - pos[k]) % m for k in range(len(pos))]
    if any(g not in (2, 3) for g in gaps):
        return None
    # start at a heptagon preceded by a hexagon so groups do not wrap
    start = next((k for k in range(len(pos)) if gaps[k - 1] == 3), None)
    if start is None:
        return None
    # a pair is a gap of 2 closed by a gap of 3, a singleton a lone gap of 3
    word = "".join(map(str, gaps[start:] + gaps[:start])).replace("23", "L").replace("3", "S")
    return None if "2" in word else word


def _extract_dipoles(
    tess: Tessellation, rank: int | None, heptagons: list[int], pentagons: list[int]
) -> list[tuple[int, int]]:
    pent_set = set(pentagons)
    pairs: list[tuple[int, int]] = []
    unpaired: list[int] = []
    step = fibonacci(rank) if rank is not None else None
    for h in heptagons:
        if step is not None and h + step in pent_set:
            pairs.append((h, h + step))
            pent_set.discard(h + step)
        elif step is not None and h - step in pent_set:  # far-pole sphere rings
            pairs.append((h, h - step))
            pent_set.discard(h - step)
        else:
            unpaired.append(h)
    for h in unpaired:  # fall back on direct cell adjacency
        for t in tess.adjacency[h].tolist():
            if t in pent_set:
                pairs.append((h, t))
                pent_set.discard(t)
                break
    return sorted(pairs)


def detect_grain_boundaries(tess: Tessellation) -> list[GrainBoundary]:
    """Group interior defect cells into rings (sorted inside outward).

    Defects (pentagons and heptagons outside the core) are linked through
    Delaunay edges, but only an inward heptagon to an outward pentagon:
    like-type contacts are ignored because adjacent rings touch
    heptagon-to-heptagon where they meet.  A ring is a contiguous run of
    sites, so linked defects are grouped by index band: each defect spans
    the sites up to the furthest defect it links to, a ring is a maximal
    run of overlapping spans, and the hexagons inside the final band are
    claimed as ring members.  A ring whose band ends within
    DEFECT_EDGE_MARGIN_CELLS cell widths of the pattern edge is cut by it
    and left out whole, so none of its defects stands alone as an anomaly.
    """
    pattern = tess.pattern
    n = pattern.n
    sides = np.where(tess.cells.is_boundary, 0, tess.cells.sides)
    heptagon, hexagon = sides == 7, sides == 6
    depth = site_depth(pattern, np.arange(n))
    eligible = (depth >= CORE_DEPTH) & (heptagon | (sides == 5))
    # each defect reaches up to the furthest later defect of the other type
    # that it links to, where the heptagon is the inward end of the link
    s, t = tess.adjacency.source, tess.adjacency.indices
    link = eligible[s] & eligible[t] & (t > s) & (heptagon[s] != heptagon[t])
    link &= np.where(heptagon[s], depth[s] < depth[t], depth[t] < depth[s])
    reach = np.arange(n)
    np.maximum.at(reach, s[link], t[link])
    # a group starts at a defect past the reach of every earlier defect
    sites = np.flatnonzero(eligible)
    covered = np.maximum.accumulate(reach[sites])
    starts = np.flatnonzero(sites[1:] > covered[:-1]) + 1
    groups = np.split(sites, starts) if len(sites) else []

    scale = normalization_scale(pattern.surface)
    chart_scale = scale * chart_pow2(pattern.surface)  # keeps 2 pi rho in range
    nu = (n - 1) // 2
    # rho rises with s, so the sites clear of the edge are a prefix (all of
    # them on the sphere); a band ending past it is a ring the edge cuts
    edge = int(_clear_of_edge(pattern, DEFECT_EDGE_MARGIN_CELLS).sum()) - 1
    out: list[GrainBoundary] = []
    for group in groups:
        lo, hi = int(group[0]), int(group[-1])
        if hi > edge:
            continue
        members = np.concatenate((group, lo + np.flatnonzero(hexagon[lo : hi + 1])))
        theta = np.mod(pattern.theta[members], 2.0 * math.pi)
        order = members[np.argsort(theta, kind="stable")].tolist()
        hept = group[heptagon[group]].tolist()
        pent = group[~heptagon[group]].tolist()
        counts = (len(hept), len(members) - len(group), len(pent))
        rank = _rank_from_pentagon_count(counts[2])
        anomalous = rank is None
        complete = not anomalous and counts == (
            fibonacci(rank - 1),
            fibonacci(rank - 2),
            fibonacci(rank - 1),
        )
        pole_side = 1 if (pattern.surface.kind == SPHERE and (lo + hi) / 2 > nu) else 0
        rho = pattern.rho[order] / scale
        if pole_side == 1:
            rho = math.pi * pattern.surface.R / scale - rho  # from the far pole
        mean_radius = float(rho.mean())
        perimeter = float(
            circle_circumference(pattern.surface, mean_radius * chart_scale) / chart_scale
        )
        out.append(
            GrainBoundary(
                rank=rank,
                members=order,
                counts=counts,
                dipoles=_extract_dipoles(tess, rank, hept, pent),
                word=_ring_word(order, set(hept)),
                s_range=(lo, hi),
                mean_radius=mean_radius,
                perimeter=perimeter,
                complete=complete,
                anomalous=anomalous,
                pole_side=pole_side,
            )
        )
    out.sort(key=lambda b: (b.pole_side, b.s_range[0] if b.pole_side == 0 else -b.s_range[1]))
    return out


def ring_spans_equator(boundaries: list[GrainBoundary], n: int) -> bool:
    """Whether a detected ring's index band holds the equator of an n-site sphere."""
    nu = (n - 1) // 2
    return any(b.s_range[0] <= nu <= b.s_range[1] for b in boundaries)


def verify_inflation(boundaries: list[GrainBoundary]) -> list[tuple[int, int, bool]]:
    """Check word(u+1) = inflate(word(u)) for consecutive complete rings.

    Rings are chained inside outward around each pole separately.  Returns
    one (rank, next rank, matches) triple per consecutive pair.
    """
    report: list[tuple[int, int, bool]] = []
    for side in (0, 1):
        chain = [
            b
            for b in boundaries
            if b.pole_side == side and b.complete and b.word is not None
        ]
        chain.sort(key=lambda b: b.rank)
        for a, b in zip(chain, chain[1:]):
            expected = inflate(a.word, times=b.rank - a.rank)
            report.append((a.rank, b.rank, words_equal(expected, b.word)))
    return report


# ---------------------------------------------------------------------------
# dipole orientation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DipoleAngles:
    """Angles between each dipole axis and the local outward meridian."""

    signed: np.ndarray  # one angle per dipole, in (-pi, pi]

    @property
    def mean_abs(self) -> float:
        return float(np.mean(np.abs(self.signed)))

    @property
    def mean_signed(self) -> float:
        return float(np.mean(self.signed))


def dipole_angles(boundary: GrainBoundary, tess: Tessellation) -> DipoleAngles:
    """Per-dipole angle of the heptagon->pentagon axis to the radial direction.

    Both charts are conformal, so the metric angle can be read directly off
    chart vectors.  Meridians map to chart rays through the origin; "outward"
    (away from the ring's own pole) is +radial for rings around the chart
    center but -radial for the far-pole rings of a sphere, whose own pole
    sits at chart infinity.
    """
    xy = tess.pattern.chart_xy
    sign = -1.0 if boundary.pole_side == 1 else 1.0
    angles = []
    for hept, pent in boundary.dipoles:
        mid = (xy[hept] + xy[pent]) / 2.0
        radial = sign * mid / np.linalg.norm(mid)
        v = xy[pent] - xy[hept]
        angles.append(math.atan2(radial[0] * v[1] - radial[1] * v[0], float(v @ radial)))
    return DipoleAngles(np.array(angles))


# ---------------------------------------------------------------------------
# closed-form ring geometry
# ---------------------------------------------------------------------------

def boundary_perimeter_prediction(u: int) -> float:
    """Length of the ring carrying f_u dipoles, at mean cell area pi.

    The ring advances one lattice row per dipole along the (f_{u-1}, f_u)
    direction of the underlying square lattice of side sqrt(pi), giving
    sqrt(pi * (f_{u-1}^2 + f_u^2)) = sqrt(pi * f_{2u+1}) once around.
    """
    return math.sqrt(fibonacci(2 * u + 1) * math.pi)


def boundary_radius(surface: SurfaceSpec, u: int) -> float:
    """Geodesic radius at which the rank-u dipole ring sits on each surface."""
    P = boundary_perimeter_prediction(u)
    if surface.kind == PLANE:
        return P / (2.0 * math.pi)
    R = surface.R
    x = P / (2.0 * math.pi * R)
    if surface.kind == HYPERBOLIC:
        return R * math.asinh(x)
    if x > 1.0:
        raise ValueError(
            f"ring of rank {u} needs perimeter {P:.2f} > equator {2 * math.pi * R:.2f}"
        )
    return R * math.asin(x)


def sphere_thresholds(u_max: int) -> list[int]:
    """Smallest point counts at which each dipole ring fits on the sphere.

    Ring u fits once its perimeter sqrt(pi f_{2u+1}) is at most the equator
    length sqrt(pi n), i.e. n >= f_{2u+1}/pi; the threshold is the nearest
    integer.  High-precision pi keeps the rounding exact at large rank.
    """
    if not 1 <= u_max <= 40:
        raise ValueError(f"need 1 <= u_max <= 40, got {u_max}")
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        pi = decimal.Decimal(
            "3.14159265358979323846264338327950288419716939937510582097494"
        )
        return [
            int(
                (decimal.Decimal(fibonacci(2 * u + 1)) / pi).quantize(
                    decimal.Decimal(1), rounding=decimal.ROUND_HALF_EVEN
                )
            )
            for u in range(1, u_max + 1)
        ]


def boundary_polar_angle(u: int, n: int) -> float:
    """Colatitude of the rank-u dipole ring on the sphere of n sites."""
    sin2 = fibonacci(2 * u + 1) / (n * math.pi)
    if sin2 > 1.0:
        raise ValueError(f"ring of rank {u} does not fit on a sphere of {n} sites")
    return math.asin(math.sqrt(sin2))


# ---------------------------------------------------------------------------
# analytic distances
# ---------------------------------------------------------------------------

def _reduced_turn(lam: float, f: int) -> float:
    """Azimuthal advance of a +f step, reduced to (-pi, pi]."""
    frac = (lam * f) % 1.0
    if frac > 0.5:
        frac -= 1.0
    return 2.0 * math.pi * frac


def analytic_distance(surface: SurfaceSpec, s, u: int):
    """First-order parastichy distance d_u(s) between sites s and s + f_u.

    A +f_u step moves f_u * dr/ds radially on the chart and turns the
    reduced azimuth gamma_u, so the chart displacement has length
    f_u * sqrt(dr/ds^2 + (gamma_u/f_u)^2 r^2); the conformal factor turns
    that into a geodesic length.  Evaluating at s treats the step as
    infinitesimal; averaging the evaluations at both endpoints cancels the
    leading correction.  Lengths come out in mean-cell-area-pi units.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 1):
        raise ValueError("distance profile needs s >= 1")
    f = fibonacci(u)
    if f < 1:
        raise ValueError(f"rank {u} has no parastichy step")
    # the sphere reads the integer lattice law z/R = (s - nu)/nu, n = 2 nu + 1,
    # which is mirror-symmetric about the equator (the continuum 2s/n - 1 is
    # not, and its skew is what the far-pole links feel)
    sphere = surface.kind == SPHERE
    nu = (round(4.0 / (surface.a * surface.a)) - 1) / 2 if sphere else None
    if sphere and np.any(s + f >= 2 * nu):
        raise ValueError("s + f_u at or beyond the far pole")
    gamma = _reduced_turn(surface.lam, f)
    pow2 = chart_pow2(surface)  # keeps the plane's chart lengths and their sums in range

    def one_sided(ss):
        if sphere:
            _, r, dr = _radial_law(surface, (ss - nu) / nu)
            dr /= nu
        else:
            _, r, dr = _radial_law(surface, ss)
        return f * conformal_factor(surface, r) * np.hypot(dr * pow2, (gamma / f) * (r * pow2))

    return (one_sided(s) + one_sided(s + f)) / 2.0 / (normalization_scale(surface) * pow2)


# ---------------------------------------------------------------------------
# measured series
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class DistanceSeries:
    """All positive-step neighbor links with their analytic predictions."""

    geometry: str
    s_from: np.ndarray
    s_to: np.ndarray
    rank: np.ndarray  # -1 when the step is not a Fibonacci number
    measured: np.ndarray
    analytic: np.ndarray  # nan where the first-order form is undefined
    interior: np.ndarray  # both endpoints non-boundary and outside the core

    def confinement(self) -> tuple[float, float]:
        d = self.measured[self.interior]
        if not len(d):
            raise ValueError(
                "no interior neighbor links: every link touches the core or a boundary cell"
            )
        return float(d.min()), float(d.max())

    def summary(self) -> dict:
        lo, hi = self.confinement()
        return {
            "links": int(len(self.measured)),
            "interior_links": int(np.sum(self.interior)),
            "min_interior": lo,
            "max_interior": hi,
            "ranks": np.flatnonzero(np.bincount(self.rank[self.rank > 0])).tolist(),
        }


def _link_lengths(pattern: PhylloPattern, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The normalized metric length of each link (s, t); each formula is symmetric in its ends, bit for bit."""
    surface, pow2 = pattern.surface, chart_pow2(pattern.surface)  # pow2 keeps plane squares in range
    sphere = surface.kind == SPHERE
    points = pattern.xyz / surface.R if sphere else pattern.chart_xy * pow2
    lengths = np.empty(len(s))
    for lo in range(0, len(s), _LINK_BLOCK):
        block = slice(lo, lo + _LINK_BLOCK)
        a, b = points[s[block]], points[t[block]]
        if sphere:
            lengths[block] = surface.R * np.arccos(np.clip(np.sum(a * b, axis=1), -1.0, 1.0))
        else:
            lengths[block] = chart_distance_xy(surface, a, b)
    lengths /= normalization_scale(surface) * pow2
    return lengths


def distance_series(tess: Tessellation) -> DistanceSeries:
    """Every forward link (s, t > s) with its measured and analytic length.

    Each forward link is measured once, _LINK_BLOCK links at a time, and
    no backward link is measured.
    """
    pattern = tess.pattern
    source, target = tess.adjacency.source, tess.adjacency.indices
    forward = target > source
    s_from, s_to = source[forward], target[forward]
    rank = fibonacci_rank(s_to - s_from)
    measured = _link_lengths(pattern, s_from, s_to)
    inside = ~tess.cells.is_boundary & (site_depth(pattern, np.arange(pattern.n)) >= CORE_DEPTH)
    interior = inside[s_from] & inside[s_to]
    analytic = np.full(len(measured), np.nan)
    # read the profile where each site sits.  Half-integer sites sit at
    # s + 1/2; the sphere's profile follows the integer lattice
    # cos(colat) = 1 - s/nu with nu = (n - 1)/2, on which the half-integer
    # site s, at cos(colat) = 1 - (2s + 1)/n, reads s' = (s + 1/2)(n - 1)/n
    s_eff = _effective_index(pattern.n, pattern.indexing)
    if pattern.surface.kind == SPHERE and pattern.indexing != "integer":
        s_eff *= (pattern.n - 1) / pattern.n
    for u in np.flatnonzero(np.bincount(rank[rank >= 2])):
        m = (rank == u) & (s_from >= 1)
        if pattern.surface.kind == SPHERE:
            m &= s_to < pattern.n - 1
        if np.any(m):
            analytic[m] = analytic_distance(pattern.surface, s_eff[s_from[m]], int(u))
    return DistanceSeries(
        pattern.surface.kind, s_from, s_to, rank, measured, analytic, interior
    )


@dataclass(eq=False)
class AreaSeries:
    """Per-site cell areas with the statistics window used for the summary."""

    geometry: str
    s: np.ndarray
    area: np.ndarray  # nan on boundary cells
    window: np.ndarray
    mean: float
    stddev: float


def area_series(tess: Tessellation) -> AreaSeries:
    """Cell areas and their spread over the statistics window.

    The window keeps every cell at least EDGE_MARGIN_CELLS mean cell widths
    clear of the pattern edge (sphere patterns have no edge); the irregular
    core stays in, since its fixed handful of aberrant cells carries most of
    the area variance.
    """
    pattern = tess.pattern
    areas = tess.cells.area
    window = ~tess.cells.is_boundary & _clear_of_edge(pattern, EDGE_MARGIN_CELLS)
    inside = areas[window]
    if not len(inside):
        raise ValueError(
            "no cell in the area window: every cell is a boundary cell or lies"
            f" within {EDGE_MARGIN_CELLS:g} cell widths of the pattern edge"
        )
    return AreaSeries(
        pattern.surface.kind,
        np.arange(pattern.n),
        areas,
        window,
        float(inside.mean()),
        float(inside.std()),
    )
