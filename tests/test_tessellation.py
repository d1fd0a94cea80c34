import dataclasses
import gc
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, Voronoi, cKDTree

from phyllo import cli, tessellation
from phyllo.analysis import area_series, detect_grain_boundaries
from phyllo.generator import PhylloPattern, generate, normalization_scale
from phyllo.geometry import SurfaceSpec, chart_distance_xy
from phyllo.numerics import fibonacci
from phyllo.render import render_svg
from phyllo.tessellation import (
    _BLOCK,
    Adjacency,
    Cells,
    Tessellation,
    cell_contains,
    classify,
    tessellate,
)

# neighbor structure of the first two defect rings of the plane pattern,
# recorded from the n=3000 tessellation: (site, cell type, sorted index
# separations of its Delaunay neighbors)
NEIGHBOR_LEDGER = [
    (10, "hexagon", (-8, -5, 5, 8, 13, 21)),
    (11, "hexagon", (-8, -5, 5, 8, 13, 21)),
    (12, "hexagon", (-8, -5, 5, 8, 13, 21)),
    (13, "hexagon", (-8, -5, 5, 8, 13, 21)),
    (14, "hexagon", (-8, -5, 5, 8, 13, 21)),
    (15, "heptagon", (-13, -8, -5, 5, 8, 13, 21)),
    (16, "heptagon", (-13, -8, -5, 5, 8, 13, 21)),
    (17, "heptagon", (-13, -8, -5, 5, 8, 13, 21)),
    (18, "hexagon", (-13, -8, -5, 8, 13, 21)),
    (19, "hexagon", (-13, -8, -5, 8, 13, 21)),
    (20, "hexagon", (-13, -8, -5, 8, 13, 21)),
    (21, "hexagon", (-13, -8, -5, 8, 13, 21)),
    (22, "hexagon", (-13, -8, -5, 8, 13, 21)),
    (23, "pentagon", (-13, -8, 8, 13, 21)),
    (24, "pentagon", (-13, -8, 8, 13, 21)),
    (25, "pentagon", (-13, -8, 8, 13, 21)),
    (26, "pentagon", (-13, -8, 8, 13, 21)),
    (27, "pentagon", (-13, -8, 8, 13, 21)),
    (28, "pentagon", (-13, -8, 8, 13, 21)),
    (29, "pentagon", (-13, -8, 8, 13, 21)),
    (30, "pentagon", (-13, -8, 8, 13, 21)),
]


def test_neighbor_separation_ledger(tess_plane_3000):
    labels = classify(tess_plane_3000)
    for s, label, deltas in NEIGHBOR_LEDGER:
        assert labels[s] == label, s
        got = tuple(sorted((tess_plane_3000.adjacency[s] - s).tolist()))
        assert got == deltas, s


def test_link_metadata(tess_plane_3000):
    adjacency = tess_plane_3000.adjacency
    source, delta, rank = adjacency.source, adjacency.delta, adjacency.rank
    for s, _, deltas in NEIGHBOR_LEDGER:
        links = slice(adjacency.indptr[s], adjacency.indptr[s + 1])
        assert np.all(source[links] == s)
        assert np.array_equal(adjacency.indices[links] - s, delta[links])
        expected_rank = [{5: 5, 8: 6, 13: 7, 21: 8}.get(abs(d), -1) for d in delta[links]]
        assert rank[links].tolist() == expected_rank


def test_link_rank_reads_fibonacci_steps():
    steps = [1, 2, 3, fibonacci(90), 4, 6, 7, fibonacci(90) + 1]
    for sign in (1, -1):
        indices = np.array(steps, dtype=np.int64) * sign
        adjacency = Adjacency(
            np.array([0, len(steps)]), indices, np.zeros(len(steps), dtype=np.int64), np.zeros(len(steps))
        )
        assert adjacency.rank.tolist() == [2, 3, 4, 90, -1, -1, -1, -1]


def test_adjacency_is_symmetric(tess_plane_3000):
    adjacency = tess_plane_3000.adjacency
    links = {
        (s, t): (delta, distance)
        for s, t, delta, distance in zip(
            adjacency.source.tolist(),
            adjacency.indices.tolist(),
            adjacency.delta.tolist(),
            adjacency.distance.tolist(),
        )
    }
    for (s, t), (delta, distance) in links.items():
        back_delta, back_distance = links[(t, s)]
        assert back_delta == -delta
        assert back_distance == pytest.approx(distance, rel=1e-12)


def test_interior_degree_equals_sides(tess_plane_3000):
    cells = tess_plane_3000.cells
    degree = np.diff(tess_plane_3000.adjacency.indptr)
    assert np.array_equal(degree[~cells.is_boundary], cells.sides[~cells.is_boundary])


def test_sphere_topological_charge(tess_sphere_1351, tess_sphere_9301):
    for tess in (tess_sphere_1351, tess_sphere_9301):
        assert int(np.sum(6 - tess.cells.sides)) == 12
        assert not tess.cells.is_boundary.any()


def test_sphere_area_partition(tess_sphere_1351, tess_sphere_9301):
    # cell areas (in mean-cell-area-pi units) tile the whole sphere: n*pi
    for tess in (tess_sphere_1351, tess_sphere_9301):
        total = float(np.sum(tess.cells.area))
        assert total == pytest.approx(tess.pattern.n * math.pi, rel=1e-9)


def test_sphere_facets_through_the_center_face_away_from_the_sites():
    # lam = 1/4 puts the five sites in the hemisphere x <= 0, four of them on
    # the great circle x = 0; the two facets on it pass through the center,
    # and their vertex is the circle's pole on the empty side, +x
    with np.errstate(all="raise"):
        tess = tessellate(generate("sphere", 5, lam=0.25))
        total = float(np.sum(tess.cells.area))
    assert total == pytest.approx(5 * math.pi, rel=1e-12)
    assert np.allclose(tess.vertices[np.abs(tess.vertices[:, 0] - 1.0) < 1e-9], [1.0, 0.0])
    assert np.sum(np.abs(tess.vertices[:, 0] - 1.0) < 1e-9) == 2


def test_plane_interior_areas(tess_plane_3000):
    interior = ~tess_plane_3000.cells.is_boundary
    areas = tess_plane_3000.cells.area[interior]
    assert np.all(areas > 0.2 * math.pi)
    assert np.all(areas < 1.9 * math.pi)
    # away from core and edge the cells are near-ideal
    mid = interior.copy()
    mid[:50] = False
    mid[2500:] = False
    assert float(np.mean(tess_plane_3000.cells.area[mid])) == pytest.approx(
        math.pi, rel=1e-3
    )


def test_hyperbolic_interior_areas(tess_hyperbolic_3000):
    interior = ~tess_hyperbolic_3000.cells.is_boundary
    mid = interior.copy()
    mid[:50] = False
    mid[2500:] = False
    assert float(np.mean(tess_hyperbolic_3000.cells.area[mid])) == pytest.approx(
        math.pi, rel=1e-3
    )


def test_boundary_flags(tess_plane_3000):
    pattern = tess_plane_3000.pattern
    assert tess_plane_3000.cells.is_boundary[int(np.argmax(pattern.rho))]
    assert not tess_plane_3000.cells.is_boundary[0]
    boundary = tess_plane_3000.cells.is_boundary
    assert boundary.sum() > 0
    # boundary cells have no well-defined area; every interior one has one
    assert np.all(np.isnan(tess_plane_3000.cells.area[boundary]))
    assert np.all(tess_plane_3000.cells.area[~boundary] > 0)


def test_coincident_sites_rejected():
    surface = SurfaceSpec("plane", R=None, a=1.0)
    rho = np.array([0.0, 1.0, 1.0])
    theta = np.array([0.0, 2.0, 2.0])
    pattern = PhylloPattern(
        surface=surface,
        n=3,
        indexing="integer",
        s=np.arange(3),
        rho=rho,
        theta=theta,
        r=rho.copy(),
    )
    with pytest.raises(ValueError, match="1.*2|2.*1"):
        tessellate(pattern)


def _brute_force_nearest(pattern, probe):
    if pattern.surface.kind == "sphere":
        return int(np.argmax(pattern.xyz @ probe))
    d = chart_distance_xy(
        pattern.surface, probe[None, :], pattern.chart_xy
    )
    return int(np.argmin(d))


@pytest.mark.parametrize(
    "geometry,n,a",
    [("plane", 120, 1.0), ("hyperbolic", 120, 0.2), ("sphere", 121, None)],
)
def test_membership_matches_nearest_site(geometry, n, a):
    pattern = generate(geometry, n, a=a) if a is not None else generate(geometry, n)
    tess = tessellate(pattern)
    rng = np.random.default_rng(2718)
    if geometry == "sphere":
        probes = rng.normal(size=(300, 3))
        probes *= pattern.surface.R / np.linalg.norm(probes, axis=1, keepdims=True)
    else:
        r_max = 0.8 * pattern.r.max()
        rad = r_max * np.sqrt(rng.uniform(size=300))
        ang = rng.uniform(0.0, 2.0 * math.pi, size=300)
        probes = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    for probe in probes:
        nearest = _brute_force_nearest(pattern, probe)
        assert cell_contains(tess, nearest, probe)


def test_membership_excludes_other_cells():
    pattern = generate("plane", 120)
    tess = tessellate(pattern)
    rng = np.random.default_rng(3141)
    xy = pattern.chart_xy
    for _ in range(200):
        probe = rng.uniform(-0.7, 0.7, size=2) * pattern.r.max()
        d = np.linalg.norm(xy - probe, axis=1)
        order = np.argsort(d)
        if d[order[1]] - d[order[0]] < 1e-9:
            continue  # too close to an edge to call
        assert cell_contains(tess, int(order[0]), probe)
        assert not cell_contains(tess, int(order[1]), probe)


def test_classify_labels(tess_plane_3000):
    labels = classify(tess_plane_3000)
    assert labels[int(np.argmax(tess_plane_3000.pattern.rho))] == "boundary"
    counts = {lab: labels.count(lab) for lab in set(labels)}
    assert set(counts) <= {"pentagon", "hexagon", "heptagon", "square", "boundary", "other"}
    assert counts["hexagon"] > 2000


def test_tessellation_is_deterministic():
    a = tessellate(generate("plane", 400))
    b = tessellate(generate("plane", 400))
    assert np.array_equal(a.cells.sides, b.cells.sides)
    assert np.array_equal(a.cells.area, b.cells.area, equal_nan=True)
    for name in ("indptr", "indices", "distance"):
        assert np.array_equal(getattr(a.adjacency, name), getattr(b.adjacency, name))
    assert np.array_equal(a.vertex_offsets, b.vertex_offsets)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.vertex_index, b.vertex_index)


@pytest.mark.parametrize(
    "kind,n,kwargs",
    [
        ("plane", 600, {}),
        ("sphere", 401, {}),
        ("sphere", 600, {"indexing": "half-integer"}),
        ("hyperbolic", 3000, {"a": 0.4}),
        ("plane", 3000, {"lam": 0.4}),  # Qhull's triangles
    ],
)
def test_vertex_table_holds_one_vertex_per_triangle(kind, n, kwargs):
    pattern = generate(kind, n, **kwargs)
    tess = tessellate(pattern)
    corners = np.diff(tess.vertex_offsets)
    if kind == "sphere":
        assert len(tess.vertices) == 2 * n - 4
    else:
        # a hull site's fan is open: one triangle fewer than its links
        hull = np.flatnonzero(corners < tess.cells.sides)
        assert np.array_equal(hull, np.sort(ConvexHull(pattern.chart_xy).vertices))
        assert np.all(corners[hull] == tess.cells.sides[hull] - 1)
        assert len(tess.vertices) == 2 * n - 2 - len(hull)
    # each triangle is listed by its three corners' cells, once by each
    index = tess.vertex_index
    assert np.array_equal(np.bincount(index, minlength=len(tess.vertices)), np.full(len(tess.vertices), 3))
    owner = np.repeat(np.arange(n), corners)
    key = np.sort(owner * len(tess.vertices) + index)
    assert np.all(np.diff(key) > 0)


# Three passes run on first read, each at most once: the link lengths, the
# chart polygons and the cell areas (which read the polygons' sorted fans).

#: the deferred passes, by the name of the function that runs each
PASSES = {"lengths": "_link_lengths", "polygons": "_cell_polygons", "areas": "_cell_areas"}


@pytest.fixture
def geometry_runs(monkeypatch):
    """The list of runs of the deferred passes, one name of PASSES per run, as each ends."""
    runs = []
    for name, attr in PASSES.items():

        def counted(*args, name=name, run=getattr(tessellation, attr)):
            result = run(*args)
            runs.append(name)
            return result

        monkeypatch.setattr(tessellation, attr, counted)
    return runs


@pytest.mark.parametrize(
    "kind,n,kwargs", [("plane", 3000, {}), ("sphere", 1333, {}), ("hyperbolic", 3000, {"a": 0.1})]
)
def test_ring_detection_computes_no_cell_geometry(kind, n, kwargs, geometry_runs):
    boundaries = detect_grain_boundaries(tessellate(generate(kind, n, **kwargs)))
    assert any(b.complete for b in boundaries)
    assert geometry_runs == []


def test_empirical_thresholds_compute_no_cell_geometry(geometry_runs):
    assert cli.main(["thresholds", "--u-max", "6", "--empirical"]) == 0
    assert geometry_runs == []


@pytest.mark.parametrize(
    "kind,n,kwargs,projection",
    [
        ("plane", 600, {}, "chart"),
        ("hyperbolic", 3000, {"a": 0.4}, "chart"),
        ("sphere", 601, {}, "orthographic"),
        ("sphere", 601, {}, "stereographic"),
    ],
)
def test_rendering_computes_only_the_polygons(kind, n, kwargs, projection, geometry_runs):
    assert render_svg(tessellate(generate(kind, n, **kwargs)), projection).count("<polygon")
    assert geometry_runs == ["polygons"]


def test_render_command_computes_only_the_polygons(tmp_path, geometry_runs):
    argv = ["render", "--geometry", "hyperbolic", "--n", "3000", "--a", "0.025"]
    assert cli.main([*argv, "--out", str(tmp_path / "disc.svg")]) == 0
    assert geometry_runs == ["polygons"]


@pytest.mark.parametrize(
    "kind,n,kwargs",
    [("sphere", 600, {"indexing": "half-integer"}), ("hyperbolic", 3000, {"a": 0.4}), ("plane", 600, {})],
)
def test_cell_geometry_runs_once_whatever_is_read_first(kind, n, kwargs, geometry_runs):
    pattern = generate(kind, n, **kwargs)
    area_first = tessellate(pattern)
    areas = area_first.cells.area
    assert geometry_runs == ["polygons", "areas"]
    vertices_first = tessellate(pattern)
    vertices, offsets = vertices_first.vertices, vertices_first.vertex_offsets
    assert geometry_runs == ["polygons", "areas", "polygons"]
    assert np.array_equal(vertices_first.cells.area, areas, equal_nan=True)
    assert geometry_runs == ["polygons", "areas", "polygons", "areas"]
    assert np.array_equal(area_first.vertices, vertices, equal_nan=True)
    assert np.array_equal(area_first.vertex_offsets, offsets)
    assert np.array_equal(area_first.vertex_index, vertices_first.vertex_index)
    assert np.array_equal(area_first.adjacency.distance, vertices_first.adjacency.distance)
    assert geometry_runs == ["polygons", "areas", "polygons", "areas", "lengths", "lengths"]
    for tess in (area_first, vertices_first):
        assert tess.cells.area is tess.cells.area and tess.vertices is tess.vertices
        assert tess.adjacency.distance is tess.adjacency.distance
        list(tess.cells)
    assert geometry_runs == ["polygons", "areas", "polygons", "areas", "lengths", "lengths"]


#: the containers a tessellation holds its arrays in
_HOLDERS = (dict, tuple, list, Tessellation, Cells, Adjacency, PhylloPattern, tessellation._Pass)


def _arrays_held(tess) -> list[np.ndarray]:
    """The numpy arrays a tessellation holds, through its fields and pending passes."""
    seen, arrays, todo = set(), [], [tess]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, _HOLDERS):
            todo.extend(gc.get_referents(obj))
    return arrays


@pytest.mark.parametrize(
    "kind,n,kwargs", [("plane", 600, {}), ("sphere", 601, {}), ("hyperbolic", 3000, {"a": 0.4})]
)
def test_polygon_pass_keeps_only_what_the_area_pass_reads(kind, n, kwargs):
    tess = tessellate(generate(kind, n, **kwargs))
    pattern, cells, adjacency = tess.pattern, tess.cells, tess.adjacency
    tess.vertices
    pattern.chart_xy  # cached on the pattern at its first read
    # the pattern, the triangulation's columns and the polygons; on the
    # sphere also the facet normals, one unit vector per vertex
    fields = [getattr(pattern, f.name) for f in dataclasses.fields(pattern)]
    fields += [cells.sides, cells.is_boundary, adjacency.indptr, adjacency.indices]
    fields += [tess.vertex_offsets, tess.vertices, tess.vertex_index]
    known = {id(a) for a in fields if a is not None}
    extra = [a for a in _arrays_held(tess) if id(a) not in known]
    if kind == "sphere":
        assert [a.shape for a in extra] == [(len(tess.vertices), 3)]
        assert np.allclose(np.linalg.norm(extra[0], axis=1), 1.0)
    else:
        assert extra == []
    # every pass run, only the fields are left
    fields += [cells.area, adjacency.source, adjacency.distance]
    known = {id(a) for a in fields if a is not None}
    assert [a.shape for a in _arrays_held(tess) if id(a) not in known] == []


def test_link_sources_are_expanded_once_per_tessellation(monkeypatch, tmp_path):
    runs = []
    run = tessellation._link_source

    def counted(indptr):
        runs.append(len(indptr) - 1)
        return run(indptr)

    monkeypatch.setattr(tessellation, "_link_source", counted)
    tess = tessellate(generate("plane", 600))
    tess.adjacency.distance  # the length pass reads the sources
    assert runs == [600]
    assert np.array_equal(tess.adjacency.delta, tess.adjacency.indices - tess.adjacency.source)
    assert tess.adjacency.source is tess.adjacency.source
    assert runs == [600]
    # analyze reads them for ring detection, the distances and the document
    assert cli.main(["analyze", "--geometry", "plane", "--n", "3000", "--out", str(tmp_path / "report")]) == 0
    assert runs == [600, 3000]


# Cell areas computed one cell at a time, as plain formulas: the reference
# the array code in tessellate must match bit for bit.

def _solid_angle(a, b, c):
    numer = float(np.dot(a, np.cross(b, c)))
    denom = 1.0 + float(np.dot(a, b)) + float(np.dot(b, c)) + float(np.dot(c, a))
    return 2.0 * math.atan2(numer, denom)


def _facet_normal(a, b, c):
    """Outward unit normal of the hull facet with corners a < b < c (by site)."""
    normal = np.cross(b - a, c - a)
    return normal / (np.sign(float(np.dot(normal, a))) * math.sqrt(float(np.dot(normal, normal))))


def _reference_sphere_areas(pattern):
    hull = ConvexHull(pattern.xyz)
    centers = np.array([_facet_normal(*pattern.xyz[np.sort(f)]) for f in hull.simplices])
    areas = []
    for s in range(pattern.n):
        site = pattern.xyz[s] / pattern.surface.R
        helper = np.array([0.0, 0.0, 1.0]) if abs(site[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
        e1 = np.cross(site, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(site, e1)
        ring = centers[np.flatnonzero(np.any(hull.simplices == s, axis=1))]
        ring = ring[np.argsort(np.arctan2(ring @ e2, ring @ e1))]
        fan = 0.0
        for k in range(1, len(ring) - 1):
            fan += _solid_angle(ring[0], ring[k], ring[k + 1])
        scale = normalization_scale(pattern.surface)
        areas.append(abs(fan) * pattern.surface.R * pattern.surface.R / (scale * scale))
    return np.array(areas)


def _disc_centers(center, radius):
    """Hyperbolic centers of chart circles of Euclidean center (..., 2) and radius (...).

    A chart circle inside the disc is a hyperbolic circle, centered at the
    hyperbolic midpoint of its diameter through the origin; any other
    circle has no center (nan).
    """
    d = np.hypot(center[..., 0], center[..., 1])
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.tanh((np.arctanh(d - radius) + np.arctanh(d + radius)) / 2.0)
    ratio = np.divide(rho, d, out=np.ones_like(d), where=d > 0)
    return np.where((d + radius < 1.0)[..., None], center * ratio[..., None], np.nan)


def _angle_defect_areas(z, offsets, R):
    """Gauss-Bonnet areas R^2 ((k - 2) pi - sum of the angles) of geodesic disc polygons.

    Polygon c has the complex chart vertices z[offsets[c]:offsets[c + 1]],
    in cyclic order.  The disc isometry taking a vertex to the origin
    straightens both sides through it and keeps the angle between them.
    """
    after = np.arange(len(z)) + 1
    after[offsets[1:] - 1] = offsets[:-1]
    before = np.arange(len(z)) - 1
    before[offsets[:-1]] = offsets[1:] - 1

    def seen_from_vertex(w):
        return (w - z) / (1.0 - np.conj(z) * w)

    angle = np.abs(np.angle(seen_from_vertex(z[after]) / seen_from_vertex(z[before])))
    return R * R * ((np.diff(offsets) - 2) * math.pi - np.add.reduceat(angle, offsets[:-1]))


def _reference_chart_area(verts, surface):
    if surface.kind == "plane":
        x, y = verts[:, 0], verts[:, 1]
        return abs(0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))
    z = verts[:, 0] + 1j * verts[:, 1]
    return float(_angle_defect_areas(z, np.array([0, len(z)]), surface.R)[0])


def _circumcenter(a, b, c):
    """Circumcenter of a chart triangle, in coordinates relative to a."""
    bx, by = b[0] - a[0], b[1] - a[1]
    cx, cy = c[0] - a[0], c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
    return a[0] + (cy * b2 - by * c2) / d, a[1] + (bx * c2 - cx * b2) / d


def _reference_chart_areas(pattern):
    """Each site's Voronoi cell from its own fan of Delaunay triangles."""
    xy = pattern.chart_xy
    tri = Delaunay(xy)
    r_max = pattern.r.max()
    scale = normalization_scale(pattern.surface)
    disc = pattern.surface.kind == "hyperbolic"
    areas = []
    for s in range(pattern.n):
        fan = tri.simplices[np.any(tri.simplices == s, axis=1)]
        verts = np.array([_circumcenter(*xy[np.sort(corners)].tolist()) for corners in fan])
        if disc:
            verts = _disc_centers(verts, np.hypot(*(verts - xy[s]).T))
        # the fan closes around s iff each of its neighbors is in two triangles
        _, twice = np.unique(fan[fan != s], return_counts=True)
        if np.any(twice != 2) or not np.all(np.sum(verts * verts, axis=1) <= r_max * r_max):
            areas.append(math.nan)
            continue
        toward = verts - xy[s]
        if disc:  # the direction of the geodesic from s
            p, v = complex(*xy[s]), verts[:, 0] + 1j * verts[:, 1]
            w = (v - p) / (1.0 - np.conj(p) * v)
            toward = np.column_stack((w.real, w.imag))
        verts = verts[np.argsort(np.arctan2(toward[:, 1], toward[:, 0]))]
        areas.append(_reference_chart_area(verts, pattern.surface) / (scale * scale))
    return np.array(areas)


@pytest.mark.parametrize(
    "kind,n,kwargs",
    [
        ("plane", 1500, {"a": 0.37}),
        ("hyperbolic", 1000, {"a": 0.4}),
        ("hyperbolic", 1000, {"a": 0.025, "indexing": "half-integer"}),
        ("sphere", 1351, {}),
        ("sphere", 600, {"indexing": "half-integer"}),
    ],
)
def test_areas_match_per_cell_reference(kind, n, kwargs):
    pattern = generate(kind, n, **kwargs)
    reference = _reference_sphere_areas if kind == "sphere" else _reference_chart_areas
    areas = tessellate(pattern).cells.area
    if kind == "hyperbolic":
        # the angle-defect reference sums its terms differently from the fan
        np.testing.assert_allclose(areas, reference(pattern), rtol=1e-9, atol=0)
    else:
        assert np.array_equal(areas, reference(pattern), equal_nan=True)


@pytest.mark.parametrize("n,kwargs", [(25, {}), (1351, {}), (600, {"indexing": "half-integer"})])
def test_sphere_vertices_are_hull_facet_normals(n, kwargs):
    # Qhull's own facet normals check the cross products independently
    pattern = generate("sphere", n, **kwargs)
    hull = ConvexHull(pattern.xyz)
    centers = tessellation._sphere_centers(pattern.xyz, np.sort(hull.simplices, axis=1))
    np.testing.assert_allclose(centers, hull.equations[:, :3], rtol=0, atol=1e-14)


# Links built one Python tuple per link direction from Qhull's unique site
# pairs: the reference the CSR table of tessellate must match exactly.

def _reference_links(pattern):
    """(s, t, delta, distance, rank) of every link direction, sorted by (s, t)."""
    scale = normalization_scale(pattern.surface)
    if pattern.surface.kind == "sphere":
        hull = ConvexHull(pattern.xyz)
        edges = {
            tuple(sorted(edge))
            for facet in hull.simplices.tolist()
            for edge in itertools.combinations(facet, 2)
        }
        pairs = np.array(sorted(edges))
        R = pattern.surface.R
        unit = pattern.xyz / R
        cosang = np.clip(np.sum(unit[pairs[:, 0]] * unit[pairs[:, 1]], axis=1), -1.0, 1.0)
        dist = R * np.arccos(cosang) / scale
    else:
        xy = pattern.chart_xy
        pairs = Voronoi(xy).ridge_points
        dist = chart_distance_xy(pattern.surface, xy[pairs[:, 0]], xy[pairs[:, 1]]) / scale
    rank_of = {fibonacci(u): u for u in range(2, 91)}
    links = []
    for i, j, d in zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), dist.tolist()):
        rank = rank_of.get(abs(j - i), -1)
        links.append((i, j, j - i, d, rank))
        links.append((j, i, i - j, d, rank))
    return sorted(links)


@pytest.mark.parametrize(
    "kind,n,kwargs",
    [
        ("plane", 600, {}),
        ("plane", 3000, {"indexing": "half-integer"}),
        ("hyperbolic", 3000, {"a": 0.4}),
        ("sphere", 25, {}),
        ("sphere", 2 * _BLOCK + 1, {}),
    ],
)
def test_adjacency_matches_per_link_reference(kind, n, kwargs):
    pattern = generate(kind, n, **kwargs)
    adjacency = tessellate(pattern).adjacency
    got = list(
        zip(
            adjacency.source.tolist(),
            adjacency.indices.tolist(),
            adjacency.delta.tolist(),
            adjacency.distance.tolist(),
            adjacency.rank.tolist(),
        )
    )
    assert got == _reference_links(pattern)
    assert len(adjacency) == n
    assert adjacency.indptr[0] == 0 and adjacency.indptr[-1] == len(got)


# The chart cells are built from Delaunay triangles; Qhull's own Voronoi
# diagram of the same sites is the independent reference for them.

CHART_PATTERNS = (
    [("plane", n, {}) for n in (4, 5, 12, 20, 600, 2820, 3000, 30000)]
    + [("plane", 3000, {"indexing": "half-integer"}), ("plane", 1500, {"a": 0.37})]
    + [("plane", 3000, {"lam": lam}) for lam in (0.382, 0.3819, 0.4, 1 / 3, 0.55)]
    + [("hyperbolic", 3000, {"a": a}) for a in (0.025, 0.4, 1.0)]
    + [
        ("hyperbolic", 20000, {"a": 0.025}),
        ("hyperbolic", 1000, {"a": 0.025, "indexing": "half-integer"}),
        ("hyperbolic", 3000, {"a": 0.1, "lam": 0.4}),
        ("hyperbolic", 3000, {"a": 0.1, "lam": 1 / 3}),
        ("hyperbolic", 12, {"a": 0.3}),
    ]
)


def _voronoi_polygon_areas(vertices, flat, offsets, surface):
    """Metric areas of the polygons vertices[flat[offsets[c]:offsets[c + 1]]]."""
    if surface.kind == "hyperbolic":
        return _angle_defect_areas(vertices[flat, 0] + 1j * vertices[flat, 1], offsets, surface.R)
    after = np.arange(len(flat)) + 1
    after[offsets[1:] - 1] = offsets[:-1]  # each polygon's last vertex wraps to its first
    a, b = vertices[flat], vertices[flat[after]]
    terms = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    return np.abs(np.add.reduceat(terms, offsets[:-1]))


@pytest.mark.parametrize(
    "kind,n,kwargs", CHART_PATTERNS, ids=[f"{k}-{n}-{kw}" for k, n, kw in CHART_PATTERNS]
)
def test_chart_cells_match_voronoi(kind, n, kwargs):
    pattern = generate(kind, n, **kwargs)
    tess = tessellate(pattern)
    xy = pattern.chart_xy
    vor = Voronoi(xy)
    scale = normalization_scale(pattern.surface)

    pairs = np.sort(vor.ridge_points, axis=1)
    links = np.concatenate((pairs, pairs[:, ::-1]))
    order = np.lexsort((links[:, 1], links[:, 0]))
    dist = chart_distance_xy(pattern.surface, xy[pairs[:, 0]], xy[pairs[:, 1]]) / scale
    adjacency = tess.adjacency
    assert np.array_equal(adjacency.indptr, np.r_[0, np.cumsum(np.bincount(links[:, 0], minlength=n))])
    assert np.array_equal(adjacency.indices, links[order, 1])
    assert np.array_equal(adjacency.distance, np.tile(dist, 2)[order])
    assert np.array_equal(tess.cells.sides, np.diff(adjacency.indptr))

    # a cell is cut when Qhull leaves it unbounded or a vertex lies beyond
    # the outermost site; its finite vertices are drawn all the same
    regions = [vor.regions[r] for r in vor.point_region]
    finite = [[v for v in region if v >= 0] for region in regions]
    vertices = vor.vertices
    disc = kind == "hyperbolic"
    if disc:
        # Qhull's vertex is the Euclidean center of a Delaunay circumcircle
        # through each site whose region holds it; the cell vertex is its
        # hyperbolic center, and a circle with none leaves its cells open
        flat = np.concatenate(finite)
        owner = np.repeat(np.arange(n), [len(f) for f in finite])
        radius = np.empty(len(vertices))
        radius[flat] = np.hypot(*(vertices[flat] - xy[owner]).T)
        vertices = _disc_centers(vertices, radius)
    r_max = pattern.r.max()
    far = ~(np.sum(vertices * vertices, axis=1) <= r_max * r_max)
    boundary = np.array([-1 in reg or bool(np.any(far[f])) for reg, f in zip(regions, finite)])
    assert np.array_equal(tess.cells.is_boundary, boundary)
    assert np.array_equal(np.diff(tess.vertex_offsets), [len(f) for f in finite])

    # every vertex sits on a reference vertex, to rounding; the thin triangles
    # along the hull have ill-conditioned circumcenters in both builds
    corners = tess.vertices[tess.vertex_index]  # each cell's polygon in turn
    known = ~np.isnan(vertices[:, 0])
    size = np.max(np.abs(vertices[known]))
    gap, _ = cKDTree(vertices[known]).query(corners)
    gap /= size
    cut = np.repeat(boundary, np.diff(tess.vertex_offsets))
    assert np.all(gap[~cut] <= 1e-12)
    if disc:
        # a circumcircle that is no hyperbolic circle puts its vertex on or
        # outside the unit circle
        outside = np.sum(corners * corners, axis=1) >= 1.0
        assert np.sum(outside) == sum(np.count_nonzero(~known[f]) for f in finite)
        cut &= ~outside
    assert np.all(gap[cut] <= 1e-10)
    back, _ = cKDTree(corners).query(vertices[known])
    assert np.all(back <= 1e-10 * size)

    interior = np.flatnonzero(~boundary)
    if len(interior):
        flat = np.concatenate([finite[s] for s in interior])
        offsets = np.r_[0, np.cumsum([len(finite[s]) for s in interior])]
        want = _voronoi_polygon_areas(vertices, flat, offsets, pattern.surface) / scale**2
        np.testing.assert_allclose(tess.cells.area[interior], want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("a", [0.1, 0.4, 1.0])
def test_disc_areas_match_grid_oracle(a):
    # the metric density integrated over the exact cell_contains region, on
    # a 400 x 400 midpoint grid over each cell's padded bounding box; points
    # beyond the unit circle pass the chart predicate too and are left out
    pattern = generate("hyperbolic", 500, a=a)
    tess = tessellate(pattern)
    xy, R = pattern.chart_xy, pattern.surface.R
    scale = normalization_scale(pattern.surface)
    interior = np.flatnonzero(~tess.cells.is_boundary)
    rng = np.random.default_rng(5)
    for s in interior[np.linspace(0, len(interior) - 1, 12).astype(int)]:
        poly = tess.vertices[tess.vertex_index[tess.vertex_offsets[s] : tess.vertex_offsets[s + 1]]]
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        lo, hi = lo - 0.25 * (hi - lo), hi + 0.25 * (hi - lo)
        step = (hi - lo) / 400
        gx, gy = (lo[:, None] + step[:, None] * (np.arange(400) + 0.5)).tolist()
        grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
        r2 = np.sum(grid * grid, axis=1)
        others = xy[tess.adjacency[s]]
        d2s = np.sum((grid - xy[s]) ** 2, axis=1)
        d2t = np.sum((grid[:, None, :] - others[None, :, :]) ** 2, axis=-1)
        w_s, w_t = 1.0 - np.sum(xy[s] ** 2), 1.0 - np.sum(others * others, axis=1)
        inside = np.all(d2s[:, None] * w_t <= d2t * w_s, axis=1)
        for k in rng.choice(len(grid), 40, replace=False):
            assert inside[k] == cell_contains(tess, s, grid[k])
        inside &= r2 < 1.0
        assert not inside.reshape(400, 400)[[0, -1]].any()
        assert not inside.reshape(400, 400)[:, [0, -1]].any()
        oracle = np.sum((2.0 * R / (1.0 - r2[inside])) ** 2) * step[0] * step[1]
        assert tess.cells.area[s] * scale**2 == pytest.approx(oracle, rel=0.01), s
    if a <= 0.4:
        assert area_series(tess).mean == pytest.approx(math.pi, rel=0.01)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(a=st.floats(0.02, 1.0), n=st.integers(12, 400))
def test_disc_vertices_are_hyperbolic_circumcenters(a, n):
    pattern = generate("hyperbolic", n, a=a)
    tess = tessellate(pattern)
    xy, surface = pattern.chart_xy, pattern.surface
    interior = np.flatnonzero(~tess.cells.is_boundary)
    assert np.all(tess.cells.area[interior] > 0)
    for s in interior:
        # each vertex is as far from s as from the two neighbors that share
        # its triangle, and every other neighbor is farther
        verts = tess.vertices[tess.vertex_index[tess.vertex_offsets[s] : tess.vertex_offsets[s + 1]]]
        to_site = chart_distance_xy(surface, verts, xy[s])
        to_others = np.sort(chart_distance_xy(surface, verts[:, None], xy[tess.adjacency[s]]), axis=1)
        np.testing.assert_allclose(to_others[:, :2], np.column_stack((to_site, to_site)), rtol=1e-9)


@pytest.mark.parametrize("a", [0.025, 0.4, 1.0])
def test_disc_vertices_do_not_depend_on_corner_order(a):
    # triangles whose lifted plane holds no circle have a pole for vertex,
    # which the isometry moving a corner to the origin does not carry
    xy = generate("hyperbolic", 3000, a=a).chart_xy
    simplices = np.sort(Delaunay(xy).simplices, axis=1)
    centers = tessellation._disc_centers(xy, simplices)
    assert np.any(np.sum(centers * centers, axis=1) > 1.0)
    for order in itertools.permutations(range(3)):
        moved = tessellation._disc_centers(xy, simplices[:, order])
        np.testing.assert_allclose(moved, centers, rtol=0, atol=1e-12)


def test_degenerate_chart_triangle_rejected(monkeypatch):
    # Qhull's triangulated output may hold zero-area triangles; the chart
    # patterns probed so far leave sites out of every triangle instead.
    # Three of these sites are collinear on the hull, which no certificate
    # passes, so Qhull's fallback, imported when it runs, triangulates them
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    rho = np.hypot(xy[:, 0], xy[:, 1])
    pattern = PhylloPattern(
        surface=SurfaceSpec("plane", R=None, a=1.0),
        n=4,
        indexing="integer",
        s=np.arange(4),
        rho=rho,
        theta=np.arctan2(xy[:, 1], xy[:, 0]),
        r=rho.copy(),
    )

    class Triangulation:
        def __init__(self, points):
            self.coplanar = np.empty((0, 3), dtype=np.intc)
            self.simplices = np.array([[0, 1, 3], [1, 2, 3], [0, 1, 2]], dtype=np.intc)

    monkeypatch.setattr("scipy.spatial.Delaunay", Triangulation)
    with pytest.raises(ValueError, match=r"degenerate Delaunay triangle of sites \[0, 1, 2\]"):
        tessellate(pattern)


# The parastichy triangulation against Qhull's of the same sites:
# Qhull is the fallback, reached here by making the certificate fail.

THRESHOLD_SPHERES = (25, 31, 71, 77, 191, 197, 505, 511, 1329, 1333, 3481, 3487)

REFERENCE_PATTERNS = (
    CHART_PATTERNS
    + [("sphere", n, {}) for n in (1351, 9301) + THRESHOLD_SPHERES]
    + [("sphere", n, {"indexing": "half-integer"}) for n in (600, 3000)]
)


def _failed_certificate(*args):
    return None, np.empty(0, dtype=np.int64)


@pytest.mark.parametrize(
    "kind,n,kwargs", REFERENCE_PATTERNS, ids=[f"{k}-{n}-{kw}" for k, n, kw in REFERENCE_PATTERNS]
)
def test_parastichy_triangulation_matches_qhull(kind, n, kwargs, monkeypatch):
    pattern = generate(kind, n, **kwargs)
    fallbacks = []
    qhull = tessellation._qhull_simplices

    def counted(*args):
        fallbacks.append(args)
        return qhull(*args)

    monkeypatch.setattr(tessellation, "_qhull_simplices", counted)
    tess = tessellate(pattern)
    if "lam" not in kwargs:
        assert fallbacks == [], "a golden-ratio pattern fell back to Qhull"
    else:
        assert len(fallbacks) == 1, "another divergence did not go straight to Qhull"
    monkeypatch.setattr(tessellation, "_certify", _failed_certificate)
    before = len(fallbacks)
    reference = tessellate(pattern)
    assert len(fallbacks) == before + 1
    for name in ("indptr", "indices", "distance"):
        assert np.array_equal(getattr(tess.adjacency, name), getattr(reference.adjacency, name)), name
    for name in ("sides", "is_boundary", "area"):
        assert np.array_equal(getattr(tess.cells, name), getattr(reference.cells, name), equal_nan=True), name
    # both paths put each triangle's corners in one order, so they round alike
    # (the paths list the triangles in different orders: compare the polygons)
    assert np.array_equal(tess.vertex_offsets, reference.vertex_offsets)
    polygons = [t.vertices[t.vertex_index] for t in (tess, reference)]
    assert np.array_equal(*polygons, equal_nan=True)


def test_parastichy_steps_are_the_fibonacci_numbers_or_none():
    golden = generate("plane", 3).surface.lam
    for lam in (golden, 1 - golden, golden + 1, -golden):
        for n in (3, 4, 100, 2**21 - 1):
            fibs = [fibonacci(u) for u in range(2, 40) if fibonacci(u) < n]
            assert tessellation._parastichy_steps(lam, n).tolist() == fibs
    for lam in (0.0, 0.5, 0.4, 1 / 3, 0.3819, 0.55, 1e-4, 0.5000001):
        assert tessellation._parastichy_steps(lam, 10**6) is None


class _Qhull(Exception):
    pass


@pytest.mark.parametrize(
    "kind,n,lam", [("plane", 100_000, lam) for lam in (0.4, 0.5000001, 1e-4)] + [("sphere", 100_001, 0.4)]
)
def test_other_divergences_go_straight_to_qhull(kind, n, lam, monkeypatch):
    # their parastichy numbers below n run to about n/q steps; ranking the
    # sites against each would cost one pass over the pattern per step
    def unranked(*args):
        raise AssertionError("the steps of a divergence that is not Fibonacci were ranked")

    def qhull(*args):
        raise _Qhull

    monkeypatch.setattr(tessellation, "_local_rank", unranked)
    monkeypatch.setattr(tessellation, "_qhull_simplices", qhull)
    with pytest.raises(_Qhull):
        tessellate(generate(kind, n, lam=lam))
