import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phyllo.analysis import (
    DISTANCE_MAX,
    DISTANCE_MIN,
    analytic_distance,
    area_series,
    boundary_perimeter_prediction,
    boundary_polar_angle,
    boundary_radius,
    _rank_from_pentagon_count,
    _ring_bands,
    _ring_word,
    detect_grain_boundaries,
    dipole_angles,
    distance_series,
    ring_spans_equator,
    site_depth,
    sphere_thresholds,
    verify_inflation,
)
from phyllo.generator import generate
from phyllo.geometry import SurfaceSpec
from phyllo.numerics import fibonacci, strip_dipole_word, words_equal
from phyllo.tessellation import tessellate

# expected ring censuses: (rank, (heptagons, hexagons, pentagons), site band,
# complete).  The innermost ring is eaten by the disordered core and stays
# incomplete; all others carry the full Fibonacci census.
PLANE_3000_RINGS = [
    (7, (3, 5, 8), (15, 30), False),
    (8, (13, 8, 13), (33, 66), True),
    (9, (21, 13, 21), (101, 155), True),
    (10, (34, 21, 34), (290, 378), True),
    (11, (55, 34, 55), (801, 944), True),
    (12, (89, 55, 89), (2166, 2398), True),
]

HYPERBOLIC_3000_RINGS = [
    (7, (3, 5, 8), (15, 30), False),
    (8, (13, 8, 13), (33, 66), True),
    (9, (21, 13, 21), (99, 153), True),
    (10, (34, 21, 34), (274, 362), True),
    (11, (55, 34, 55), (707, 850), True),
    (12, (89, 55, 89), (1669, 1901), True),
]

SPHERE_9301_RINGS_NEAR_POLE = [
    (7, (3, 5, 8), (15, 30), False),
    (8, (13, 8, 13), (34, 67), True),
    (9, (21, 13, 21), (103, 157), True),
    (10, (34, 21, 34), (303, 391), True),
    (11, (55, 34, 55), (902, 1045), True),
    (12, (89, 55, 89), (3892, 4124), True),
]

SPHERE_1351_RINGS_NEAR_POLE = [
    (7, (3, 5, 8), (15, 30), False),
    (8, (13, 8, 13), (35, 68), True),
    (9, (21, 13, 21), (116, 170), True),
    (10, (34, 21, 34), (553, 641), True),
]

THRESHOLDS = [1, 2, 4, 11, 28, 74, 194, 508, 1331, 3484, 9122, 23881]


def _census(boundaries, side=None):
    return [
        (b.rank, b.counts, b.s_range, b.complete)
        for b in boundaries
        if side is None or b.pole_side == side
    ]


def test_plane_ring_census(tess_plane_3000):
    bs = detect_grain_boundaries(tess_plane_3000)
    assert _census(bs) == PLANE_3000_RINGS
    assert not any(b.anomalous for b in bs)


def test_hyperbolic_ring_census(tess_hyperbolic_3000):
    bs = detect_grain_boundaries(tess_hyperbolic_3000)
    assert _census(bs) == HYPERBOLIC_3000_RINGS


def test_sphere_ring_census_mirrors(tess_sphere_9301, tess_sphere_1351):
    for tess, near in (
        (tess_sphere_9301, SPHERE_9301_RINGS_NEAR_POLE),
        (tess_sphere_1351, SPHERE_1351_RINGS_NEAR_POLE),
    ):
        bs = detect_grain_boundaries(tess)
        assert _census(bs, side=0) == near
        n = tess.pattern.n
        mirrored = [
            (rank, counts, (n - 1 - hi, n - 1 - lo), complete)
            for rank, counts, (lo, hi), complete in near
        ]
        assert _census(bs, side=1) == mirrored
        # the mirrored rings are metrically identical
        for b0, b1 in zip(
            [b for b in bs if b.pole_side == 0], [b for b in bs if b.pole_side == 1]
        ):
            assert b1.mean_radius == pytest.approx(b0.mean_radius, rel=1e-9)
            assert b1.perimeter == pytest.approx(b0.perimeter, rel=1e-9)


@pytest.mark.parametrize(
    "kind, n, a, outermost",
    [
        ("plane", 1171, 1.0, 10),
        ("plane", 2723, 1.0, 11),
        ("plane", 2820, 1.0, 11),
        ("hyperbolic", 1074, 0.025, 10),
        ("hyperbolic", 2335, 0.025, 11),
        ("hyperbolic", 1365, 0.1, 11),
        ("hyperbolic", 2432, 0.1, 12),
    ],
)
def test_a_ring_cut_by_the_edge_is_left_out(kind, n, a, outermost):
    # the edge window cuts the next ring of each pattern; judged as it was
    # cut, its 27 to 144 heptagons were each a one-site anomalous group
    bs = detect_grain_boundaries(tessellate(generate(kind, n, a=a)))
    assert not any(b.anomalous for b in bs)
    assert [b.rank for b in bs] == list(range(7, outermost + 1))


def test_complete_ring_membership(tess_plane_3000):
    bs = detect_grain_boundaries(tess_plane_3000)
    for b in bs:
        if b.complete:
            lo, hi = b.s_range
            assert hi - lo + 1 == len(b.members) == fibonacci(b.rank + 1)
            assert sorted(b.members) == list(range(lo, hi + 1))


def test_dipole_steps(tess_plane_3000, tess_sphere_9301):
    for tess in (tess_plane_3000, tess_sphere_9301):
        for b in detect_grain_boundaries(tess):
            if not b.complete:
                continue
            step = fibonacci(b.rank)
            assert len(b.dipoles) == fibonacci(b.rank - 1)
            want = -step if b.pole_side == 1 else step
            assert all(p - h == want for h, p in b.dipoles)


def test_ring_words_match_strip_words(tess_plane_3000):
    for b in detect_grain_boundaries(tess_plane_3000):
        if b.complete:
            assert b.word.count("L") == fibonacci(b.rank - 3)
            assert b.word.count("S") == fibonacci(b.rank - 4)
            assert words_equal(b.word, strip_dipole_word(b.rank - 1))


def _reference_rank(count):
    """The pentagon-count rank as a plain loop over the Fibonacci numbers."""
    if count < 1:
        return None
    best = None
    u = 2
    while u <= 89 and fibonacci(u) <= count + 1:
        d = abs(fibonacci(u) - count)
        if best is None or d < best[0]:
            best = (d, u)
        u += 1
    if best is not None and best[0] <= 1:
        return best[1] + 1
    return None


@pytest.mark.parametrize(
    "count, rank",
    [(0, None), (1, 3), (2, 4), (3, 5), (4, 5), (9, 7), (10, None), (11, None), (12, 8)],
)
def test_rank_from_pentagon_count_values(count, rank):
    # one unit of slack, the lower rank on a tie (4 lies between 3 and 5)
    assert _rank_from_pentagon_count(count) == rank


def test_rank_from_pentagon_count_matches_the_loop():
    counts = list(range(-1, 100_001))
    counts += [fibonacci(u) + d for u in range(2, 90) for d in (-2, -1, 0, 1, 2)]
    assert [c for c in counts if _rank_from_pentagon_count(c) != _reference_rank(c)] == []


def _reference_word(order, heptagons):
    """The ring word read run by run from the azimuthal member order."""
    pos = [k for k, s in enumerate(order) if s in heptagons]
    if len(pos) < 2:
        return None
    m = len(order)
    gaps = [(pos[(k + 1) % len(pos)] - pos[k]) % m for k in range(len(pos))]
    if any(g not in (2, 3) for g in gaps):
        return None
    try:
        start = next(k for k in range(len(pos)) if gaps[k - 1] == 3)
    except StopIteration:
        return None
    symbols = []
    size = 1
    for k in range(len(pos)):
        g = gaps[(start + k) % len(pos)]
        if g == 2:
            size += 1
        else:
            if size > 2:
                return None
            symbols.append("L" if size == 2 else "S")
            size = 1
    return "".join(symbols)


@given(
    st.lists(st.sampled_from(["23", "3"]), max_size=40),
    st.sampled_from(["", "2", "22", "1", "4"]),
    st.integers(0, 40),
    st.integers(0, 200),
)
def test_ring_word_matches_the_run_loop(tokens, defect, at, shift):
    # member gaps between heptagons: 2 then 3 for a pair, 3 for a singleton,
    # with one defect spliced in (a longer run, or a gap other than 2 and 3);
    # the heptagons sit at the running sums, on a ring of sum(gaps) members
    gaps = [int(c) for c in "".join(tokens[:at]) + defect + "".join(tokens[at:])]
    m = sum(gaps)
    order = list(range(m))
    heptagons = {(int(c) + shift) % m for c in np.cumsum(gaps)}
    assert _ring_word(order, heptagons) == _reference_word(order, heptagons)


def test_inflation_chains(tess_plane_3000, tess_sphere_9301):
    bs = detect_grain_boundaries(tess_plane_3000)
    assert verify_inflation(bs) == [(8, 9, True), (9, 10, True), (10, 11, True), (11, 12, True)]
    bs = detect_grain_boundaries(tess_sphere_9301)
    assert verify_inflation(bs) == [(8, 9, True), (9, 10, True), (10, 11, True), (11, 12, True)] * 2


def test_dipole_angles_match_prediction(tess_plane_3000):
    bs = [b for b in detect_grain_boundaries(tess_plane_3000) if b.complete]
    signs = []
    for b in bs:
        da = dipole_angles(b, tess_plane_3000)
        expected = math.atan2(fibonacci(b.rank - 1), fibonacci(b.rank))
        assert abs(da.mean_abs - expected) < 0.05
        assert abs(da.mean_abs - abs(da.mean_signed)) < 1e-9  # all same handedness
        signs.append(math.copysign(1.0, da.mean_signed))
    assert all(a == -b for a, b in zip(signs, signs[1:]))


def test_dipole_angles_mirror_on_sphere(tess_sphere_9301):
    bs = detect_grain_boundaries(tess_sphere_9301)
    near = {b.rank: b for b in bs if b.pole_side == 0 and b.complete}
    far = {b.rank: b for b in bs if b.pole_side == 1 and b.complete}
    assert set(near) == set(far)
    for rank in near:
        a0 = dipole_angles(near[rank], tess_sphere_9301)
        a1 = dipole_angles(far[rank], tess_sphere_9301)
        assert a1.mean_signed == pytest.approx(a0.mean_signed, abs=1e-9)
        assert abs(a0.mean_abs - math.atan2(fibonacci(rank - 1), fibonacci(rank))) < 0.05


def test_perimeters_match_prediction(tess_plane_3000, tess_hyperbolic_3000):
    for tess in (tess_plane_3000, tess_hyperbolic_3000):
        for b in detect_grain_boundaries(tess):
            if b.complete:
                pred = boundary_perimeter_prediction(b.rank - 1)
                assert b.perimeter == pytest.approx(pred, rel=0.01)


def test_mean_radii_match_prediction(
    tess_plane_3000, tess_hyperbolic_3000, tess_sphere_1351
):
    for tess in (tess_plane_3000, tess_hyperbolic_3000, tess_sphere_1351):
        for b in detect_grain_boundaries(tess):
            if b.complete:
                pred = boundary_radius(tess.pattern.surface, b.rank - 1)
                assert b.mean_radius == pytest.approx(pred, rel=0.01)


def test_plane_radius_ratios(tess_plane_3000):
    bs = [b for b in detect_grain_boundaries(tess_plane_3000) if b.complete]
    for a, b in zip(bs, bs[1:]):
        u = a.rank - 1
        want = math.sqrt(fibonacci(2 * u + 3) / fibonacci(2 * u + 1))
        assert b.mean_radius / a.mean_radius == pytest.approx(want, rel=0.02)


def test_hyperbolic_ring_spacing(tess_hyperbolic_3000):
    """Rings move apart toward the ln(tau) spacing of the exponential regime."""
    bs = [b for b in detect_grain_boundaries(tess_hyperbolic_3000) if b.complete]
    R = tess_hyperbolic_3000.pattern.surface.R
    log_tau = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    widths = [
        (b.mean_radius - a.mean_radius) / R for a, b in zip(bs, bs[1:])
    ]
    assert all(w2 > w1 for w1, w2 in zip(widths, widths[1:]))
    assert all(w < log_tau for w in widths)
    # circumference growth already shows the asymptotic ratio at these radii
    log_ratios = [
        math.log(b.perimeter / a.perimeter) for a, b in zip(bs, bs[1:])
    ]
    for lr in log_ratios[-2:]:
        assert lr == pytest.approx(log_tau, rel=0.05)


def test_sphere_polar_angles(tess_sphere_1351):
    n = tess_sphere_1351.pattern.n
    R = tess_sphere_1351.pattern.surface.R
    for b in detect_grain_boundaries(tess_sphere_1351):
        if b.complete and b.pole_side == 0:
            colat = b.mean_radius / R
            assert colat == pytest.approx(boundary_polar_angle(b.rank - 1, n), rel=0.02)


def test_threshold_list():
    assert sphere_thresholds(12) == THRESHOLDS
    assert sphere_thresholds(10) == THRESHOLDS[:10]


def test_equatorial_ring_birth(tess_sphere_1329, tess_sphere_1333):
    def spans_equator(tess):
        nu = (tess.pattern.n - 1) // 2
        return any(
            b.s_range[0] <= nu <= b.s_range[1]
            for b in detect_grain_boundaries(tess)
        )

    assert not spans_equator(tess_sphere_1329)
    assert spans_equator(tess_sphere_1333)


RING_BAND_PATTERNS = (
    [("plane", 2820, {}), ("plane", 3000, {}), ("hyperbolic", 3000, {"a": 0.2}), ("sphere", 9301, {})]
    + [("sphere", 200, {"indexing": "half-integer"})]
    # the birth windows of the rank-7 and rank-9 equatorial rings
    + [("sphere", n, {}) for n in (*range(197, 206, 2), *range(1333, 1344, 2))]
)


@pytest.mark.parametrize(
    "kind,n,kwargs", RING_BAND_PATTERNS, ids=[f"{k}-{n}-{kw}" for k, n, kw in RING_BAND_PATTERNS]
)
def test_ring_bands_are_the_bands_of_the_reported_rings(kind, n, kwargs):
    tess = tessellate(generate(kind, n, **kwargs))
    bands = [(int(group[0]), int(group[-1])) for group in _ring_bands(tess)]
    assert bands == sorted(b.s_range for b in detect_grain_boundaries(tess))


# odd spheres below and above each analytic ring-birth threshold from u=5
# to 10, and one inside the rank-10 birth window
EQUATOR_VERDICTS = [
    (25, False), (31, True), (71, False), (77, True), (191, False), (197, True),
    (505, False), (511, True), (1329, False), (1333, True), (3481, False), (3487, True),
    (3491, True),
]


@pytest.mark.parametrize("n,spans", EQUATOR_VERDICTS)
def test_ring_spans_equator_verdicts(n, spans):
    assert ring_spans_equator(tessellate(generate("sphere", n))) is spans


def test_perimeter_prediction_value():
    assert boundary_perimeter_prediction(6) == pytest.approx(27.055334, abs=1e-6)


def test_analytic_distance_minimum():
    plane = SurfaceSpec("plane", None, 1.0)
    s = np.arange(200, 3000)
    d = analytic_distance(plane, s, 11)
    assert float(d.min()) == pytest.approx(1.676722, abs=1e-4)
    assert float(d.min()) == pytest.approx(DISTANCE_MIN, rel=0.01)


def test_predictions_refuse_what_they_cannot_place():
    sphere, plane = generate("sphere", 101).surface, SurfaceSpec("plane", None, 1.0)
    # a ring of perimeter sqrt(pi f_17) = 70.83 is longer than the equator
    with pytest.raises(ValueError, match=r"^ring of rank 8 needs perimeter 70\.83 > equator 31\.57$"):
        boundary_radius(sphere, 8)
    for u_max in (0, 41):
        with pytest.raises(ValueError, match=rf"^need 1 <= u_max <= 40, got {u_max}$"):
            sphere_thresholds(u_max)
    with pytest.raises(ValueError, match=r"^distance profile needs s >= 1$"):
        analytic_distance(plane, [0.5, 2.0], 3)
    with pytest.raises(ValueError, match=r"^rank 0 has no parastichy step$"):
        analytic_distance(plane, 5.0, 0)
    # n = 101 puts the far pole at s = 100: 97 + f_3 = 99 stays short of it
    assert analytic_distance(sphere, 97.0, 3) > 0
    with pytest.raises(ValueError, match=r"^s \+ f_u at or beyond the far pole$"):
        analytic_distance(sphere, 98.0, 3)


def test_analytic_vs_measured_distances(tess_plane_3000, tess_sphere_1351):
    for tess in (tess_plane_3000, tess_sphere_1351):
        ds = distance_series(tess)
        depth_from = site_depth(tess.pattern, ds.s_from)
        depth_to = site_depth(tess.pattern, ds.s_to)
        for u in np.unique(ds.rank[ds.interior]):
            if u < 2:
                continue
            f = fibonacci(int(u))
            m = ds.interior & (ds.rank == u) & (depth_from >= 2 * f) & (depth_to >= 2 * f)
            if not m.any():
                continue
            rel = np.abs(ds.measured[m] - ds.analytic[m]) / ds.measured[m]
            assert float(rel.max()) < 0.02, int(u)


@pytest.mark.parametrize(
    "kind,n,kwargs",
    [("plane", 3000, {}), ("hyperbolic", 3000, {"a": 0.025}), ("sphere", 3001, {})],
)
def test_half_integer_distances_read_at_site_position(kind, n, kwargs):
    # half-integer site s sits at s + 1/2; reading the profile at s instead
    # left its worst interior error at 9.2% against 8.1% for integer sites
    worst = {}
    for indexing in ("integer", "half-integer"):
        ds = distance_series(tessellate(generate(kind, n, indexing=indexing, **kwargs)))
        m = ds.interior & np.isfinite(ds.analytic)
        worst[indexing] = float(np.max(np.abs(ds.measured[m] / ds.analytic[m] - 1.0)))
    assert worst["half-integer"] < worst["integer"] < 0.085


def test_distance_confinement(tess_plane_3000):
    ds = distance_series(tess_plane_3000)
    lo, hi = ds.confinement()
    assert lo == pytest.approx(1.670759, abs=1e-5)
    assert hi == pytest.approx(2.522915, abs=1e-5)
    assert lo > 0.99 * DISTANCE_MIN
    assert hi < 1.01 * DISTANCE_MAX


def test_distance_series_summary(tess_plane_3000):
    summary = distance_series(tess_plane_3000).summary()
    assert summary["links"] > summary["interior_links"] > 8000
    assert {7, 8, 9, 10, 11} <= set(summary["ranks"])


def test_area_series_windows(tess_plane_3000, tess_sphere_9301, tess_hyperbolic_3000):
    ar = area_series(tess_plane_3000)
    assert ar.mean == pytest.approx(math.pi, rel=1e-3)
    assert ar.stddev == pytest.approx(0.024015, abs=1e-4)
    sphere = area_series(tess_sphere_9301)
    assert sphere.window.all()
    assert sphere.mean == pytest.approx(math.pi, rel=1e-9)
    hyp = area_series(tess_hyperbolic_3000)
    assert hyp.mean == pytest.approx(math.pi, rel=1e-3)


def test_area_series_refuses_empty_window():
    # four sites: every cell is a boundary cell
    with pytest.raises(ValueError, match="no cell in the area window"):
        area_series(tessellate(generate("plane", 4)))


def test_site_depth_conventions(tess_plane_3000, tess_sphere_1351):
    assert site_depth(tess_plane_3000.pattern, 42) == 42
    assert site_depth(tess_sphere_1351.pattern, 42) == 42
    assert site_depth(tess_sphere_1351.pattern, 1350) == 0
    assert list(site_depth(tess_plane_3000.pattern, [0, 5])) == [0, 5]


def test_small_pattern_has_no_rings():
    tess = tessellate(generate("plane", 60))
    assert detect_grain_boundaries(tess) == []
