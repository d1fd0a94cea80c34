"""Acceptance gate: one test per headline claim of the package.

Each test checks a single claim at its stated tolerance and emits exactly one
pass/fail line through ``_verdict``; run ``pytest tests/test_acceptance.py -v -s``
to see the lines for passing criteria as well.
"""

import math
import time

import numpy as np

from phyllo.analysis import (
    DISTANCE_MIN,
    area_series,
    detect_grain_boundaries,
    dipole_angles,
    distance_series,
    ring_spans_equator,
    site_depth,
    sphere_thresholds,
    verify_inflation,
)
from phyllo.generator import generate
from phyllo.geometry import chart_distance_xy
from phyllo.numerics import fibonacci, strip_sequence
from phyllo.tessellation import tessellate

from oracles import cell_contains, classify

LOG_TAU = math.log((1.0 + math.sqrt(5.0)) / 2.0)

# confinement window for normalized neighbor distances, with 1% slack
CONFINE_LO = 1.67
CONFINE_HI = 2.51

# frozen neighbor ledger for plane sites 10..30 (same data as the
# tessellation suite; restated so this module stands alone)
NEIGHBOR_LEDGER = (
    [(s, "hexagon", (-8, -5, 5, 8, 13, 21)) for s in range(10, 15)]
    + [(s, "heptagon", (-13, -8, -5, 5, 8, 13, 21)) for s in range(15, 18)]
    + [(s, "hexagon", (-13, -8, -5, 8, 13, 21)) for s in range(18, 23)]
    + [(s, "pentagon", (-13, -8, 8, 13, 21)) for s in range(23, 31)]
)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} [{name}]: {detail}"


def test_criterion_01_plane_boundary_census():
    t0 = time.perf_counter()
    boundaries = detect_grain_boundaries(tessellate(generate("plane", 3000)))
    elapsed = time.perf_counter() - t0

    expected = [
        ((3, 5, 8), False),
        ((13, 8, 13), True),
        ((21, 13, 21), True),
        ((34, 21, 34), True),
    ]
    rows = [
        (b.counts, b.complete)
        for b in sorted(boundaries, key=lambda b: b.s_range[0])
    ][: len(expected)]

    problems = []
    if rows != expected:
        problems.append(f"censuses {rows} != {expected}")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f} s (budget 10 s)")
    _verdict(1, "plane 3000 ring census", not problems,
             "; ".join(problems) or f"4 innermost rings exact in {elapsed:.1f} s")


def test_criterion_02_neighbor_separation_ledger(tess_plane_3000):
    labels = classify(tess_plane_3000)
    problems = []
    for s, label, deltas in NEIGHBOR_LEDGER:
        got = tuple(sorted((tess_plane_3000.adjacency[s] - s).tolist()))
        if labels[s] != label or got != deltas:
            problems.append(f"s={s}: {labels[s]} {got}")
    _verdict(2, "neighbor separations s=10..30", not problems,
             "; ".join(problems) or "labels and separations exact for all 21 sites")


def test_criterion_03_area_stddev_scaling(
    tess_plane_1500, tess_plane_3000, tess_plane_6000
):
    targets = {1500: 0.03171, 3000: 0.02246, 6000: 0.01589}
    stds = {
        t.pattern.n: area_series(t).stddev
        for t in (tess_plane_1500, tess_plane_3000, tess_plane_6000)
    }
    problems = [
        f"n={n}: {stds[n]:.5f} vs {want:.5f}"
        for n, want in targets.items()
        if abs(stds[n] - want) > 0.15 * want
    ]
    if not stds[1500] > stds[3000] > stds[6000]:
        problems.append(f"not decreasing: {sorted(stds.items())}")
    _verdict(3, "cell-area spread vs n", not problems,
             "; ".join(problems)
             or "within 15% at n=1500/3000/6000 and strictly decreasing")


def test_criterion_04_distance_confinement(
    tess_plane_3000, tess_hyperbolic_3000, tess_sphere_1351, tess_sphere_9301
):
    problems, seen = [], []
    for tess in (tess_plane_3000, tess_hyperbolic_3000,
                 tess_sphere_1351, tess_sphere_9301):
        lo, hi = distance_series(tess).confinement()
        tag = f"{tess.pattern.surface.kind} n={tess.pattern.n}"
        seen.append(f"{tag}: [{lo:.3f}, {hi:.3f}]")
        if lo < 0.99 * CONFINE_LO or hi > 1.01 * CONFINE_HI:
            problems.append(seen[-1])
    _verdict(4, "interior distance confinement", not problems,
             "; ".join(problems) or "; ".join(seen))


def test_criterion_05_analytic_distance_accuracy(
    tess_plane_3000, tess_hyperbolic_3000, tess_sphere_1351
):
    problems, seen = [], []
    for tess in (tess_plane_3000, tess_hyperbolic_3000, tess_sphere_1351):
        ds = distance_series(tess)
        depth_from = site_depth(tess.pattern, ds.s_from)
        depth_to = site_depth(tess.pattern, ds.s_to)
        worst = 0.0
        for u in np.unique(ds.rank[ds.interior]):
            if u < 2:
                continue
            # the averaged first-order form needs both endpoints beyond ~2 f_u
            f = fibonacci(int(u))
            m = (ds.interior & (ds.rank == u)
                 & (depth_from >= 2 * f) & (depth_to >= 2 * f))
            if not m.any():
                continue
            rel = float(
                np.max(np.abs(ds.measured[m] - ds.analytic[m]) / ds.measured[m])
            )
            worst = max(worst, rel)
            if rel >= 0.02:
                problems.append(f"{ds.geometry} rank {int(u)}: {100 * rel:.2f}%")
        # the outermost two families' minimum-bearing annuli are cut off by
        # the rim (or fold onto the far hemisphere), so convergence is read
        # at the largest fully interior family; rank 5 touches the core
        u_top = int(ds.rank[ds.interior].max()) - 2
        for u in range(6, u_top + 1):
            d_min = float(ds.measured[ds.interior & (ds.rank == u)].min())
            if abs(d_min - DISTANCE_MIN) > 0.01 * DISTANCE_MIN:
                problems.append(f"{ds.geometry} rank-{u} min {d_min:.4f}")
        d_top = float(ds.measured[ds.interior & (ds.rank == u_top)].min())
        seen.append(f"{ds.geometry}: worst {100 * worst:.2f}%,"
                    f" rank-{u_top} min {d_top:.4f}")
    _verdict(5, "analytic vs measured distances", not problems,
             "; ".join(problems) or "; ".join(seen))


def test_criterion_06_sphere_ring_thresholds():
    problems = []
    want = [1, 2, 4, 11, 28, 74, 194, 508, 1331, 3484]
    got = sphere_thresholds(10)
    if got != want:
        problems.append(f"analytic list {got}")

    t0 = time.perf_counter()
    below, above = (
        ring_spans_equator(tessellate(generate("sphere", n)))
        for n in (1329, 1333)
    )
    elapsed = time.perf_counter() - t0
    if below:
        problems.append("equatorial ring already present at n=1329")
    if not above:
        problems.append("no equatorial ring at n=1333")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.0f} s (budget 60 s)")
    _verdict(6, "sphere ring-birth thresholds", not problems,
             "; ".join(problems)
             or f"list exact; born between 1329 and 1333; {elapsed:.1f} s")


def test_criterion_07_topological_charge(
    tess_sphere_1351, tess_sphere_9301, tess_sphere_1329, tess_sphere_1333,
    tess_plane_3000,
):
    problems = []
    for tess in (tess_sphere_1351, tess_sphere_9301,
                 tess_sphere_1329, tess_sphere_1333):
        charge = int(np.sum(6 - tess.cells.sides))
        if charge != 12:
            problems.append(f"sphere n={tess.pattern.n}: charge {charge}")
    for b in detect_grain_boundaries(tess_plane_3000):
        if b.complete and b.counts[0] != b.counts[2]:
            problems.append(f"plane ring rank {b.rank}: {b.counts}")
    _verdict(7, "topological charge", not problems,
             "; ".join(problems)
             or "sum(6 - sides) = 12 on all spheres; plane rings balanced")


def test_criterion_08_inflation_symmetry(tess_plane_3000, tess_sphere_9301):
    problems, n_pairs = [], 0
    for tess in (tess_plane_3000, tess_sphere_9301):
        report = verify_inflation(detect_grain_boundaries(tess))
        n_pairs += len(report)
        if not report:
            problems.append(f"{tess.pattern.surface.kind}: no ring pairs")
        problems += [
            f"{tess.pattern.surface.kind} ranks {a}->{b}"
            for a, b, ok in report if not ok
        ]
    for u in range(3, 13):
        _, _, sides = strip_sequence(u)
        totals = tuple(int(np.count_nonzero(sides == k)) for k in (7, 6, 5))
        if totals != (fibonacci(u), fibonacci(u - 1), fibonacci(u)):
            problems.append(f"strip u={u}: totals {totals}")
        if len(sides) != fibonacci(u + 2):
            problems.append(f"strip u={u}: {len(sides)} cells")
    _verdict(8, "ring-word inflation", not problems,
             "; ".join(problems)
             or f"{n_pairs} consecutive pairs inflate; strip totals exact to u=12")


def test_criterion_09_self_similarity_vs_curvature(
    tess_plane_3000, tess_hyperbolic_3000
):
    problems = []
    plane = [b for b in detect_grain_boundaries(tess_plane_3000) if b.complete]
    for a, b in zip(plane, plane[1:]):
        u = a.rank - 1
        want = math.sqrt(fibonacci(2 * u + 3) / fibonacci(2 * u + 1))
        ratio = b.mean_radius / a.mean_radius
        if abs(ratio - want) > 0.02 * want:
            problems.append(f"plane ranks {a.rank}->{b.rank}: ratio {ratio:.4f}")

    hyp = [b for b in detect_grain_boundaries(tess_hyperbolic_3000) if b.complete]
    R = tess_hyperbolic_3000.pattern.surface.R
    widths = [(b.mean_radius - a.mean_radius) / R for a, b in zip(hyp, hyp[1:])]
    # radial gaps at reachable radii still climb toward ln(tau); the
    # asymptotic spacing shows first in the circumference ratios
    if not all(w2 > w1 for w1, w2 in zip(widths, widths[1:])):
        problems.append(f"hyperbolic widths not increasing: {widths}")
    if not all(w < LOG_TAU for w in widths):
        problems.append(f"hyperbolic widths exceed ln(tau): {widths}")
    log_ratios = [math.log(b.perimeter / a.perimeter) for a, b in zip(hyp, hyp[1:])]
    for lr in log_ratios[-2:]:
        if abs(lr - LOG_TAU) > 0.05 * LOG_TAU:
            problems.append(f"hyperbolic log perimeter ratio {lr:.4f}")
    _verdict(9, "self-similarity vs curvature", not problems,
             "; ".join(problems)
             or (f"plane ratios within 2%; outer log ratios "
                 f"{log_ratios[-2]:.4f}/{log_ratios[-1]:.4f} vs {LOG_TAU:.4f}"))


def test_criterion_10_dipole_orientation(tess_plane_3000):
    problems, signs, last = [], [], None
    for b in detect_grain_boundaries(tess_plane_3000):
        if not b.complete:
            continue
        angles = dipole_angles(b, tess_plane_3000)
        mean_abs, mean_signed = float(np.abs(angles).mean()), float(angles.mean())
        want = math.atan2(fibonacci(b.rank - 1), fibonacci(b.rank))
        if abs(mean_abs - want) > 0.05:
            problems.append(f"rank {b.rank}: {mean_abs:.4f} vs {want:.4f}")
        signs.append(math.copysign(1.0, mean_signed))
        last = mean_abs
    if not all(a == -b for a, b in zip(signs, signs[1:])):
        problems.append(f"signs do not alternate: {signs}")
    if last is None or abs(last - 0.5535) > 0.05:
        problems.append(f"outermost mean angle {last}")
    _verdict(10, "dipole axis orientation", not problems,
             "; ".join(problems)
             or f"all rings within 0.05 rad, outermost {last:.4f} vs 0.5535")


def test_criterion_11_membership_oracle():
    rng = np.random.default_rng(97)
    problems, seen = [], []
    for geometry, n, a in (("plane", 200, 1.0),
                           ("hyperbolic", 200, 0.2),
                           ("sphere", 199, None)):
        pattern = generate(geometry, n, a=a) if a is not None else generate(geometry, n)
        tess = tessellate(pattern)
        n_probes, agree = 10_000, 0
        if geometry == "sphere":
            probes = rng.normal(size=(n_probes, 3))
            probes *= pattern.surface.R / np.linalg.norm(probes, axis=1, keepdims=True)
        else:
            r_max = 0.8 * pattern.r.max()
            rad = r_max * np.sqrt(rng.uniform(size=n_probes))
            ang = rng.uniform(0.0, 2.0 * math.pi, size=n_probes)
            probes = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
        for probe in probes:
            if geometry == "sphere":
                cosang = np.clip(pattern.xyz @ probe / pattern.surface.R ** 2, -1.0, 1.0)
                d = pattern.surface.R * np.arccos(cosang)
            else:
                d = chart_distance_xy(pattern.surface, probe[None, :], pattern.chart_xy)
            order = np.argsort(d)
            if cell_contains(tess, int(order[0]), probe):
                agree += 1
            elif (d[order[1]] - d[order[0]]) / 2.0 > 1e-8:
                problems.append(
                    f"{geometry}: probe {(d[order[1]] - d[order[0]]) / 2.0:.2e}"
                    " from the nearest edge misassigned"
                )
        if agree < 0.999 * n_probes:
            problems.append(f"{geometry}: only {agree}/{n_probes} agree")
        seen.append(f"{geometry} {agree}/{n_probes}")
    _verdict(11, "membership vs nearest-site oracle", not problems,
             "; ".join(problems) or "; ".join(seen))
