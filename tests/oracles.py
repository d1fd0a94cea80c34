"""Test oracles: the cell labels, the point-in-cell test and the fan window rule."""

import math

import numpy as np

from phyllo.geometry import PLANE, SPHERE
from phyllo.tessellation import CELL_TYPE_BY_SIDES, Tessellation


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


def fan_window(coords, steps) -> tuple[np.ndarray, np.ndarray]:
    """Per site, the rank k of its nearest step and the end of k - 2 ... k + 2 its fan window drops.

    Brute force over every site, every step and both directions: step q
    reaches s - q and s + q where they exist, and its distance from s is
    that of the nearer (infinite for none, or for a rank outside steps).  k
    is the least rank at the least distance.  The window drops k - 2 when
    step k + 2 is strictly nearer than step k - 2, else k + 2.
    """
    pts = np.column_stack(coords).tolist()
    n, steps = len(pts), list(steps)
    rank, dropped = [], []
    for s, p in enumerate(pts):
        d2 = []
        for q in steps:
            reached = [pts[t] for t in (s - q, s + q) if 0 <= t < n]
            d2.append(min((sum((b - a) * (b - a) for a, b in zip(p, r)) for r in reached), default=math.inf))
        k = d2.index(min(d2))
        far = d2[k + 2] if k + 2 < len(steps) else math.inf
        near = d2[k - 2] if k >= 2 else math.inf
        rank.append(k)
        dropped.append(k - 2 if far < near else k + 2)
    return np.array(rank), np.array(dropped)
