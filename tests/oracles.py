"""Test oracles read off a tessellation: the cell labels and the point-in-cell test."""

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
