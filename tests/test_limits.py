"""Flat limits: a curved surface near a point looks like the plane.

Near its pole a large sphere is flat to first order in s/N: the sites
s < 2000 of sphere 100001 lie within about 2% of its area of the pole, so
their Delaunay links are those of plane 3000 but for flips of nearly square
quads, and the common links have the plane's lengths to within a multiple
of max(s, t)/N.  Both patterns are normalized to mean cell area pi, so the
lengths compare directly.

The disc has the same limit as a -> 0 at fixed n; that half waits for a
disc radial law that keeps its digits at small a.
"""

import numpy as np

from phyllo.analysis import distance_series
from phyllo.generator import generate
from phyllo.tessellation import tessellate


def _links(kind: str, n: int, below: int) -> dict[tuple[int, int], float]:
    """Length of each link (s, t) with s < t < below."""
    d = distance_series(tessellate(generate(kind, n)))
    keep = d.s_to < below
    return dict(zip(zip(d.s_from[keep].tolist(), d.s_to[keep].tolist()), d.measured[keep].tolist()))


def test_sphere_pole_is_the_plane():
    N, below = 100001, 2000
    sphere, plane = _links("sphere", N, below), _links("plane", 3000, below)
    # 16 of the plane's 5,853 links differ: 8 nearly square quads flip their diagonal
    assert len(plane) == 5853
    assert len(sphere.keys() ^ plane.keys()) <= 20
    common = sorted(sphere.keys() & plane.keys())
    rel = np.array([abs(sphere[k] - plane[k]) / plane[k] for k in common])
    far = np.array([t for _, t in common])
    # at most 0.67 max(s, t)/N, at the link (0, 1); 0.44 from s = 10 on
    assert np.all(rel <= 0.7 * far / N)
