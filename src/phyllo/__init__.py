"""Golden-ratio spiral point sets on curved surfaces and their grain structure.

The package generates phyllotactic (sunflower-spiral) site patterns on the
plane, the sphere and the hyperbolic plane, tessellates them with
metric-aware Voronoi cells, and analyzes the resulting grains and grain
boundaries: defect rings of heptagon/pentagon dipoles whose composition,
spacing and orientation follow closed-form Fibonacci predictions.
"""

from .analysis import (
    area_series,
    analytic_distance,
    boundary_perimeter_prediction,
    boundary_polar_angle,
    boundary_radius,
    detect_grain_boundaries,
    dipole_angles,
    distance_series,
    grain_bounds_estimate,
    sphere_thresholds,
    verify_inflation,
)
from .generator import (
    PhylloPattern,
    generate,
    generate_hyperbolic,
    generate_plane,
    generate_sphere,
    normalization_scale,
)
from .geometry import HYPERBOLIC, PLANE, SPHERE, SurfaceSpec
from .numerics import (
    DIVERGENCE,
    GOLDEN_RATIO,
    LSWord,
    fibonacci,
    golden_approximant,
    inflate,
    strip_dipole_word,
    strip_sequence,
)
from .tessellation import Tessellation, cell_contains, classify, tessellate

__version__ = "0.1.0"

__all__ = [
    "DIVERGENCE",
    "GOLDEN_RATIO",
    "HYPERBOLIC",
    "LSWord",
    "PLANE",
    "PhylloPattern",
    "SPHERE",
    "SurfaceSpec",
    "Tessellation",
    "analytic_distance",
    "area_series",
    "boundary_perimeter_prediction",
    "boundary_polar_angle",
    "boundary_radius",
    "cell_contains",
    "classify",
    "detect_grain_boundaries",
    "dipole_angles",
    "distance_series",
    "fibonacci",
    "generate",
    "generate_hyperbolic",
    "generate_plane",
    "generate_sphere",
    "golden_approximant",
    "inflate",
    "normalization_scale",
    "sphere_thresholds",
    "strip_dipole_word",
    "strip_sequence",
    "tessellate",
    "verify_inflation",
]
