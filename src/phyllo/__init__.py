"""Golden-ratio spiral point sets on curved surfaces and their grain structure.

The package generates phyllotactic (sunflower-spiral) site patterns on the
plane, the sphere and the hyperbolic plane, tessellates them with
metric-aware Voronoi cells, and analyzes the resulting grains and grain
boundaries: defect rings of heptagon/pentagon dipoles whose composition,
spacing and orientation follow closed-form Fibonacci predictions.
"""

from .analysis import (
    analytic_distance,
    area_series,
    detect_grain_boundaries,
    dipole_angles,
    distance_series,
)
from .generator import generate
from .numerics import strip_dipole_word, strip_sequence
from .tessellation import tessellate

__version__ = "0.1.0"

__all__ = [
    "analytic_distance",
    "area_series",
    "detect_grain_boundaries",
    "dipole_angles",
    "distance_series",
    "generate",
    "strip_dipole_word",
    "strip_sequence",
    "tessellate",
]
