"""Charts and closed-form metric quantities for the three backgrounds.

The plane is its own chart.  The hyperbolic plane is represented on the unit
disc with metric (2R)^2 (dr^2 + r^2 dtheta^2) / (1 - r^2)^2, the sphere on the
stereographic plane with (2R)^2 (dr^2 + r^2 dtheta^2) / (1 + r^2)^2.  Both
charts are conformal, so angles (and Delaunay combinatorics) can be read
straight off the chart while lengths and areas pick up the local factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DIVERGENCE

__all__ = [
    "PLANE",
    "SPHERE",
    "HYPERBOLIC",
    "SURFACE_KINDS",
    "SurfaceSpec",
    "conformal_factor",
    "chart_distance_xy",
    "chart_radius_from_geodesic",
    "geodesic_radius_from_chart",
    "circle_area",
    "circle_circumference",
    "sphere_cap_sites",
    "chart_to_unit_surface",
]

PLANE = "plane"
SPHERE = "sphere"
HYPERBOLIC = "hyperbolic"
SURFACE_KINDS = (PLANE, SPHERE, HYPERBOLIC)


@dataclass(frozen=True)
class SurfaceSpec:
    """A constant-curvature background plus the lattice parameters on it.

    kind     one of 'plane', 'sphere', 'hyperbolic'
    R        curvature radius; None for the plane
    a        metric scale of the generative spiral (site s sits at
             geodesic radius ~ a*sqrt(s) near the center)
    lam      divergence, the fraction of a turn between consecutive sites
    """

    kind: str
    R: float | None
    a: float
    lam: float = DIVERGENCE

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if self.kind == PLANE:
            if self.R is not None:
                raise ValueError("plane takes R=None")
        else:
            if self.R is None or not self.R > 0:
                raise ValueError(f"{self.kind} needs R > 0, got {self.R}")
        if not self.a > 0:
            raise ValueError(f"scale a must be > 0, got {self.a}")
        if not 0 < self.lam < 1:
            raise ValueError(f"divergence must lie in (0, 1), got {self.lam}")

    @property
    def curvature(self) -> float:
        """Gaussian curvature: +1/R^2 sphere, -1/R^2 hyperbolic, 0 plane."""
        if self.kind == PLANE:
            return 0.0
        k = 1.0 / (self.R * self.R)
        return k if self.kind == SPHERE else -k


def _check_hyperbolic_r(r) -> None:
    if np.any(np.asarray(r) >= 1.0):
        raise ValueError("hyperbolic chart radius must satisfy r < 1")


def conformal_factor(surface: SurfaceSpec, r):
    """Local length multiplier of the chart at chart radius r.

    Plane: 1.  Hyperbolic: 2R/(1 - r^2).  Sphere: 2R/(1 + r^2).
    Vectorized over r.
    """
    r = np.asarray(r, dtype=float)
    if surface.kind == PLANE:
        return np.ones_like(r)
    if surface.kind == HYPERBOLIC:
        _check_hyperbolic_r(r)
        return 2.0 * surface.R / (1.0 - r * r)
    return 2.0 * surface.R / (1.0 + r * r)


def chart_distance_xy(surface: SurfaceSpec, p, q):
    """Geodesic distance between chart points given as (..., 2) arrays."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    diff = np.linalg.norm(p - q, axis=-1)
    if surface.kind == PLANE:
        return diff
    p2 = np.sum(p * p, axis=-1)
    q2 = np.sum(q * q, axis=-1)
    if surface.kind == HYPERBOLIC:
        _check_hyperbolic_r(np.sqrt(np.maximum(p2, q2)))
        return 2.0 * surface.R * np.arcsinh(diff / np.sqrt((1.0 - p2) * (1.0 - q2)))
    arg = diff / np.sqrt((1.0 + p2) * (1.0 + q2))
    return 2.0 * surface.R * np.arcsin(np.clip(arg, -1.0, 1.0))


def chart_radius_from_geodesic(surface: SurfaceSpec, rho):
    """Chart radius of the circle at geodesic radius rho from the origin."""
    rho = np.asarray(rho, dtype=float)
    if surface.kind == PLANE:
        return rho
    if surface.kind == HYPERBOLIC:
        return np.tanh(rho / (2.0 * surface.R))
    return np.tan(rho / (2.0 * surface.R))


def geodesic_radius_from_chart(surface: SurfaceSpec, r):
    """Inverse of chart_radius_from_geodesic."""
    r = np.asarray(r, dtype=float)
    if surface.kind == PLANE:
        return r
    if surface.kind == HYPERBOLIC:
        _check_hyperbolic_r(r)
        return 2.0 * surface.R * np.arctanh(r)
    return 2.0 * surface.R * np.arctan(r)


def circle_area(surface: SurfaceSpec, rho):
    """Area enclosed by the geodesic circle of radius rho about the origin."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise ValueError("geodesic radius must be >= 0")
    if surface.kind == PLANE:
        return math.pi * rho * rho
    R = surface.R
    if surface.kind == HYPERBOLIC:
        return 2.0 * math.pi * R * R * (np.cosh(rho / R) - 1.0)
    return 2.0 * math.pi * R * R * (1.0 - np.cos(rho / R))


def circle_circumference(surface: SurfaceSpec, rho):
    """Length of the geodesic circle of radius rho about the origin."""
    rho = np.asarray(rho, dtype=float)
    if surface.kind == PLANE:
        return 2.0 * math.pi * rho
    R = surface.R
    if surface.kind == HYPERBOLIC:
        return 2.0 * math.pi * R * np.sinh(rho / R)
    return 2.0 * math.pi * R * np.sin(rho / R)


def sphere_cap_sites(nu: int, phi_colat: float) -> float:
    """Expected number of lattice sites inside the polar cap of colatitude phi.

    The equal-area construction spreads 2*nu + 1 sites uniformly in axial
    coordinate, so a cap of colatitude phi holds nu*(1 - cos phi) of them.
    """
    if not 0 <= phi_colat <= math.pi:
        raise ValueError(f"colatitude must lie in [0, pi], got {phi_colat}")
    return nu * (1.0 - math.cos(phi_colat))


def chart_to_unit_surface(kind: str, xy):
    """Chart points (..., 2) on the unit sphere or the unit hyperboloid (..., 3).

    Sphere: inverse stereographic projection, the chart center to the pole
    (0, 0, -1).  Disc: the lift onto z^2 - x^2 - y^2 = 1, z > 0, inverse to
    (x, y, z) -> (x, y)/(1 + z).
    """
    xy = np.asarray(xy, dtype=float)
    r2 = np.sum(xy * xy, axis=-1)
    if kind == HYPERBOLIC:
        _check_hyperbolic_r(r2)
        z, denom = 1.0 + r2, (1.0 - r2)[..., None]
    elif kind == SPHERE:
        z, denom = r2 - 1.0, (1.0 + r2)[..., None]
    else:
        raise ValueError(f"the {kind} chart lifts onto no unit surface")
    return np.concatenate((2.0 * xy / denom, z[..., None] / denom), axis=-1)
