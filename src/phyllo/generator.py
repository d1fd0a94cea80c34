"""Spiral point sets on the plane, the hyperbolic plane, and the sphere.

Site s sits at azimuth 2*pi*lam*s and at a radial position chosen so the
area enclosed per site is constant.  On the plane this is the square-root
spiral rho = a*sqrt(s).  On the curved surfaces the curvature radius is tied
to the lattice scale as R = 1/a, which makes the enclosed-area-per-site
exactly pi in the generated units, so areas and distances from different
geometries are directly comparable without further rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import HYPERBOLIC, PLANE, SPHERE, SurfaceSpec
from .numerics import DIVERGENCE

__all__ = ["generate", "normalization_scale"]

INDEXINGS = ("integer", "half-integer")


def _effective_index(n: int, indexing: str) -> np.ndarray:
    if indexing not in INDEXINGS:
        raise ValueError(f"indexing must be one of {INDEXINGS}, got {indexing!r}")
    s = np.arange(n, dtype=float)
    return s + 0.5 if indexing == "half-integer" else s


@dataclass(frozen=True, eq=False)
class PhylloPattern:
    """A generated point set, stored as parallel per-site arrays.

    s runs 0..n-1 in generation order.  rho is the geodesic distance from
    the pattern center (the s=0 pole on the sphere), theta the unreduced
    azimuth, r the chart radius.  phi (latitude) and xyz (embedding) are
    populated for spheres only.
    """

    surface: SurfaceSpec
    n: int
    indexing: str
    s: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    r: np.ndarray
    phi: np.ndarray | None = None
    xyz: np.ndarray | None = None
    _chart_xy: np.ndarray | None = field(default=None, repr=False)

    @property
    def chart_xy(self) -> np.ndarray:
        """(n, 2) chart coordinates; computed once and cached."""
        if self._chart_xy is None:
            xy = np.column_stack((self.r * np.cos(self.theta), self.r * np.sin(self.theta)))
            object.__setattr__(self, "_chart_xy", xy)
        return self._chart_xy


def _radial_law(surface: SurfaceSpec, x):
    """Geodesic radius, chart radius r and dr/dx of generate's spirals.

    x is the real site index on the plane and the disc, and z/R on the
    sphere; dr/dx is infinite at a pole.
    """
    x = np.asarray(x, dtype=float)
    a = surface.a
    with np.errstate(divide="ignore", over="ignore"):
        if surface.kind == PLANE:
            rho = a * np.sqrt(x)
            return rho, rho.copy(), a / (2.0 * np.sqrt(x))
        if surface.kind == HYPERBOLIC:
            rho_hat = np.arccosh(a * a * x / 2.0 + 1.0)  # rho/R
            r = np.tanh(rho_hat / 2.0)
            return surface.R * rho_hat, r, (1.0 - r * r) / 2.0 * (a * a / 2.0) / np.sinh(rho_hat)
        colat = np.arccos(np.clip(-x, -1.0, 1.0))
        r = np.tan(colat / 2.0)
        return surface.R * colat, r, (1.0 + r * r) / (2.0 * np.sin(colat))


def generate(
    kind: str,
    n: int,
    a: float = 1.0,
    lam: float = DIVERGENCE,
    indexing: str = "integer",
) -> PhylloPattern:
    """Equal-area spiral of n sites on the surface `kind`; a is ignored on the sphere.

    Site s sits at azimuth 2*pi*lam*s on every surface, and the radial laws are:

    - plane: the square-root spiral rho = a*sqrt(s).
    - hyperbolic, curvature -a^2 with 0 < a <= 1: with R = 1/a the geodesic
      radius of site s is R*acosh(a^2*s/2 + 1), so the disc out to site s
      encloses area exactly pi*s; the disc-chart radius is tanh(rho/(2R)).
      Small s reduces to the flat spiral a*sqrt(s) in curvature units.
    - sphere of radius R = sqrt(n)/2: sites are uniform in the axial
      coordinate (the cylinder-to-sphere equal-area map).  With n = 2*nu + 1
      and s' = s - nu, site s sits at latitude arcsin(s'/nu), so z = R*s'/nu
      exactly and both poles are occupied.  The R choice makes the area per
      site 4*pi*R^2/n = pi.  Half-integer indexing instead spreads z
      uniformly over open midpoints, leaving both poles empty (and works for
      even n).
    """
    if kind == SPHERE:
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        if indexing == "integer" and n % 2 == 0:
            raise ValueError(f"integer indexing needs odd n, got {n}")
        surface = SurfaceSpec(SPHERE, math.sqrt(n) / 2.0, 2.0 / math.sqrt(n), lam)
    elif kind in (PLANE, HYPERBOLIC):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if kind == HYPERBOLIC and not 0 < a <= 1:
            raise ValueError(f"need 0 < a <= 1, got {a}")
        surface = SurfaceSpec(kind, None if kind == PLANE else 1.0 / a, a, lam)
    else:
        raise ValueError(f"unknown surface kind {kind!r}")
    s = np.arange(n)
    s_eff = _effective_index(n, indexing)
    theta = (2.0 * math.pi * lam) * s_eff
    x, phi, xyz = s_eff, None, None
    if kind == SPHERE:
        nu = (n - 1) // 2
        x = (s - nu) / nu if indexing == "integer" else (2.0 * s_eff) / n - 1.0  # z/R
        phi = np.arcsin(x)
        R, sin_colat = surface.R, np.sqrt(np.maximum(0.0, 1.0 - x * x))
        xyz = np.column_stack((R * sin_colat * np.cos(theta), R * sin_colat * np.sin(theta), R * x))
    rho, r, _ = _radial_law(surface, x)
    bad = ~(np.isfinite(rho) & np.isfinite(r))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"site {k} lies at a non-finite radius (rho={rho[k]}) with a={a}")
    return PhylloPattern(surface, n, indexing, s, rho, theta, r, phi=phi, xyz=xyz)


def normalization_scale(surface: SurfaceSpec) -> float:
    """Length divisor that brings the mean cell area to pi.

    Generated curved patterns bake R = 1/a, so the divisor is 1 there; plane
    patterns scale linearly with a.
    """
    if surface.kind == PLANE:
        return surface.a
    return surface.a * surface.R


def chart_pow2(surface: SurfaceSpec) -> float:
    """A power of two near 1/a on the plane, 1 on the curved surfaces.

    Plane lengths and areas are computed on the chart scaled by it and then
    divided by normalization_scale times it: the scaling moves no rounding
    and keeps products of lengths in range at every a.
    """
    if surface.kind == PLANE:
        return math.ldexp(1.0, -math.frexp(surface.a)[1])
    return 1.0
