import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phyllo.geometry import (
    SurfaceSpec,
    chart_distance_xy,
    chart_to_unit_surface,
    circle_circumference,
    conformal_factor,
)

PLANE = SurfaceSpec("plane", None, 1.0)
SPHERE1 = SurfaceSpec("sphere", 1.0, 1.0)
HYP1 = SurfaceSpec("hyperbolic", 1.0, 1.0)


def test_surface_validation():
    with pytest.raises(ValueError):
        SurfaceSpec("torus", None, 1.0)
    with pytest.raises(ValueError):
        SurfaceSpec("plane", 2.0, 1.0)
    with pytest.raises(ValueError):
        SurfaceSpec("sphere", None, 1.0)
    with pytest.raises(ValueError):
        SurfaceSpec("hyperbolic", -1.0, 1.0)
    with pytest.raises(ValueError):
        SurfaceSpec("plane", None, 0.0)
    with pytest.raises(ValueError):
        SurfaceSpec("plane", None, 1.0, lam=1.0)


def test_conformal_factor_values():
    assert conformal_factor(PLANE, 7.3) == 1.0
    assert conformal_factor(HYP1, 0.0) == pytest.approx(2.0)
    assert conformal_factor(SPHERE1, 1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        conformal_factor(HYP1, 1.0)


def _polar(r, theta):
    return [r * math.cos(theta), r * math.sin(theta)]


def test_chart_distance_examples():
    # 3-4-5 triangle on the plane
    assert chart_distance_xy(PLANE, _polar(3, 0), _polar(4, math.pi / 2)) == pytest.approx(5.0)
    # hyperbolic: origin to the circle of geodesic radius 1
    assert chart_distance_xy(HYP1, _polar(0, 0), _polar(math.tanh(0.5), 1.2)) == pytest.approx(1.0)
    # sphere: pole image to equator image is a quarter circle
    assert chart_distance_xy(SPHERE1, _polar(0, 0), _polar(1, 0.4)) == pytest.approx(math.pi / 2)


def test_sphere_distance_agrees_with_great_circle():
    rng = np.random.default_rng(7)
    R = 2.5
    sph = SurfaceSpec("sphere", R, 1.0)
    xy = rng.normal(size=(40, 2))
    p, q = xy[:20], xy[20:]
    v = R * chart_to_unit_surface("sphere", xy)
    expected = R * np.arccos(np.clip(np.sum(v[:20] * v[20:], axis=1) / R**2, -1, 1))
    np.testing.assert_allclose(chart_distance_xy(sph, p, q), expected, atol=1e-12)


@given(
    st.sampled_from(["plane", "sphere", "hyperbolic"]),
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_distance_matches_conformal_factor_locally(kind, r, theta, dx, dy):
    surface = SurfaceSpec(kind, None if kind == "plane" else 1.3, 1.0)
    p = np.array([r * math.cos(theta), r * math.sin(theta)])
    step = 1e-3 * np.array([dx, dy])
    q = p + step
    sep = np.linalg.norm(step)
    if sep < 1e-6:
        return
    mid_r = np.linalg.norm((p + q) / 2)
    expected = conformal_factor(surface, mid_r) * sep
    assert chart_distance_xy(surface, p, q) == pytest.approx(expected, rel=1e-4)


@given(
    st.sampled_from(["plane", "sphere", "hyperbolic"]),
    st.floats(min_value=0.05, max_value=2.5),
)
def test_area_derivative_is_circumference(kind, rho):
    R = 1.1
    surface = SurfaceSpec(kind, None if kind == "plane" else R, 1.0)

    def circle_area(x):  # area of the geodesic disc of radius x
        if kind == "plane":
            return math.pi * x * x
        if kind == "hyperbolic":
            return 2.0 * math.pi * R * R * (math.cosh(x / R) - 1.0)
        return 2.0 * math.pi * R * R * (1.0 - math.cos(x / R))

    h = 1e-6
    deriv = (circle_area(rho + h) - circle_area(rho - h)) / (2 * h)
    assert deriv == pytest.approx(float(circle_circumference(surface, rho)), rel=1e-6)


def test_sphere_chart_embedding_round_trip():
    rng = np.random.default_rng(3)
    sph = SurfaceSpec("sphere", 18.378, 1.0)
    xy = rng.normal(size=(50, 2))
    xyz = sph.R * chart_to_unit_surface("sphere", xy)
    np.testing.assert_allclose(np.linalg.norm(xyz, axis=1), sph.R, rtol=1e-12)
    # stereographic projection from the pole (0, 0, R) inverts it
    np.testing.assert_allclose(xyz[:, :2] / (sph.R - xyz[:, 2:]), xy, atol=1e-12)


def test_disc_hyperboloid_lift_round_trip():
    rng = np.random.default_rng(4)
    xy = rng.uniform(-0.7, 0.7, size=(50, 2))
    lifted = chart_to_unit_surface("hyperbolic", xy)
    form = lifted[:, 2] ** 2 - np.sum(lifted[:, :2] ** 2, axis=1)
    np.testing.assert_allclose(form, 1.0, rtol=1e-12)
    np.testing.assert_allclose(lifted[:, :2] / (1.0 + lifted[:, 2:]), xy, atol=1e-15)
    # the Minkowski product of two lifts is -cosh of their distance
    dot = np.sum(lifted[:25, :2] * lifted[25:, :2], axis=1) - lifted[:25, 2] * lifted[25:, 2]
    np.testing.assert_allclose(-dot, np.cosh(chart_distance_xy(HYP1, xy[:25], xy[25:])), rtol=1e-12)
    with pytest.raises(ValueError):
        chart_to_unit_surface("hyperbolic", [[0.6, 0.8]])
    with pytest.raises(ValueError):
        chart_to_unit_surface("plane", xy)
