import math

import numpy as np
import pytest

from phyllo.generator import (
    _radial_law,
    generate,
    generate_hyperbolic,
    generate_plane,
    generate_sphere,
    normalization_scale,
)
from phyllo.geometry import circle_area
from phyllo.numerics import DIVERGENCE, GOLDEN_RATIO

GOLDEN_ANGLE = 2 * math.pi / GOLDEN_RATIO


def test_plane_examples():
    p = generate_plane(10)
    assert p.rho[0] == 0.0
    assert p.rho[1] == pytest.approx(1.0)
    assert p.theta[1] == pytest.approx(3.8832220774509327)
    assert p.rho[4] == pytest.approx(2.0)
    np.testing.assert_array_equal(p.r, p.rho)


def test_plane_half_integer():
    p = generate_plane(10, a=2.0, indexing="half-integer")
    assert p.rho[0] == pytest.approx(2.0 * math.sqrt(0.5))
    assert p.theta[0] == pytest.approx(GOLDEN_ANGLE / 2)


def test_hyperbolic_examples():
    p = generate_hyperbolic(10, a=1.0)
    assert p.rho[0] == 0.0
    assert p.rho[2] == pytest.approx(math.acosh(2.0))
    assert p.r[2] == pytest.approx(math.tanh(math.acosh(2.0) / 2))
    big = generate_hyperbolic(3000, a=0.05)
    assert 0 < big.r.max() < 1.0


def test_hyperbolic_flat_limit():
    # for a^2 s << 1 the geodesic radius in curvature units approaches a*sqrt(s),
    # i.e. sqrt(s) in generated units (R = 1/a)
    p = generate_hyperbolic(50, a=0.001)
    np.testing.assert_allclose(p.rho / p.surface.R, 0.001 * np.sqrt(np.arange(50)), rtol=1e-5)
    np.testing.assert_allclose(p.rho, np.sqrt(np.arange(50)), rtol=1e-5)


def test_sphere_basic():
    p = generate_sphere(1351)
    nu = 675
    assert p.surface.R == pytest.approx(math.sqrt(1351) / 2)
    assert p.surface.R == pytest.approx(18.3780, abs=5e-5)
    assert p.phi[nu] == 0.0  # equator
    assert p.phi[0] == pytest.approx(-math.pi / 2)
    assert p.phi[-1] == pytest.approx(math.pi / 2)
    # axial coordinate exactly R*s'/nu
    sprime = np.arange(1351) - nu
    np.testing.assert_array_equal(p.xyz[:, 2], p.surface.R * (sprime / nu))
    np.testing.assert_allclose(np.linalg.norm(p.xyz, axis=1), p.surface.R, rtol=1e-12)


def test_sphere_rejects_even_n():
    with pytest.raises(ValueError):
        generate_sphere(1350)
    generate_sphere(1350, indexing="half-integer")  # allowed


def test_azimuth_increments():
    for p in (generate_plane(500), generate_hyperbolic(500, 0.1), generate_sphere(501)):
        np.testing.assert_allclose(np.diff(p.theta), GOLDEN_ANGLE, atol=1e-10)


def test_radial_monotone():
    assert np.all(np.diff(generate_plane(300).rho) > 0)
    assert np.all(np.diff(generate_hyperbolic(300, 0.2).rho) > 0)
    assert np.all(np.diff(generate_sphere(301).phi) > 0)


def test_plane_density_law():
    a = 0.7
    p = generate_plane(2000, a=a)
    for radius in (3.0, 7.5, 12.0, 20.0):
        inside = int(np.sum(p.rho < radius))
        assert abs(inside - math.ceil(radius**2 / a**2)) <= 1


def test_hyperbolic_density_law():
    p = generate_hyperbolic(3000, a=1 / 40)
    assert p.rho.max() > 45  # radii below stay inside the pattern
    for radius in (5.0, 15.0, 30.0, 45.0):
        inside = int(np.sum(p.rho < radius))
        predicted = float(circle_area(p.surface, radius)) / math.pi
        assert abs(inside - predicted) <= 1


def test_sphere_band_counts_proportional_to_axial_extent():
    p = generate_sphere(2001)
    z = p.xyz[:, 2]
    R = p.surface.R
    inside = int(np.sum((z > -0.25 * R) & (z < 0.4 * R)))
    assert abs(inside - 0.65 / 2 * 2001) <= 2


def test_chart_positions_match_embedding():
    from phyllo.geometry import chart_to_unit_surface

    p = generate_sphere(501)
    np.testing.assert_allclose(
        p.surface.R * chart_to_unit_surface("sphere", p.chart_xy[:-1]), p.xyz[:-1], atol=1e-12
    )


@pytest.mark.parametrize("kind,n,a", [("plane", 400, 0.7), ("hyperbolic", 400, 0.3), ("sphere", 401, None)])
def test_radial_law_slope(kind, n, a):
    p = generate(kind, n) if a is None else generate(kind, n, a=a)
    x = np.linspace(0.05, 0.95, 7) * (n - 1) if kind != "sphere" else np.linspace(-0.9, 0.9, 7)
    h = 1e-6 * (n if kind != "sphere" else 1)
    _, r, slope = _radial_law(p.surface, x)
    secant = (_radial_law(p.surface, x + h)[1] - _radial_law(p.surface, x - h)[1]) / (2 * h)
    np.testing.assert_allclose(slope, secant, rtol=1e-6)
    assert np.all(np.diff(r) > 0)


def _star_discrepancy(x: np.ndarray) -> float:
    x = np.sort(np.mod(x, 1.0))
    n = len(x)
    i = np.arange(1, n + 1)
    return max(float(np.max(i / n - x)), float(np.max(x - (i - 1) / n)))


def test_golden_rotation_discrepancy_decreases():
    values = [
        _star_discrepancy(DIVERGENCE * np.arange(n)) for n in (100, 200, 400, 800, 1600, 3200)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_dispatcher_and_validation():
    assert generate("plane", 10).surface.kind == "plane"
    assert generate("hyperbolic", 10, a=0.5).surface.kind == "hyperbolic"
    assert generate("sphere", 11).surface.kind == "sphere"
    with pytest.raises(ValueError):
        generate("cylinder", 10)
    with pytest.raises(ValueError):
        generate_plane(0)
    with pytest.raises(ValueError):
        generate_hyperbolic(10, a=1.5)
    with pytest.raises(ValueError):
        generate_plane(10, indexing="thirds")


def test_normalization_scale():
    assert normalization_scale(generate_plane(10, a=0.5).surface) == 0.5
    assert normalization_scale(generate_hyperbolic(10, a=0.025).surface) == pytest.approx(1.0)
    assert normalization_scale(generate_sphere(11).surface) == pytest.approx(1.0)
