"""Shared tessellation fixtures and the Hypothesis settings of the suite.

Tessellating the reference patterns dominates suite runtime, so each one is
built once per session and shared; every fixture is lazy, so small test
subsets stay fast.  Hypothesis draws the same examples on every run, times
no example and keeps no example database, so a property test passes or
fails the same way on any host and at any load.
"""

import pytest
from hypothesis import settings

from phyllo.generator import generate
from phyllo.tessellation import tessellate

settings.register_profile("phyllo", derandomize=True, deadline=None, database=None)
settings.load_profile("phyllo")


@pytest.fixture(scope="session")
def tess_plane_1500():
    return tessellate(generate("plane", 1500))


@pytest.fixture(scope="session")
def tess_plane_3000():
    return tessellate(generate("plane", 3000))


@pytest.fixture(scope="session")
def tess_plane_6000():
    return tessellate(generate("plane", 6000))


@pytest.fixture(scope="session")
def tess_hyperbolic_3000():
    return tessellate(generate("hyperbolic", 3000, a=1.0 / 40.0))


@pytest.fixture(scope="session")
def tess_sphere_1351():
    return tessellate(generate("sphere", 1351))


@pytest.fixture(scope="session")
def tess_sphere_9301():
    return tessellate(generate("sphere", 9301))


# the equatorial defect ring of dipole rank 9 appears between these two
# site counts (analytic threshold 1331)
@pytest.fixture(scope="session")
def tess_sphere_1329():
    return tessellate(generate("sphere", 1329))


@pytest.fixture(scope="session")
def tess_sphere_1333():
    return tessellate(generate("sphere", 1333))
