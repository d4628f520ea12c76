"""Shared fixtures.

The heavy objects (catalog fields, mollified ensembles) are session-scoped:
every consumer sees the identical deterministic object, and the expensive
series table is built once, into a temporary cache directory that lives as
long as the session.  Ensembles on a smaller ball are restrictions
of the wider ones at the same level, which equal direct integrations bit
for bit (``tests/test_flow.py::TestRestrict``).  Desk-scale geometry
throughout: d = 1, R = 1, T = 1, h = 0.01, tau = 1e-3.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import settings

from rlflab.fields import MollifierKernel, catalog_field, mollify
from rlflab.flow import integrate_ensemble
from rlflab.numerics import make_grid

# the same hypothesis examples on every run, and no example database
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session", autouse=True)
def tail_cache_dir():
    # series tail tables go to a directory of this session, not ~/.cache
    with tempfile.TemporaryDirectory(prefix="rlflab-cache-") as path:
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("RLFLAB_CACHE", path)
            yield path


LEVELS = (4, 8, 16, 32)
H = 0.01
TAU = 1e-3
T = 1.0
R = 1.0


@pytest.fixture(scope="session")
def osgood():
    return catalog_field("osgood-sum", 1, terms=1000)


@pytest.fixture(scope="session")
def moll(osgood):
    return {n: mollify(osgood, MollifierKernel(n)) for n in LEVELS}


@pytest.fixture(scope="session")
def grid_b1():
    return make_grid(1, R, H)


@pytest.fixture(scope="session")
def ens_b1(moll, grid_b1, ens_b15):
    # levels 8, 16 and 32 are rows of B(1.5R), equal to direct integration
    ens = {4: integrate_ensemble(moll[4], grid_b1, T, TAU)}
    ens.update((n, e.restrict(R)) for n, e in ens_b15.items())
    return ens


@pytest.fixture(scope="session")
def ens_b1_fine_step(moll, grid_b1):
    # same field and level as ens_b1[32], ten times smaller step
    return integrate_ensemble(moll[32], grid_b1, T, TAU / 10.0)


@pytest.fixture(scope="session")
def ens_b3_top(moll):
    return integrate_ensemble(moll[32], make_grid(1, 3.0 * R, H), T, TAU)


@pytest.fixture(scope="session")
def ens_b15(moll, ens_b3_top):
    grid = make_grid(1, 1.5 * R, H)
    return {
        8: integrate_ensemble(moll[8], grid, T, TAU),
        16: integrate_ensemble(moll[16], grid, T, TAU),
        32: ens_b3_top.restrict(1.5 * R),
    }


def _pushforward_bound(ens):
    """max over mesh times and interior grid points of 1 / |dX_t/dx|, the
    push-forward density of a d = 1 flow by its lattice Jacobian: central
    differences over the stored positions."""
    x = ens.positions[:, :, 0]
    jac = (x[2:] - x[:-2]) / (2.0 * ens.grid.spacing)
    return float((1.0 / np.abs(jac)).max())


@pytest.fixture(scope="session")
def pushforward_bound():
    return _pushforward_bound


@pytest.fixture(scope="session")
def sobolev():
    return catalog_field("sobolev-singular", 1)


@pytest.fixture(scope="session")
def sobolev_2d():
    return catalog_field("sobolev-singular", 2)


@pytest.fixture(scope="session")
def combined():
    return catalog_field("combined", 1)


@pytest.fixture(scope="session")
def linear_contracting():
    return catalog_field("linear", 1, slope=-1.0)


@pytest.fixture(scope="session")
def constant_unit():
    return catalog_field("constant", 1, value=1.0)
