"""Configurations shared by the test modules."""
import numpy as np
import pytest

from burgerslab.grids import Grid, SpaceField
from burgerslab.solvers import SigmaSpec

# The transport-dominated config: sin(pi x) at amplitude 5 on 32x256 up to
# T = 0.1, cosine sigma.  At the default config (64x256, T = 1, amplitude 1)
# u_det has decayed by the late times that dominate, so every rate-side
# number is the stochastic heat equation's.  Here u_det falls only to 0.36 of
# its start over the horizon, and Burgers transport doubles the set rate
# (0.3246 against the heat equation's 0.1654 on this grid).
TRANSPORT_GRID = Grid(nx=32, nt=256, T=0.1)
TRANSPORT_AMPLITUDE = 5.0


@pytest.fixture
def transport_config():
    """(grid, u0, sigma) of the transport-dominated config."""
    g = TRANSPORT_GRID
    u0 = SpaceField.sample(g, lambda x: TRANSPORT_AMPLITUDE * np.sin(np.pi * x))
    return g, u0, SigmaSpec.cosine(1.0)
