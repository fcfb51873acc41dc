"""The stochastic heat equation as a known answer for the rate side.

With u0 = 0 and a constant sigma c the base flow is u_det = 0, so the
skeleton is the discrete heat equation (I - dt*L) y_{k+1} = y_k + dt*c*v_k.
sin(pi x) is an eigenvector of the lattice Laplacian: (I - dt*L) sin(pi x) =
mu_1 sin(pi x) with mu_1 = 1 + 4 (dt/dx^2) sin^2(pi dx/2).  A control
v_k = a_k sin(pi x) therefore forces the response b_k sin(pi x), b_0 = 0,
b_{k+1} = (b_k + dt*c*a_k) / mu_1.  Its energy is 1/2 |v|^2_{H_T} =
(dt/4) sum_k a_k^2, because dx * sum_i sin^2(pi x_i) = 1/2 on the interior
nodes.  Checks of the set rate and of the Laplace functional in the heat
case belong here too.
"""
import numpy as np
import pytest

from burgerslab.grids import Control, Grid, SpaceField
from burgerslab.ratefn import SkeletonContext, apply_forward, rate_value
from burgerslab.solvers import SigmaSpec

SIGMA = 0.7
GRIDS = [Grid(nx=32, nt=64, T=0.25), Grid(nx=64, nt=256, T=1.0)]


def mu_1(g: Grid) -> float:
    """Eigenvalue of I - dt*L on sin(pi x)."""
    return 1.0 + 4.0 * (g.dt / g.dx**2) * np.sin(0.5 * np.pi * g.dx) ** 2


def heat_context(g: Grid, c: float = SIGMA) -> SkeletonContext:
    """The skeleton around u_det = 0 with sigma = c: the discrete heat equation."""
    return SkeletonContext.build(SpaceField.zero(g), g, SigmaSpec.constant(c))


def mode_1_response(g: Grid, a: np.ndarray, c: float = SIGMA) -> np.ndarray:
    """Frames 0..nt of the response to v_k = a_k sin(pi x), from the recursion for b_k."""
    b = np.zeros(g.nt + 1)
    for k in range(g.nt):
        b[k + 1] = (b[k] + g.dt * c * a[k]) / mu_1(g)
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[:, 1:-1] = np.outer(b, np.sin(np.pi * g.x_interior()))
    return frames


def _mode_1_control(g: Grid):
    a = np.random.default_rng(3).standard_normal(g.nt)
    return a, Control(np.outer(a, np.sin(np.pi * g.x_interior())), g)


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.nx}x{g.nt}")
def test_response_is_the_mode_1_recursion(g):
    a, v = _mode_1_control(g)
    response = apply_forward(v, heat_context(g))
    assert np.max(np.abs(response.frames - mode_1_response(g, a))) <= 1e-14


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"{g.nx}x{g.nt}")
def test_rate_value_of_a_mode_1_response(g):
    a, v = _mode_1_control(g)
    ctx = heat_context(g)
    result = rate_value(apply_forward(v, ctx), ctx)
    assert (result.method, result.attained) == ("exact", True)
    energy = 0.25 * g.dt * np.sum(a**2)
    assert abs(result.value - energy) <= 1e-13 * energy
    assert np.max(np.abs(result.v_star.values - v.values)) <= 1e-12
