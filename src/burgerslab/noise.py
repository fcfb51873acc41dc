"""Space-time white noise increments on the interior lattice.

A noise sheet holds the nt x (nx-1) matrix of independent N(0, dt*dx)
increments driving one solver path.  Streams are pure functions of
(master_seed, path_index), so Monte Carlo runs are reproducible no matter
how paths are scheduled across workers, and a sheet is never written to a
file: its SeedSpec reproduces it.

The Girsanov helpers implement the measure change of the controlled
dynamics: shifting the sheet by h*v*dt*dx and the log-density
-h*sum(v dW) - (h^2/2)*dt*dx*sum(v^2) whose exponential has mean one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Control, Grid, _freeze, same_grid

__all__ = [
    "SeedSpec",
    "NoiseSheet",
    "sample_sheet",
    "girsanov_shift",
    "girsanov_log_density",
]

_UINT64_MASK = (1 << 64) - 1


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus path index; every path gets its own derived stream."""

    master_seed: int
    path_index: int = 0

    def __post_init__(self):
        if not (0 <= int(self.master_seed) <= _UINT64_MASK):
            raise ValueError("master_seed must fit in 64 bits")
        if int(self.path_index) < 0:
            raise ValueError("path_index must be nonnegative")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "path_index", int(self.path_index))

    def stream_key(self) -> int:
        """64-bit stream key, a pure function of (master_seed, path_index)."""
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.path_index,)
        )
        return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NoiseSheet:
    """One path's noise increments; seed records the generating stream key."""

    dW: np.ndarray
    seed: int
    grid: Grid

    def __post_init__(self):
        _freeze(self, "dW", (self.grid.nt, self.grid.nx - 1))
        object.__setattr__(self, "seed", int(self.seed))


def sample_sheet(g: Grid, s: SeedSpec) -> NoiseSheet:
    """Draw the i.i.d. N(0, dt*dx) increment matrix for one path."""
    key = s.stream_key()
    rng = np.random.default_rng(key)
    scale = np.sqrt(g.dt * g.dx)
    dW = scale * rng.standard_normal((g.nt, g.nx - 1))
    return NoiseSheet(dW=dW, seed=key, grid=g)


def girsanov_shift(w: NoiseSheet, v: Control, h: float) -> NoiseSheet:
    """Sheet of the drift-shifted field: dW~ = dW + h*v*dt*dx.

    The returned sheet keeps the base sheet's stream key: it is derived
    data, not a fresh draw.
    """
    same_grid(w.grid, control=v)
    g = w.grid
    return NoiseSheet(w.dW + h * v.values * (g.dt * g.dx), seed=w.seed, grid=g)


def _log_density(dW: np.ndarray, v: np.ndarray, h, g: Grid) -> np.ndarray:
    """-h*sum(v dW) - (h^2/2)*dt*dx*sum(v^2), summed over the last two axes.

    Leading axes of dW, v and h broadcast, so a batch of sheets (B, nt, nx-1)
    or a column of strengths h (E, 1) yields one log-density per row.  The
    quadratic term is the variance of sum(v dW): dt*dx in every cell.
    """
    stoch = np.sum(v * dW, axis=(-2, -1))
    quad = np.sum(v**2, axis=(-2, -1)) * g.dt * g.dx
    return -h * stoch - 0.5 * h * h * quad


def girsanov_log_density(w: NoiseSheet, v: Control, h: float) -> float:
    """log dQ/dP for the shift by h*v: -h*sum(v dW) - (h^2/2)*dt*dx*sum(v^2)."""
    same_grid(w.grid, control=v)
    return float(_log_density(w.dW, v.values, h, w.grid))
