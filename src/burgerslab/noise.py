"""Space-time white noise increments on the interior lattice.

A noise sheet holds the nt x (nx-1) matrix of independent N(0, dt*dx)
increments driving one solver path.  Streams are pure functions of
(master_seed, path_index), so Monte Carlo runs are reproducible no matter
how paths are scheduled across workers, and a sheet is never written to a
file: its SeedSpec reproduces it.  One primitive, _fill_sheet, turns a
SeedSpec into numbers, drawing into memory the caller owns: sample_sheet
draws into a fresh array, and _log_densities refills one buffer.

The Girsanov helpers implement the measure change of the controlled
dynamics: shifting the sheet by h*v*dt*dx and the log-density
-h*sum(v dW) - (h^2/2)*|v|^2_{H_T} whose exponential has mean one.  The
H_T norm is grids.ht_dot, dt*dx per cell: the Cameron-Martin norm of the
sheet, the variance of sum(v dW), and the rate function's energy metric.
_log_densities streams many sheets of one run through one buffer: it
refills the buffer per sheet, reads sum(v dW) in place, and forms the
quadratic term once; its values are girsanov_log_density's bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Control, Grid, _freeze, ht_dot, same_grid

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


def _fill_sheet(g: Grid, s: SeedSpec, out: np.ndarray) -> int:
    """Draw path s's i.i.d. N(0, dt*dx) increments into out; return the stream key.

    out is a C-ordered (nt, nx-1) float64 array the caller owns; every entry
    is overwritten.  The only place a SeedSpec becomes numbers.
    """
    key = s.stream_key()
    np.random.default_rng(key).standard_normal(out=out)
    out *= np.sqrt(g.dt * g.dx)
    return key


def sample_sheet(g: Grid, s: SeedSpec) -> NoiseSheet:
    """Draw the i.i.d. N(0, dt*dx) increment matrix for one path."""
    dW = np.empty((g.nt, g.nx - 1))
    key = _fill_sheet(g, s, dW)
    return NoiseSheet(dW=dW, seed=key, grid=g)


def girsanov_shift(w: NoiseSheet, v: Control, h: float) -> NoiseSheet:
    """Sheet of the drift-shifted field: dW~ = dW + h*v*dt*dx.

    The returned sheet keeps the base sheet's stream key: it is derived
    data, not a fresh draw.
    """
    same_grid(w.grid, control=v)
    g = w.grid
    return NoiseSheet(w.dW + h * v.values * (g.dt * g.dx), seed=w.seed, grid=g)


def _exponent(stoch, h, quad):
    """-h*stoch - (h^2/2)*quad: the log-density from sum(v dW) and |v|^2_{H_T}."""
    return -h * stoch - 0.5 * h * h * quad


def _log_density(dW: np.ndarray, v: np.ndarray, h, g: Grid) -> np.ndarray:
    """-h*sum(v dW) - (h^2/2)*|v|^2_{H_T}, summed over the last two axes.

    v is one (nt, nx-1) control.  Leading axes of dW and h broadcast, so a
    batch of sheets (B, nt, nx-1) or a column of strengths h (E, 1) yields
    one log-density per row.  The quadratic term is ht_dot(v, v), the
    variance of sum(v dW).
    """
    return _exponent(np.sum(v * dW, axis=(-2, -1)), h, ht_dot(v, v, g))


def _log_densities(g: Grid, master_seed: int, indices, v: Control, h: float) -> np.ndarray:
    """girsanov_log_density of sheet SeedSpec(master_seed, i) for each i in indices.

    The sheets stream through one (nt, nx-1) buffer: each is drawn into it,
    multiplied by v in place and summed, so no sheet is kept and no array is
    allocated per sheet.  Sheets are not scanned: a non-finite one gives a
    non-finite value.
    """
    same_grid(g, control=v)
    buf = np.empty((g.nt, g.nx - 1))
    stoch = np.empty(len(indices))
    for j, i in enumerate(indices):
        _fill_sheet(g, SeedSpec(master_seed, i), buf)
        buf *= v.values
        stoch[j] = buf.sum()
    return _exponent(stoch, h, ht_dot(v.values, v.values, g))


def girsanov_log_density(w: NoiseSheet, v: Control, h: float) -> float:
    """log dQ/dP for the shift by h*v: -h*sum(v dW) - (h^2/2)*|v|^2_{H_T}."""
    same_grid(w.grid, control=v)
    return float(_log_density(w.dW, v.values, h, w.grid))
