"""Uniform space-time lattice on [0, T] x [0, 1] with Dirichlet walls.

Everything downstream (noise sheets, solvers, norms, the rate function)
lives on the lattice defined here: nodes x_j = j/nx, t_k = k*T/nt, fields
pinned to zero at x = 0 and x = 1.  The lattice's rules live here only:
`_freeze` validates and freezes every lattice array (noise sheets too),
`same_grid` checks grid agreement, and the norms are fixed quadratures:
the deviation event's per-frame trapezoid L2 norm (`frame_norms`,
`sup_t_l2`) and the H_T inner product (`ht_dot`, `ht_norm`), dt*dx per
interior cell.  H_T is the Cameron-Martin space of the noise sheet, so one
metric serves the rate function's energy, its adjoint, and the Girsanov
density's quadratic term.

CSV files share one layout: a header row ('t', x nodes), then one row per
time (t node, values).  Node data (nt+1, nx+1), a field, lists every node;
cell data (nt, nx-1), a control, lists the interior x nodes and the left
end of each step, then a row of only repr(T).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "SpaceField",
    "SpaceTimeField",
    "Control",
    "DimensionError",
    "write_lattice_csv",
    "read_lattice_csv",
    "same_grid",
    "frame_norms",
    "norms_from_squares",
    "l2_norm",
    "sup_t_l2",
    "ht_dot",
    "ht_norm",
]


class DimensionError(ValueError):
    """A field's shape does not match the grid it claims to live on."""


def _freeze(obj, name: str, shape: tuple, walls: bool = False) -> None:
    """Set frozen obj.<name> to a finite, read-only, C-ordered float copy.

    Checks in order: finite (ValueError), shape (DimensionError), zero walls
    if asked (ValueError).
    """
    what = type(obj).__name__
    vals = np.array(getattr(obj, name), dtype=float, order="C")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{what}.{name} contains non-finite entries")
    if vals.shape != shape:
        raise DimensionError(f"{what} needs shape {shape}, got {vals.shape}")
    if walls and (np.any(vals[..., 0] != 0.0) or np.any(vals[..., -1] != 0.0)):
        raise ValueError(f"{what} must vanish at x=0 and x=1 (Dirichlet walls)")
    vals.setflags(write=False)
    object.__setattr__(obj, name, vals)


def _whole(x, name: str) -> int:
    """x as an int; ValueError unless it is a whole number such as 3 or 3.0.

    A bool is no number here, though Python counts True as 1.
    """
    whole = not isinstance(x, (bool, np.bool_)) and (
        isinstance(x, (int, np.integer))
        or (isinstance(x, (float, np.floating)) and float(x).is_integer())
    )
    if not whole:
        raise ValueError(f"{name} must be a whole number, got {x!r}")
    return int(x)


def same_grid(g: Grid, **named) -> None:
    """DimensionError naming the first keyword whose object's .grid is not g."""
    for name, obj in named.items():
        if obj.grid != g:
            raise DimensionError(f"{name} lives on {obj.grid}, not on {g}")


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: nx space cells on [0, 1], nt time steps on [0, T]."""

    nx: int
    nt: int
    T: float = 1.0

    def __post_init__(self):
        if not isinstance(self.nx, (int, np.integer)) or isinstance(self.nx, bool):
            raise TypeError("nx must be an integer")
        if not isinstance(self.nt, (int, np.integer)) or isinstance(self.nt, bool):
            raise TypeError("nt must be an integer")
        if self.nx < 4:
            raise ValueError(f"nx must be >= 4, got {self.nx}")
        if self.nt < 4:
            raise ValueError(f"nt must be >= 4, got {self.nt}")
        if not 0.0 < float(self.T) < np.inf:
            raise ValueError(f"T must be positive and finite, got {self.T}")
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "nt", int(self.nt))
        object.__setattr__(self, "T", float(self.T))

    @property
    def dx(self) -> float:
        return 1.0 / self.nx

    @property
    def dt(self) -> float:
        return self.T / self.nt

    def x_nodes(self) -> np.ndarray:
        """All nx+1 space nodes, walls included."""
        return np.arange(self.nx + 1) * self.dx

    def x_interior(self) -> np.ndarray:
        """The nx-1 interior space nodes."""
        return np.arange(1, self.nx) * self.dx

    def t_nodes(self) -> np.ndarray:
        """All nt+1 time nodes; the last is T exactly."""
        return np.linspace(0.0, self.T, self.nt + 1)

    def space_weights(self) -> np.ndarray:
        """Trapezoid weights over all nodes: dx/2 at the walls, dx inside."""
        w = np.full(self.nx + 1, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w


@dataclass(frozen=True)
class SpaceField:
    """Values at the nx+1 space nodes of one time slice; zero at the walls."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        _freeze(self, "values", (self.grid.nx + 1,), walls=True)

    @staticmethod
    def zero(grid: Grid) -> "SpaceField":
        return SpaceField(np.zeros(grid.nx + 1), grid)

    @staticmethod
    def sample(grid: Grid, fn) -> "SpaceField":
        """Sample fn at the nodes, forcing exact zeros at the walls."""
        vals = np.asarray(fn(grid.x_nodes()), dtype=float)
        vals[0] = vals[-1] = 0.0
        return SpaceField(vals, grid)


@dataclass(frozen=True)
class SpaceTimeField:
    """nt+1 time slices, frames[0] being the initial condition."""

    frames: np.ndarray
    grid: Grid

    def __post_init__(self):
        _freeze(self, "frames", (self.grid.nt + 1, self.grid.nx + 1), walls=True)

    @staticmethod
    def zero(grid: Grid) -> "SpaceTimeField":
        return SpaceTimeField(np.zeros((grid.nt + 1, grid.nx + 1)), grid)

    def frame(self, k: int) -> SpaceField:
        return SpaceField(self.frames[k], self.grid)


@dataclass(frozen=True)
class Control:
    """Forcing on the interior lattice: one value per (time step, interior node)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        _freeze(self, "values", (self.grid.nt, self.grid.nx - 1))

    @staticmethod
    def zero(grid: Grid) -> "Control":
        return Control(np.zeros((grid.nt, grid.nx - 1)), grid)

    @staticmethod
    def sample(grid: Grid, fn) -> "Control":
        """Sample fn(t, x) at left time endpoints and interior space nodes."""
        ts = grid.t_nodes()[:-1][:, None]
        xs = grid.x_interior()[None, :]
        return Control(np.asarray(fn(ts, xs), dtype=float), grid)


def write_lattice_csv(path, values, g: Grid) -> None:
    """Write node data (nt+1, nx+1) or cell data (nt, nx-1) on g to CSV."""
    cell = np.shape(values) == (g.nt, g.nx - 1)
    if not cell and np.shape(values) != (g.nt + 1, g.nx + 1):
        raise DimensionError(f"{np.shape(values)} is neither node nor cell data on {g}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        xs = g.x_interior() if cell else g.x_nodes()
        writer.writerow(["t"] + [repr(float(x)) for x in xs])
        for t, row in zip(g.t_nodes(), values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        if cell:
            writer.writerow([repr(g.T)])


def read_lattice_csv(path) -> tuple[np.ndarray, Grid]:
    """Inverse of write_lattice_csv: (values, grid); ValueError if malformed."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            # rows become floats as read, never all held as strings; bits as float()
            rows = [np.array(r, dtype=float) for r in reader]
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    cell = len(rows) > 0 and rows[-1].size == 1
    body = rows[:-1] if cell else rows
    if not body or len(header) < 2 or any(r.size != len(header) for r in body):
        raise ValueError(f"{path}: not a lattice CSV (missing or ragged rows)")
    xs = np.array(header[1:], dtype=float)
    ts = np.array([r[0] for r in rows])
    grid = Grid(nx=len(xs) + (1 if cell else -1), nt=len(ts) - 1, T=float(ts[-1]))
    x_ref = grid.x_interior() if cell else grid.x_nodes()
    if not np.allclose(xs, x_ref, rtol=0, atol=1e-12):
        raise ValueError(f"{path}: x header is not the uniform unit lattice")
    if not np.allclose(ts, grid.t_nodes(), rtol=0, atol=1e-12 * max(1.0, grid.T)):
        raise ValueError(f"{path}: t column is not a uniform time lattice")
    return np.array([r[1:] for r in body]), grid


def _lattice_array(x, shape: tuple) -> np.ndarray:
    """x as a float array; DimensionError unless it has the given shape."""
    vals = np.asarray(x, dtype=float)
    if vals.shape != shape:
        raise DimensionError(f"array needs shape {shape}, got {vals.shape}")
    return vals


def frame_norms(frames: np.ndarray, g: Grid) -> np.ndarray:
    """Trapezoid L2 norm of each row of node data (..., nx+1)."""
    return norms_from_squares(frames**2, g)


def norms_from_squares(squares: np.ndarray, g: Grid, out=None) -> np.ndarray:
    """frame_norms of the rows whose squares are given, into out if supplied."""
    return np.sqrt(np.matmul(squares, g.space_weights(), out=out), out=out)


def l2_norm(f: SpaceField, g: Grid) -> float:
    """Trapezoid L2 norm of one space slice."""
    same_grid(g, SpaceField=f)
    return float(frame_norms(f.values, g))


def sup_t_l2(u: SpaceTimeField | np.ndarray, g: Grid) -> float:
    """max over time slices of the trapezoid L2 norm.

    u is a field on g or its frames as a plain (nt+1, nx+1) array.
    """
    if isinstance(u, SpaceTimeField):
        same_grid(g, SpaceTimeField=u)
        u = u.frames
    return float(np.max(frame_norms(_lattice_array(u, (g.nt + 1, g.nx + 1)), g)))


def ht_dot(a: np.ndarray, b: np.ndarray, g: Grid) -> float:
    """H_T inner product of two control arrays.

    The Cameron-Martin norm of the sheet: dt*dx per cell, the variance of
    one increment.
    """
    return float(g.dt * g.dx * np.sum(a * b))


def ht_norm(v: Control | np.ndarray, g: Grid) -> float:
    """H_T norm of a control on g, or of its (nt, nx-1) values: sqrt(ht_dot(v, v))."""
    if isinstance(v, Control):
        same_grid(g, Control=v)
        v = v.values
    vals = _lattice_array(v, (g.nt, g.nx - 1))
    return float(np.sqrt(ht_dot(vals, vals, g)))
