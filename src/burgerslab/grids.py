"""Uniform space-time lattice on [0, T] x [0, 1] with Dirichlet walls.

Everything downstream (noise sheets, solvers, norms, the rate function)
lives on the lattice defined here: nodes x_j = j/nx, t_k = k*T/nt, fields
pinned to zero at x = 0 and x = 1.  Norms are fixed quadratures: trapezoid
in space, left rectangles in time.

CSV files share one layout: a header row (corner label, x nodes), then one
row per time (t node, values).  Node data (nt+1, nx+1), e.g. a field, lists
every node; cell data (nt, nx-1), e.g. a control or a noise sheet, lists the
interior x nodes and the left end of each step, then a row of only repr(T).
"""
from __future__ import annotations

import csv
import json
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
    "l2_norm",
    "sup_t_l2",
    "ht_norm",
]


class DimensionError(ValueError):
    """A field's shape does not match the grid it claims to live on."""


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


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

    def interior_weights(self) -> np.ndarray:
        """Quadrature weights for interior-node data (controls, noise).

        The wall half-cells are absorbed into the outermost interior
        columns (3*dx/2 there, dx elsewhere), so the weights sum to 1
        exactly and a constant control integrates exactly.
        """
        w = np.full(self.nx - 1, self.dx)
        w[0] = w[-1] = 1.5 * self.dx
        return w


def _check_boundary(values: np.ndarray, what: str) -> None:
    col0 = values[..., 0]
    col1 = values[..., -1]
    if np.any(col0 != 0.0) or np.any(col1 != 0.0):
        raise ValueError(f"{what} must vanish at x=0 and x=1 (Dirichlet walls)")


@dataclass(frozen=True)
class SpaceField:
    """Values at the nx+1 space nodes of one time slice; zero at the walls."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = _as_float_array(self.values, "SpaceField.values")
        if vals.shape != (self.grid.nx + 1,):
            raise DimensionError(
                f"SpaceField needs {self.grid.nx + 1} values, got shape {vals.shape}"
            )
        _check_boundary(vals, "SpaceField")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

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
        vals = _as_float_array(self.frames, "SpaceTimeField.frames")
        if vals.shape != (self.grid.nt + 1, self.grid.nx + 1):
            raise DimensionError(
                f"SpaceTimeField needs shape {(self.grid.nt + 1, self.grid.nx + 1)},"
                f" got {vals.shape}"
            )
        _check_boundary(vals, "SpaceTimeField")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "frames", vals)

    @staticmethod
    def zero(grid: Grid) -> "SpaceTimeField":
        return SpaceTimeField(np.zeros((grid.nt + 1, grid.nx + 1)), grid)

    def frame(self, k: int) -> SpaceField:
        return SpaceField(self.frames[k], self.grid)

    # -- serialization ---------------------------------------------------

    def to_csv(self, path) -> None:
        """Node data in the lattice layout, 't' in the header corner."""
        write_lattice_csv(path, self.frames, self.grid)

    @staticmethod
    def from_csv(path) -> "SpaceTimeField":
        corner, frames, grid = read_lattice_csv(path)
        if corner != "t":
            raise ValueError(f"{path}: not a field CSV (expected 't' header corner)")
        return SpaceTimeField(frames, grid)

    def to_json_dict(self) -> dict:
        return {
            "grid": {"nx": self.grid.nx, "nt": self.grid.nt, "T": self.grid.T},
            "frames": self.frames.tolist(),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def from_json(path) -> "SpaceTimeField":
        with open(path) as fh:
            doc = json.load(fh)
        g = doc["grid"]
        grid = Grid(nx=int(g["nx"]), nt=int(g["nt"]), T=float(g["T"]))
        return SpaceTimeField(np.asarray(doc["frames"], dtype=float), grid)


@dataclass(frozen=True)
class Control:
    """Forcing on the interior lattice: one value per (time step, interior node)."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = _as_float_array(self.values, "Control.values")
        if vals.shape != (self.grid.nt, self.grid.nx - 1):
            raise DimensionError(
                f"Control needs shape {(self.grid.nt, self.grid.nx - 1)},"
                f" got {vals.shape}"
            )
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zero(grid: Grid) -> "Control":
        return Control(np.zeros((grid.nt, grid.nx - 1)), grid)

    @staticmethod
    def sample(grid: Grid, fn) -> "Control":
        """Sample fn(t, x) at left time endpoints and interior space nodes."""
        ts = grid.t_nodes()[:-1][:, None]
        xs = grid.x_interior()[None, :]
        return Control(np.asarray(fn(ts, xs), dtype=float), grid)


def write_lattice_csv(path, values, g: Grid, corner: str = "t") -> None:
    """Write node data (nt+1, nx+1) or cell data (nt, nx-1) on g to CSV."""
    cell = np.shape(values) == (g.nt, g.nx - 1)
    if not cell and np.shape(values) != (g.nt + 1, g.nx + 1):
        raise DimensionError(f"{np.shape(values)} is neither node nor cell data on {g}")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        xs = g.x_interior() if cell else g.x_nodes()
        writer.writerow([corner] + [repr(float(x)) for x in xs])
        for t, row in zip(g.t_nodes(), values):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        if cell:
            writer.writerow([repr(g.T)])


def read_lattice_csv(path) -> tuple[str, np.ndarray, Grid]:
    """Inverse of write_lattice_csv: (corner, values, grid); ValueError if malformed."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from exc
    cell = len(rows) > 1 and len(rows[-1]) == 1
    body = rows[1:-1] if cell else rows[1:]
    if not body or len(rows[0]) < 2 or any(len(r) != len(rows[0]) for r in body):
        raise ValueError(f"{path}: not a lattice CSV (missing or ragged rows)")
    xs = np.array([float(v) for v in rows[0][1:]])
    ts = np.array([float(r[0]) for r in rows[1:]])
    grid = Grid(nx=len(xs) + (1 if cell else -1), nt=len(ts) - 1, T=float(ts[-1]))
    x_ref = grid.x_interior() if cell else grid.x_nodes()
    if not np.allclose(xs, x_ref, rtol=0, atol=1e-12):
        raise ValueError(f"{path}: x header is not the uniform unit lattice")
    if not np.allclose(ts, grid.t_nodes(), rtol=0, atol=1e-12 * max(1.0, grid.T)):
        raise ValueError(f"{path}: t column is not a uniform time lattice")
    return rows[0][0], np.array([[float(v) for v in r[1:]] for r in body]), grid


def _require_grid(field_grid: Grid, g: Grid, what: str) -> None:
    if field_grid != g:
        raise DimensionError(f"{what} lives on {field_grid}, not on {g}")


def l2_norm(f: SpaceField, g: Grid) -> float:
    """Trapezoid L2 norm of one space slice."""
    _require_grid(f.grid, g, "SpaceField")
    return float(np.sqrt(np.dot(g.space_weights(), f.values**2)))


def _frame_l2_sq(frames: np.ndarray, g: Grid) -> np.ndarray:
    """Squared trapezoid L2 norm of each row of a (n, nx+1) array."""
    return frames**2 @ g.space_weights()


def sup_t_l2(u: SpaceTimeField, g: Grid) -> float:
    """max over time slices of the trapezoid L2 norm."""
    _require_grid(u.grid, g, "SpaceTimeField")
    return float(np.sqrt(np.max(_frame_l2_sq(u.frames, g))))


def ht_norm(v: Control | np.ndarray, g: Grid) -> float:
    """Discrete L2(dt x dx) norm of a control (left rectangles in time)."""
    if isinstance(v, Control):
        _require_grid(v.grid, g, "Control")
        vals = v.values
    else:
        vals = np.asarray(v, dtype=float)
        if vals.shape != (g.nt, g.nx - 1):
            raise DimensionError(
                f"control array needs shape {(g.nt, g.nx - 1)}, got {vals.shape}"
            )
    return float(np.sqrt(g.dt * np.sum((vals**2) @ g.interior_weights())))
