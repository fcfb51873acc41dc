"""Scaling schedules, deviation fields, and Monte Carlo deviation statistics.

Every Monte Carlo pass runs through one chunk driver, `_map_chunks`: fixed
CHUNK_SIZE chunks of path indices on a thread pool, results in chunk order.
Each chunk is a pure function of (master_seed, path indices), so a run is
reproducible bit-for-bit whatever the number of worker threads.  A chunk
steps every eps in one lockstep batch through the solvers' stepping engine
(rows eps-major, each sheet broadcast over eps); a running max|u| per row
applies the sup-norm guard.  The plain pass draws SHEET_BLOCK_ROWS steps of
noise at a time, so a chunk holds one block plus the lockstep buffers.  The
eps that fall back to importance sampling share a second batch of the same
shape, each row block driven by the sheet plus that eps's Girsanov shift;
that pass draws whole sheets, which the density reads.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .grids import Control, Grid, SpaceField, SpaceTimeField, norms_from_squares, same_grid
from .grids import sup_t_l2
# sample_sheet is unused; perfbench/child.py BOUNDARIES wraps it
from .noise import _log_density, _sheet_blocks, sample_sheet
from .solvers import (
    DEFAULT_SOLVER,
    SUP_GUARD,
    SigmaSpec,
    SolverConfig,
    _march,
    heat_factor,
    heat_solve,
    solve_deterministic,
    solve_skeleton,
)

__all__ = [
    "ScalingSchedule",
    "McConfig",
    "EpsRecord",
    "DeviationStats",
    "wilson_interval",
    "deviation_field",
    "mc_run",
]

# Chunking is part of the reproducibility contract: results are identical
# for any worker count because chunk boundaries never move.
CHUNK_SIZE = 64
# noise steps per block of the plain pass, whatever nt is
SHEET_BLOCK_ROWS = 32
MAX_FAILED_FRACTION = 0.01
MIN_IMPORTANCE_HITS = 10


@dataclass(frozen=True)
class ScalingSchedule:
    """Deviation scale a(eps) and its noise ratio h(eps) = a(eps)/sqrt(eps).

    Kinds: "clt" (a = sqrt(eps)), "moderate" (a = eps**theta, 0 < theta < 1/2),
    "ldp" (a = 1).  Only the moderate family has a -> 0 with h -> infinity.
    """

    kind: str
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in ("clt", "moderate", "ldp"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "moderate":
            if self.theta is None or not (0.0 < self.theta < 0.5):
                raise ValueError(
                    f"moderate schedule needs theta in (0, 1/2), got {self.theta}"
                )
        elif self.theta is not None:
            raise ValueError(f"{self.kind} schedule takes no theta")

    @classmethod
    def clt(cls) -> "ScalingSchedule":
        return cls(kind="clt")

    @classmethod
    def moderate(cls, theta: float) -> "ScalingSchedule":
        return cls(kind="moderate", theta=float(theta))

    @classmethod
    def ldp(cls) -> "ScalingSchedule":
        return cls(kind="ldp")

    def a(self, eps: float) -> float:
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        if self.kind == "clt":
            return math.sqrt(eps)
        if self.kind == "moderate":
            return eps**self.theta
        return 1.0

    def h(self, eps: float) -> float:
        return self.a(eps) / math.sqrt(eps)


def deviation_field(
    u_eps: SpaceTimeField,
    u_det: SpaceTimeField,
    sched: ScalingSchedule,
    eps: float,
) -> SpaceTimeField:
    """Framewise (u_eps - u_det) / a(eps)."""
    same_grid(u_eps.grid, u_det=u_det)
    scale = sched.a(eps)
    return SpaceTimeField((u_eps.frames - u_det.frames) / scale, u_eps.grid)


def _whole(x, name: str) -> int:
    """x as an int; ValueError unless it is a whole number such as 3 or 3.0."""
    if isinstance(x, (int, np.integer)) or (
        isinstance(x, (float, np.floating)) and float(x).is_integer()
    ):
        return int(x)
    raise ValueError(f"{name} must be a whole number, got {x!r}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings; every ValueError starts with the field it rejects."""

    eps_grid: tuple
    n_paths: int
    threshold: float
    moment_orders: tuple = (2,)
    master_seed: int = 0
    use_importance: bool = False
    # Multiplier on the auto-calibrated tilt (1.0 puts the mean response at
    # the threshold).  The default half-tilt trades some variance reduction
    # for robustness: stronger tilts make the weight spread exceed what
    # moderate path counts can average over sup-norm events.
    importance_scale: float = 0.5
    threads: int = 1

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_grid)
        object.__setattr__(self, "eps_grid", eps)
        if not eps or not all(0 < e <= 1 for e in eps):
            raise ValueError("eps_grid entries must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_grid must be strictly decreasing")
        for name in ("n_paths", "master_seed", "threads"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if not self.n_paths >= 1:
            raise ValueError("n_paths must be positive")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must lie in [0, 2**64)")
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        if not 0 < self.importance_scale < math.inf:
            raise ValueError("importance_scale must be positive and finite")
        orders = tuple(_whole(q, "moment_orders") for q in self.moment_orders)
        object.__setattr__(self, "moment_orders", orders)
        if any(q < 2 for q in orders):
            raise ValueError("moment_orders must be integers >= 2")
        if self.threads < 1:
            raise ValueError("threads must be positive")


def _num(x):
    """JSON value of a statistic: non-finite values become null."""
    return None if not np.isfinite(x) else float(x)


@dataclass(frozen=True)
class EpsRecord:
    eps: float
    p_hat: float
    ci_low: float
    ci_high: float
    moments_u: tuple  # ((q, E sup_t ||u_eps||_2^q), ...)
    moments_dev: tuple  # ((q, E sup_t ||u_eps - u_det||_2^q), ...), unscaled
    neg_log_p_over_h2: float
    failed_fraction: float
    n_paths: int
    valid: bool
    method: str  # "plain" | "importance"

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "p_hat": self.p_hat,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "moments_u": {str(q): _num(val) for q, val in self.moments_u},
            "moments_dev": {str(q): _num(val) for q, val in self.moments_dev},
            "neg_log_p_over_h2": _num(self.neg_log_p_over_h2),
            "failed_fraction": self.failed_fraction,
            "n_paths": self.n_paths,
            "valid": self.valid,
            "method": self.method,
        }


@dataclass(frozen=True)
class DeviationStats:
    records: tuple
    threshold: float
    schedule: ScalingSchedule

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "schedule": {"kind": self.schedule.kind, "theta": self.schedule.theta},
            "records": [r.to_json_dict() for r in self.records],
        }

    def to_csv(self, path: str) -> None:
        orders = [q for q, _ in self.records[0].moments_u] if self.records else []
        header = ["eps", "p_hat", "ci_low", "ci_high", "neg_log_p_over_h2"]
        header += [f"moment_u_q{q}" for q in orders]
        header += [f"moment_dev_q{q}" for q in orders]
        header += ["failed_fraction", "n_paths", "valid", "method"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.records:
                row = [repr(r.eps), repr(r.p_hat), repr(r.ci_low), repr(r.ci_high)]
                row.append(repr(r.neg_log_p_over_h2))
                row += [repr(val) for _, val in r.moments_u]
                row += [repr(val) for _, val in r.moments_dev]
                row += [repr(r.failed_fraction), str(r.n_paths), str(r.valid), r.method]
                writer.writerow(row)


def wilson_interval(hits: int, n: int, z: float = 1.96) -> tuple:
    """Wilson 95% score interval; well behaved when p_hat is at or near 0."""
    if n == 0:
        return (0.0, 1.0)
    p = hits / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    # at the boundary the score equation has an exact root at the endpoint;
    # keep it free of roundoff so degenerate estimates stay degenerate
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return (lo, hi)


def _map_chunks(fn, n_paths: int, threads: int) -> list:
    """fn(indices) per fixed CHUNK_SIZE chunk of range(n_paths), in chunk order."""
    chunks = [
        range(start, min(start + CHUNK_SIZE, n_paths))
        for start in range(0, n_paths, CHUNK_SIZE)
    ]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, chunks))


def _run_paths_chunk(
    u0_vals: np.ndarray,
    g: Grid,
    eps_values,
    sigma: SigmaSpec,
    B: int,
    increments,
    udet_frames: np.ndarray,
    factor,
) -> tuple:
    """Step every (eps, path) pair of a chunk of B paths in one lockstep batch.

    Rows are eps-major.  increments(k) gives the noise increments of step k,
    broadcastable to (len(eps_values), B, nx-1): a (B, nx-1) sheet slice is
    shared by every eps without a copy.  Steps come in order, so increments
    may read a block drawn ahead.  The right-hand side and the reductions
    write into per-chunk buffers; U**2 is formed once per state.
    Returns (sup_u, sup_diff, alive), each (len(eps_values), B): per-path
    sup_t of the solution's L2 norm, sup_t of ||u - u_det||_2 (unscaled),
    and the sup-norm guard.  The arithmetic per path matches solve_spde
    bit for bit: every other operation is elementwise or per row, and
    heat_solve (LAPACK ?pttrs from numpy's OpenBLAS, or the same recurrence
    in Python where that is absent) runs each right-hand-side column
    through the same scalar recurrence, never mixing columns or blocking by
    batch width; the LAPACK call releases the GIL, so pool workers' solves
    overlap.
    """
    E = len(eps_values)
    sqrt_eps = np.sqrt(np.asarray(eps_values, dtype=float))[:, None, None]
    U = np.tile(u0_vals, (E * B, 1))
    sq = U**2  # of the state the next rhs reads
    half_sq = np.empty_like(U)
    work = np.empty_like(U)
    out = np.empty((E * B, g.nx - 1))
    row = np.empty(E * B)

    # solvers.solve_spde's right-hand side, operation for operation
    def rhs(k, U):
        noise = sigma(U[:, 1:-1]).reshape(E, B, -1)  # a fresh array
        np.multiply(sqrt_eps, noise, out=noise)
        np.multiply(noise, increments(k), out=noise)
        np.divide(noise, g.dx, out=noise)
        np.multiply(0.5, sq, out=half_sq)
        np.subtract(half_sq[:, 2:], half_sq[:, :-2], out=out)
        np.divide(out, 2.0 * g.dx, out=out)
        np.multiply(g.dt, out, out=out)
        np.add(U[:, 1:-1], out, out=out)
        return np.add(out, noise.reshape(E * B, -1), out=out)

    peak = np.zeros(E * B)
    sup_u = norms_from_squares(sq, g)
    sup_diff = np.zeros(E * B)
    with np.errstate(over="ignore", invalid="ignore"):
        # heat_solve under this module's name: a wrapper on it sees every step
        for n, U in _march(factor, U, g.nt, rhs, heat_solve):
            np.maximum(peak, np.abs(U, out=work).max(axis=1, out=row), out=peak)
            np.square(U, out=sq)
            np.maximum(sup_u, norms_from_squares(sq, g, out=row), out=sup_u)
            np.square(np.subtract(U, udet_frames[n], out=work), out=work)
            np.maximum(sup_diff, norms_from_squares(work, g, out=row), out=sup_diff)
    return sup_u.reshape(E, B), sup_diff.reshape(E, B), (peak <= SUP_GUARD).reshape(E, B)


def _importance_pass(
    u0: SpaceField,
    g: Grid,
    eps_values: tuple,
    sigma: SigmaSpec,
    sched: ScalingSchedule,
    mc: McConfig,
    u_det: SpaceTimeField,
    factor,
) -> list:
    """Estimate deviation probabilities under Girsanov-shifted measures.

    For each eps, paths are driven by dW + h*v*dt*dx with h = h(eps), the
    change of measure under which the deviation field acquires the mean
    push given by the skeleton response to v.  The profile's strength is
    calibrated so that this response sits at the threshold (times
    mc.importance_scale): tilting past the threshold is the classical
    failure mode where rare large-weight crossings dominate the
    expectation, while tilting to it makes roughly half the paths cross
    with bounded weights.  Each path is reweighted by the exponential
    martingale evaluated on the unshifted sheet, which keeps the estimator
    unbiased.  A chunk draws its sheets whole and steps every eps in one
    batch; row block e adds eps e's shift per step.
    Returns one (p_hat, ci_low, ci_high, failed_fraction) per eps, where a
    path fails if it blows up or its weight is not finite; none at all when
    the skeleton response is identically zero (sigma vanishes along u_det),
    so that no tilt can move a path.
    """
    profile = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
    response = solve_skeleton(u0, g, Control(profile, g), sigma, u_det)
    unit_sup = sup_t_l2(response, g)
    if unit_sup == 0.0:
        return []
    strength = mc.importance_scale * mc.threshold / unit_sup
    v_vals = strength * profile
    a_vals = np.array([sched.a(e) for e in eps_values])[:, None]
    h_vals = np.array([sched.h(e) for e in eps_values])[:, None]
    shifts = h_vals[:, :, None] * v_vals * (g.dt * g.dx)  # (E, nt, nx-1)

    def chunk_weights(indices):
        dWs = next(_sheet_blocks(g, mc.master_seed, indices, g.nt))
        shifted = np.empty((len(eps_values), len(indices), g.nx - 1))
        _, sup_diff, alive = _run_paths_chunk(
            u0.values, g, eps_values, sigma, len(indices),
            lambda k: np.add(dWs[:, k, :], shifts[:, None, k, :], out=shifted),
            u_det.frames, factor,
        )
        hit = (sup_diff / a_vals > mc.threshold) & alive
        logw = _log_density(dWs, v_vals, h_vals, g)  # (E, B)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(alive, np.exp(logw) * hit, np.nan)

    out = []
    for w in np.concatenate(_map_chunks(chunk_weights, mc.n_paths, mc.threads), axis=1):
        w = w[np.isfinite(w)]
        n = w.size
        failed = 1.0 - n / mc.n_paths
        if n == 0:
            out.append((0.0, 0.0, 1.0, failed))
            continue
        p = float(np.mean(w))
        se = float(np.std(w, ddof=1) / np.sqrt(n)) if n > 1 else 1.0
        out.append((p, max(0.0, p - 1.96 * se), min(1.0, p + 1.96 * se), failed))
    return out


def mc_run(
    u0: SpaceField,
    g: Grid,
    sigma: SigmaSpec,
    sched: ScalingSchedule,
    mc: McConfig,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> DeviationStats:
    """Monte Carlo deviation statistics across the epsilon grid.

    For each eps: n_paths independent paths (common random numbers across
    the grid, path_index = i), the fraction whose scaled deviation
    sup_t ||(u_eps - u_det)/a||_2 exceeds the threshold with a Wilson 95%
    interval, sample moments of sup_t ||u_eps||_2 and of the unscaled
    difference, and the speed probe -log(p_hat)/h(eps)^2.  Unstable paths
    are dropped; a record with more than 1% failures is marked invalid.
    With use_importance, every eps with too few plain hits takes its
    p_hat from one shared tilted pass, and its failed fraction is the
    larger of the two passes'; where no tilt moves the skeleton response,
    the plain records stand.
    """
    same_grid(g, u0=u0)
    u_det = solve_deterministic(u0, g, cfg)
    factor = heat_factor(g)

    def chunk_stats(indices):
        blocks = _sheet_blocks(g, mc.master_seed, indices, SHEET_BLOCK_ROWS)
        block = None

        def increments(k):
            nonlocal block
            if k % SHEET_BLOCK_ROWS == 0:
                block = next(blocks)
            return block[:, k % SHEET_BLOCK_ROWS]

        return _run_paths_chunk(
            u0.values, g, mc.eps_grid, sigma, len(indices), increments, u_det.frames, factor,
        )

    parts = _map_chunks(chunk_stats, mc.n_paths, mc.threads)
    # (E, n_paths) per statistic, paths merged in chunk order
    sup_u_all, sup_diff_all, alive_all = (np.concatenate(p, axis=1) for p in zip(*parts))

    estimates = []  # (p_hat, ci_low, ci_high, failed_fraction) per eps
    tilted = []
    for e, (eps, sup_diff, alive) in enumerate(zip(mc.eps_grid, sup_diff_all, alive_all)):
        n_ok = int(alive.sum())
        hits = int(np.sum(sup_diff[alive] / sched.a(eps) > mc.threshold))
        p_hat = hits / n_ok if n_ok else 0.0
        estimates.append((p_hat, *wilson_interval(hits, n_ok), 1.0 - n_ok / mc.n_paths))
        if mc.use_importance and hits < MIN_IMPORTANCE_HITS:
            tilted.append(e)
    if tilted:
        tilted_eps = tuple(mc.eps_grid[e] for e in tilted)
        passes = _importance_pass(u0, g, tilted_eps, sigma, sched, mc, u_det, factor)
        tilted = tilted if passes else []
        for e, (p_hat, ci_low, ci_high, failed) in zip(tilted, passes):
            estimates[e] = (p_hat, ci_low, ci_high, max(failed, estimates[e][3]))

    def moments(x):
        return tuple((q, float(np.mean(x**q)) if x.size else np.nan) for q in mc.moment_orders)

    records = []
    for e, (eps, sup_u, sup_diff, alive) in enumerate(
        zip(mc.eps_grid, sup_u_all, sup_diff_all, alive_all)
    ):
        p_hat, ci_low, ci_high, failed_fraction = estimates[e]
        speed = -math.log(p_hat) / sched.h(eps) ** 2 if 0.0 < p_hat < 1.0 else math.nan
        records.append(
            EpsRecord(
                eps=eps,
                p_hat=p_hat,
                ci_low=ci_low,
                ci_high=ci_high,
                moments_u=moments(sup_u[alive]),
                moments_dev=moments(sup_diff[alive]),
                neg_log_p_over_h2=speed,
                failed_fraction=failed_fraction,
                n_paths=mc.n_paths,
                valid=failed_fraction <= MAX_FAILED_FRACTION,
                method="importance" if e in tilted else "plain",
            )
        )
    return DeviationStats(records=tuple(records), threshold=mc.threshold, schedule=sched)
