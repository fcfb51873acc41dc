"""Scaling schedules, deviation fields, and Monte Carlo deviation statistics.

Every Monte Carlo pass runs through one chunk driver, `_map_chunks`: fixed
CHUNK_SIZE chunks of path indices on a thread pool, results in chunk order.
Each chunk is a pure function of (master_seed, path indices), so a run is
reproducible bit-for-bit whatever the number of worker threads.  A chunk
hands its noise to solvers._spde_steps, which steps every eps in one
lockstep batch; the chunk only reduces what it yields: norms, and a running
max|u| per row for the sup-norm guard.  The plain pass draws SHEET_BLOCK_ROWS
steps of noise at a time; the importance pass draws whole sheets, which the
density reads, and adds each eps's Girsanov shift.
"""
from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .grids import Control, Grid, SpaceField, SpaceTimeField, norms_from_squares, same_grid
from .grids import _whole, sup_t_l2
# sample_sheet is unused; perfbench/child.py BOUNDARIES wraps it
from .noise import _drift_increment, _log_density, _sheet_blocks, sample_sheet
from .solvers import (
    DEFAULT_SOLVER,
    SUP_GUARD,
    SigmaSpec,
    SolverConfig,
    _spde_steps,
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
) -> tuple:
    """Per-path sup_t ||u||_2, sup_t ||u - u_det||_2 and guard, each (E, B).

    _spde_steps steps B paths at every eps on the per-step noise increments;
    each path's numbers are solve_spde's, bit for bit, its guard on frames 1..nt.
    """
    E = len(eps_values)
    U = np.tile(u0_vals, (E * B, 1))
    # heat_solve under this module's name: a wrapper on it sees every step
    steps = _spde_steps(g, U, eps_values, sigma, increments, heat_solve)
    sup_u = norms_from_squares(next(steps)[2], g)  # frame 0
    peak, sup_diff = np.zeros(E * B), np.zeros(E * B)
    work, row = np.empty_like(U), np.empty(E * B)
    with np.errstate(over="ignore", invalid="ignore"):
        for n, U, sq in steps:
            np.maximum(peak, np.abs(U, out=work).max(axis=1, out=row), out=peak)
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
    shifts = _drift_increment(v_vals, h_vals[:, :, None], g)  # (E, nt, nx-1)

    def chunk_weights(indices):
        dWs = next(_sheet_blocks(g, mc.master_seed, indices, g.nt))
        shifted = np.empty((len(eps_values), len(indices), g.nx - 1))
        steps = (np.add(dWs[:, k], shifts[:, None, k], out=shifted) for k in range(g.nt))
        _, sup_diff, alive = _run_paths_chunk(
            u0.values, g, eps_values, sigma, len(indices), steps, u_det.frames
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

    def chunk_stats(indices):
        blocks = _sheet_blocks(g, mc.master_seed, indices, SHEET_BLOCK_ROWS)
        # each (B, rows, nx-1) block read step by step before the next is drawn
        steps = chain.from_iterable(block.swapaxes(0, 1) for block in blocks)
        return _run_paths_chunk(
            u0.values, g, mc.eps_grid, sigma, len(indices), steps, u_det.frames
        )

    parts = _map_chunks(chunk_stats, mc.n_paths, mc.threads)
    # (E, n_paths) per statistic, paths merged in chunk order
    sup_u_all, sup_diff_all, alive_all = (np.concatenate(p, axis=1) for p in zip(*parts))

    a_vals = np.array([sched.a(eps) for eps in mc.eps_grid])[:, None]
    hits_all = np.sum((sup_diff_all / a_vals > mc.threshold) & alive_all, axis=1)
    tilted = {}  # eps -> (p_hat, ci_low, ci_high, failed_fraction) of the tilted pass
    if mc.use_importance:
        low = tuple(compress(mc.eps_grid, hits_all < MIN_IMPORTANCE_HITS))
        if low:
            tilted = dict(zip(low, _importance_pass(u0, g, low, sigma, sched, mc, u_det)))

    def moments(x):
        return tuple((q, float(np.mean(x**q)) if x.size else np.nan) for q in mc.moment_orders)

    records = []
    for eps, hits, sup_u, sup_diff, alive in zip(
        mc.eps_grid, hits_all.tolist(), sup_u_all, sup_diff_all, alive_all
    ):
        n_ok = int(alive.sum())
        p_hat = hits / n_ok if n_ok else 0.0
        ci_low, ci_high = wilson_interval(hits, n_ok)
        failed_fraction = 1.0 - n_ok / mc.n_paths
        if eps in tilted:
            p_hat, ci_low, ci_high, failed = tilted[eps]
            failed_fraction = max(failed, failed_fraction)
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
                method="importance" if eps in tilted else "plain",
            )
        )
    return DeviationStats(records=tuple(records), threshold=mc.threshold, schedule=sched)
