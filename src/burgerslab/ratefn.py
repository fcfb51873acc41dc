"""Least-norm control energy of deviation profiles.

The skeleton map sends a control v to the linear response field it forces
around the deterministic trajectory.  The energy functional of a target
profile f is the smallest ½ (H_T norm)² over controls whose response equals
f.  On the lattice the map is square (nt·(nx−1) in and out) and block
lower-triangular in time, with diagonal blocks (I − dt·L)⁻¹·dt·sigma(u_det,k).
Controls and responses pair in one inner product, `grids.ht_dot` (dt·dx per
cell, the noise sheet's own norm), so the adjoint is the plain transpose.
Where sigma(u_det) vanishes the control has no effect, and since that metric
is diagonal the least-norm preimage is zero there; elsewhere it is unique.
This module only finds that control: it consumes the map's forward sweep,
transpose and inverse from solvers, passing its own heat_solve to both sweeps.

rate_value takes one of two routes.  The exact route back-substitutes every
step at once (`solvers._skeleton_preimage`: one vectorized pass, no heat
solve, v = 0 on the cells where sigma(u_det) is 0) and keeps the
preimage when both hold:

  (a) every entry is finite;
  (b) one forward sweep reproduces the target within the stopping threshold;
      on the masked cells this is the check that the step equation holds
      with v = 0, so a target that fails it there has no preimage.

However rough, that preimage is kept.  Otherwise the target has no preimage
and the least-norm problem is solved matrix-free by conjugate gradients on
the normal equations (CGLS), each iteration costing one forward and one
adjoint sweep; the stalled iteration keeps the "not attained" verdict.
"""

from dataclasses import dataclass

import numpy as np

from .grids import Control, SpaceTimeField, ht_dot, ht_norm, same_grid, sup_t_l2
from .solvers import _FULL_LATTICE, SkeletonContext, _skeleton_adjoint, _skeleton_frames
# solve_deterministic is not called here; perfbench/child.py BOUNDARIES still wraps it
from .solvers import _skeleton_preimage, heat_solve, solve_deterministic

RATE_TOL = 1e-6  # rate_value's stopping tolerance, which `burgerslab rate` uses


def apply_forward(v: Control, ctx: SkeletonContext) -> SpaceTimeField:
    """Response field of a control: the zero-noise deviation it forces."""
    same_grid(ctx.grid, v=v)
    return SpaceTimeField(_skeleton_frames(ctx, v.values, heat_solve), ctx.grid)


def apply_adjoint(field: SpaceTimeField, ctx: SkeletonContext) -> Control:
    """Adjoint of the response map, both sides paired by ht_dot, on frames 1..nt."""
    same_grid(ctx.grid, field=field)
    return Control(_skeleton_adjoint(ctx, field.frames[1:, 1:-1], heat_solve), ctx.grid)


@dataclass(frozen=True)
class RateResult:
    """Least-norm energy of a target profile and its minimizing control."""

    value: float
    v_star: Control
    residual: float  # sup_t L2 mismatch between the response and the target
    iterations: int
    attained: bool
    method: str  # route that produced v_star: "exact" or "cgls"
    # (Σ(Δ_t v*)² + Σ(Δ_x v*)²) / Σ v*², 0 for v* = 0: smooth 0.01-0.10, white noise ≈ 4
    roughness: float
    # ht_dot norm of the residual per iteration; non-increasing by construction
    residual_history: tuple = ()

    def to_json_dict(self, v_star_csv_path: str = "") -> dict:
        return {
            "value": self.value,
            "residual": self.residual,
            "iterations": self.iterations,
            "attained": self.attained,
            "v_star_csv_path": v_star_csv_path,
            "method": self.method,
            "roughness": self.roughness,
            "residual_history": list(self.residual_history),
        }


def _exact_route(ctx: SkeletonContext, target: np.ndarray, threshold: float):
    """The exact preimage as (values, history, residual, 1), or None unless (a) and (b) hold."""
    g = ctx.grid
    v = _skeleton_preimage(ctx, target)
    if not np.all(np.isfinite(v)):
        return None
    r = target - _skeleton_frames(ctx, v, heat_solve)[1:, 1:-1]
    residual = sup_t_l2(np.pad(r, _FULL_LATTICE), g)
    if not residual <= threshold:
        return None
    history = tuple(float(np.sqrt(ht_dot(x, x, g))) for x in (target, r))
    return v, history, residual, 1


def _cgls(ctx: SkeletonContext, target: np.ndarray, threshold: float, max_iter: int):
    """Conjugate gradients on the normal equations, paired by ht_dot.

    Starting from the zero control keeps every iterate in the range of the
    adjoint, so the limit is the least-norm solution.  Returns (control
    values, global-norm history, sup-in-time residual, iterations); the
    history records the ht_dot residual norm, the quantity the iteration
    minimizes over nested subspaces, while the stopping rule watches the
    sup-in-time constraint sense.
    """
    g = ctx.grid
    v = np.zeros((g.nt, g.nx - 1))
    r = target.copy()
    sup_res = sup_t_l2(np.pad(r, _FULL_LATTICE), g)
    history = [float(np.sqrt(ht_dot(r, r, g)))]
    if sup_res <= threshold:
        return v, tuple(history), sup_res, 0
    s = _skeleton_adjoint(ctx, r, heat_solve)
    p = s.copy()
    gamma = ht_dot(s, s, g)
    for it in range(1, max_iter + 1):
        q = _skeleton_frames(ctx, p, heat_solve)[1:, 1:-1]
        denom = ht_dot(q, q, g)
        if denom <= 0.0 or not np.isfinite(denom):
            return v, tuple(history), sup_res, it - 1
        alpha = gamma / denom
        v = v + alpha * p
        r = r - alpha * q
        sup_res = sup_t_l2(np.pad(r, _FULL_LATTICE), g)
        history.append(float(np.sqrt(ht_dot(r, r, g))))
        if sup_res <= threshold:
            return v, tuple(history), sup_res, it
        s = _skeleton_adjoint(ctx, r, heat_solve)
        gamma_new = ht_dot(s, s, g)
        if gamma_new <= 0.0 or not np.isfinite(gamma_new):
            return v, tuple(history), sup_res, it
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return v, tuple(history), sup_res, max_iter


def rate_value(
    f: SpaceTimeField,
    ctx: SkeletonContext,
    tol: float = RATE_TOL,
    max_iter: int = 2000,
) -> RateResult:
    """Least control energy whose response matches the target profile.

    The target must start from the zero frame and vanish at the walls
    (responses always do, so anything else is unattainable from the
    start).  Convergence is declared when the sup-in-time L2 mismatch
    drops below tol scaled by the target size (capped at tol itself), a
    rule invariant under rescaling the target, which keeps the quadratic
    homogeneity of the energy exact to roundoff.

    The exact route runs first: the back-substituted preimage, zero where
    sigma(u_det) vanishes, is taken however rough when it is finite (a) and
    reproduces the target within that threshold under one forward sweep
    (b); then iterations is 1 and residual_history is (|f|, |f - A v|).
    A target with no preimage goes to CGLS, for at most max_iter iterations
    (2000 in `burgerslab rate`), and is flagged as not attained — the
    discrete stand-in for an infinite energy — with the last CGLS iterate.
    """
    g = ctx.grid
    same_grid(g, f=f)
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if np.any(f.frames[0] != 0.0):
        raise ValueError("target must vanish on the initial frame")
    if np.any(f.frames[:, 0] != 0.0) or np.any(f.frames[:, -1] != 0.0):
        raise ValueError("target must vanish at the walls")

    target = f.frames[1:, 1:-1]
    sup_f = sup_t_l2(f, g)
    threshold = tol * min(1.0, sup_f) if sup_f > 0 else 0.0

    # when the zero control already meets the threshold, CGLS returns it
    # after 0 iterations
    found = _exact_route(ctx, target, threshold) if sup_f > threshold else None
    method = "exact"
    if found is None:
        found, method = _cgls(ctx, target, threshold, max_iter), "cgls"
    vals, history, residual, iters = found
    attained = residual <= threshold
    value = 0.5 * ht_dot(vals, vals, g)
    v_star = Control(vals, g)
    # the reported value is recomputed from the minimizer, not accumulated
    if not abs(value - 0.5 * ht_norm(v_star, g) ** 2) <= 1e-12 * max(1.0, value):
        raise RuntimeError(f"rate value {value!r} disagrees with the norm of v*")
    total = np.sum(vals**2)
    rough = np.sum(np.diff(vals, axis=0) ** 2) + np.sum(np.diff(vals, axis=1) ** 2)
    return RateResult(
        value=value,
        v_star=v_star,
        residual=residual,
        iterations=iters,
        attained=attained,
        method=method,
        roughness=float(rough / total) if total > 0 else 0.0,
        residual_history=history,
    )
