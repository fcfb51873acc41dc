"""Semi-implicit time steppers for the Burgers family of equations.

Every forward time loop runs through one stepping engine, _march:
implicit Dirichlet Laplacian (tridiagonal, Cholesky-prefactored once),
explicit conservative central flux, per-cell noise dW/(dt*dx), each step
    (I - dt*L) u^{k+1} = u^k + dt*Dx(flux) + forcing_k ,
so there is no dt <= dx^2/2 constraint.  The state is one path (nx+1,) or
a batch (B, nx+1); callers supply only the right-hand side and apply the
sup-norm guard to what they record: single-path solvers raise at the first
bad frame, batched callers drop the paths whose running max|u| passes it.

The controlled-deviation solver steps the deviation variable directly with
the algebra that makes it pathwise-identical to the Girsanov route
(solve the noise-shifted equation, subtract the deterministic limit,
rescale); the two routes are cross-checked in the tests.

The skeleton solvers carry the mild-form transport coefficient -2 on
int int d_yG * w * u0 (equivalently +2*d_x(u0*w) after integration by
parts); the fixed-point solver implements that mild form literally by
quadrature and arbitrates the PDE stepping.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .grids import Control, DimensionError, Grid, SpaceField, SpaceTimeField
from .kernels import KernelConfig, eval_G, eval_dG_dy
from .noise import NoiseSheet

__all__ = [
    "SigmaSpec",
    "SolverConfig",
    "InstabilityError",
    "ContractionFailureError",
    "FixedPointResult",
    "solve_deterministic",
    "solve_spde",
    "solve_controlled",
    "solve_skeleton",
    "solve_skeleton_fixed_point",
]

SUP_GUARD = 1e6


class InstabilityError(RuntimeError):
    """The explicit flux left the stable regime (sup-norm guard tripped)."""

    def __init__(self, step: int, time: float, sup: float):
        self.step = step
        self.time = time
        self.sup = sup
        super().__init__(
            f"solution blew past {SUP_GUARD:g} at step {step} (t = {time:.6g}, "
            f"sup = {sup:.3g}); refine dt or shrink the data"
        )


class ContractionFailureError(RuntimeError):
    """Fixed-point iteration failed to contract within fp_max_iter sweeps."""


@dataclass(frozen=True)
class SigmaSpec:
    """Noise coefficient sigma: bounded, globally Lipschitz, vectorized.

    Use the factories: SigmaSpec.constant(c), SigmaSpec.cosine(amplitude),
    SigmaSpec.tabulated(xs, ys).
    """

    kind: str
    params: tuple
    bound: float
    lipschitz: float

    def __post_init__(self):
        if self.kind not in ("constant", "cosine", "tabulated"):
            raise ValueError(f"unknown sigma kind {self.kind!r}")
        if self.bound < 0 or self.lipschitz < 0:
            raise ValueError("bound and lipschitz must be nonnegative")

    @classmethod
    def constant(cls, c: float) -> "SigmaSpec":
        return cls(kind="constant", params=(float(c),), bound=abs(float(c)), lipschitz=0.0)

    @classmethod
    def cosine(cls, amplitude: float) -> "SigmaSpec":
        a = float(amplitude)
        return cls(kind="cosine", params=(a,), bound=abs(a), lipschitz=abs(a))

    @classmethod
    def tabulated(cls, xs, ys) -> "SigmaSpec":
        xs = tuple(float(x) for x in xs)
        ys = tuple(float(y) for y in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("tabulated sigma needs matching xs/ys, length >= 2")
        dx = np.diff(xs)
        if np.any(dx <= 0):
            raise ValueError("tabulated xs must be strictly increasing")
        slopes = np.abs(np.diff(ys) / dx)
        return cls(
            kind="tabulated",
            params=(xs, ys),
            bound=float(np.max(np.abs(ys))),
            lipschitz=float(np.max(slopes)) if slopes.size else 0.0,
        )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "constant":
            return np.full_like(u, self.params[0])
        if self.kind == "cosine":
            return self.params[0] * np.cos(u)
        xs, ys = self.params
        return np.interp(u, xs, ys)


@dataclass(frozen=True)
class SolverConfig:
    fp_tol: float = 1e-4
    fp_max_iter: int = 40

    def __post_init__(self):
        if not (0.0 < self.fp_tol <= 1e-3):
            raise ValueError(f"fp_tol must lie in (0, 1e-3], got {self.fp_tol}")
        if self.fp_max_iter < 10:
            raise ValueError(f"fp_max_iter must be >= 10, got {self.fp_max_iter}")


DEFAULT_SOLVER = SolverConfig()


def heat_factor(g: Grid):
    """Banded Cholesky factor of I - dt*L (Dirichlet tridiagonal Laplacian)."""
    lam = g.dt / g.dx**2
    ab = np.zeros((2, g.nx - 1))
    ab[0, 1:] = -lam
    ab[1, :] = 1.0 + 2.0 * lam
    return cholesky_banded(ab, lower=False)


def heat_solve(factor, rhs):
    """Solve (I - dt*L) x = rhs for rhs (n,) or (n, B); inf/NaN are not rejected."""
    return cho_solve_banded((factor, False), rhs, check_finite=False)


def flux_divergence(u_full: np.ndarray, dx: float) -> np.ndarray:
    """Central conservative divergence of the Burgers flux u^2/2 at interior nodes."""
    flux = 0.5 * u_full**2
    return (flux[..., 2:] - flux[..., :-2]) / (2.0 * dx)


def _march(factor, state: np.ndarray, nt: int, rhs, solve=heat_solve):
    """Semi-implicit steps k = 0..nt-1 from `state`; yields (k + 1, u^{k+1}).

    The state is (nx+1,) or (B, nx+1) on the full lattice.  rhs(k, u) gives
    the interior right-hand side, solve(factor, rhs) the new interior; the
    walls stay zero and each yielded state is a fresh array.  No guard.
    Other modules pass their own heat_solve binding as `solve`.
    """
    for k in range(nt):
        interior = solve(factor, rhs(k, state).T).T
        state = np.zeros(state.shape)
        state[..., 1:-1] = interior
        yield k + 1, state


def _frames(u0_vals: np.ndarray, g: Grid, rhs, factor, solve=heat_solve) -> np.ndarray:
    """All nt+1 frames of one path marched from u0_vals."""
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[0] = u0_vals
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in _march(factor, frames[0], g.nt, rhs, solve):
            frames[n] = u
    return frames


def _guarded(frames: np.ndarray, g: Grid) -> SpaceTimeField:
    """The finished path, or InstabilityError at its first frame past SUP_GUARD."""
    sups = np.abs(frames[1:]).max(axis=1)
    bad = np.flatnonzero(~(sups <= SUP_GUARD))
    if bad.size:
        step = int(bad[0]) + 1
        raise InstabilityError(step, step * g.dt, float(sups[bad[0]]))
    return SpaceTimeField(frames, g)


def _check_u0(u0: SpaceField, g: Grid) -> None:
    if u0.grid != g:
        raise DimensionError("initial condition lives on a different grid")


def solve_deterministic(
    u0: SpaceField, g: Grid, cfg: SolverConfig = DEFAULT_SOLVER
) -> SpaceTimeField:
    """Viscous Burgers with the noise switched off."""
    _check_u0(u0, g)

    def rhs(k, u):
        return u[1:-1] + g.dt * flux_divergence(u, g.dx)

    return _guarded(_frames(u0.values, g, rhs, heat_factor(g)), g)


def solve_spde(
    u0: SpaceField,
    g: Grid,
    eps: float,
    sigma: SigmaSpec,
    w: NoiseSheet,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SpaceTimeField:
    """Stochastic Burgers driven by sqrt(eps) * sigma(u) * white noise."""
    _check_u0(u0, g)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if w.grid != g:
        raise DimensionError("noise sheet lives on a different grid")
    sqrt_eps = np.sqrt(eps)

    def rhs(k, u):
        noise = sqrt_eps * sigma(u[1:-1]) * w.dW[k] / g.dx
        return u[1:-1] + g.dt * flux_divergence(u, g.dx) + noise

    return _guarded(_frames(u0.values, g, rhs, heat_factor(g)), g)


def solve_controlled(
    u0: SpaceField,
    g: Grid,
    eps: float,
    schedule,
    sigma: SigmaSpec,
    v: Control,
    w: NoiseSheet,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SpaceTimeField:
    """Deviation field of the noise-plus-control dynamics, stepped directly.

    `schedule` supplies the deviation scale a(eps) and noise-vs-scale ratio
    h(eps) = a(eps)/sqrt(eps) (any object with those two methods works; the
    deviations module provides ScalingSchedule).

    The recursion is the exact algebraic difference of the shifted-noise
    solver and the deterministic solver, rescaled by a(eps):

        ubar^{k+1} = M^{-1}[ ubar^k + dt*Dx(u0_k*ubar^k + (a/2)*(ubar^k)^2)
                             + (1/h)*sigma(u_k)*dW_k/dx
                             + dt*sigma(u_k)*v_k ],   u_k = udet_k + a*ubar^k,

    so it coincides pathwise with
    deviation_field(solve_spde(girsanov_shift(w, v, h)), solve_deterministic)
    up to floating-point rounding.
    """
    _check_u0(u0, g)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if w.grid != g or v.grid != g:
        raise DimensionError("control or noise sheet lives on a different grid")
    a_val = float(schedule.a(eps))
    h_val = float(schedule.h(eps))
    udet = solve_deterministic(u0, g, cfg).frames

    def rhs(k, ubar):
        transport = udet[k] * ubar + 0.5 * a_val * ubar**2
        div = (transport[2:] - transport[:-2]) / (2.0 * g.dx)
        sig = sigma(udet[k][1:-1] + a_val * ubar[1:-1])
        noise = sig * w.dW[k] / (h_val * g.dx)
        return ubar[1:-1] + g.dt * div + noise + g.dt * sig * v.values[k]

    return _guarded(_frames(np.zeros(g.nx + 1), g, rhs, heat_factor(g)), g)


def _check_u_det(u0: SpaceField, g: Grid, u_det: SpaceTimeField) -> None:
    if u_det.grid != g:
        raise DimensionError("deterministic limit lives on a different grid")
    if not np.array_equal(u_det.frames[0], u0.values):
        raise ValueError("u_det does not start from the supplied initial condition")


def _skeleton_frames(g: Grid, factor, transport, forcing, v_values, solve=heat_solve):
    """Frames of the linear skeleton response to v_values.

    transport[k] is 2*u_det on the full lattice and forcing[k] is
    sigma(u_det) on the interior, both at frame k; solve_skeleton and the
    rate function's forward map share this sweep.
    """

    def rhs(k, ubar):
        flux = transport[k] * ubar
        div = (flux[2:] - flux[:-2]) / (2.0 * g.dx)
        return ubar[1:-1] + g.dt * (div + forcing[k] * v_values[k])

    return _frames(np.zeros(g.nx + 1), g, rhs, factor, solve)


def solve_skeleton(
    u0: SpaceField,
    g: Grid,
    v: Control,
    sigma: SigmaSpec,
    u_det: SpaceTimeField,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SpaceTimeField:
    """Zero-noise skeleton: linear transport around u_det forced by v.

    PDE stepping of  d ubar/dt = Lap ubar + 2*d_x(u_det*ubar) + sigma(u_det)*v,
    the local form of the mild equation with transport coefficient -2 on
    int int d_yG * ubar * u_det (integration by parts flips the sign onto
    the flux).  Linear in v by construction.
    """
    _check_u0(u0, g)
    if v.grid != g:
        raise DimensionError("control lives on a different grid")
    _check_u_det(u0, g, u_det)
    base = u_det.frames[:-1]
    forcing = sigma(base[:, 1:-1])
    return _guarded(_skeleton_frames(g, heat_factor(g), 2.0 * base, forcing, v.values), g)


# ------------------------------------------------------- fixed-point solver


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed point of the mild-form map plus its observed contraction."""

    field: SpaceTimeField
    ratios: tuple
    iterations: int


def _history_rule(g: Grid, k: int, n_quad: int) -> tuple:
    """Gauss-Legendre rule in r = sqrt(t_k - s) over (0, sqrt(t_k)).

    The substitution carries Jacobian 2r, which cancels the kernel's
    (t-s)^(-1/2)-type endpoint singularity.  Returns (tau, weights, s):
    kernel times r^2, quadrature weights including the Jacobian, and the
    history times s = t_k - r^2.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_quad)
    tk = k * g.dt
    r = 0.5 * np.sqrt(tk) * (nodes + 1.0)
    wr = 0.5 * np.sqrt(tk) * wts * 2.0 * r
    return r * r, wr, tk - r * r


class _MildTransport:
    """Quadrature operator for -2 iint d_yG(t_k - s) w(s) u0(s) dy ds.

    The weighted kernel matrices per target index are data-independent, so
    they are built once and reused across fixed-point sweeps.
    """

    def __init__(self, g: Grid, kcfg: KernelConfig, n_quad: int):
        self.g = g
        self.kcfg = kcfg
        self.n_quad = n_quad
        self.w_space = g.space_weights()[1:-1]
        self._cache: dict = {}

    def _entry(self, k: int) -> tuple:
        if k not in self._cache:
            g = self.g
            xi = g.x_interior()
            tau, wr, s = _history_rule(g, k, self.n_quad)
            dmat = eval_dG_dy(
                tau[:, None, None], xi[None, :, None], xi[None, None, :], self.kcfg
            )
            pos = np.minimum(s / g.dt, g.nt - 1e-12)
            m = pos.astype(int)
            theta = pos - m
            self._cache[k] = (wr[:, None, None] * dmat, m, theta)
        return self._cache[k]

    def apply_row(self, k: int, prod_frames: np.ndarray) -> np.ndarray:
        wdmat, m, theta = self._entry(k)
        hist = (1.0 - theta)[:, None] * prod_frames[m, 1:-1] + theta[
            :, None
        ] * prod_frames[m + 1, 1:-1]
        return -2.0 * np.einsum("qij,qj->i", wdmat, self.w_space * hist)


def _mild_apply(
    w_frames: np.ndarray,
    b_frames: np.ndarray,
    udet_frames: np.ndarray,
    g: Grid,
    transport: _MildTransport,
) -> np.ndarray:
    """One sweep of the mild map A(w) = -2 iint d_yG w u0 + b.

    The history w*u0 is interpolated linearly in time between frames and
    integrated in space by trapezoid against the kernel matrices.
    """
    prod = w_frames * udet_frames  # (nt+1, nx+1)
    out = np.zeros_like(w_frames)
    for k in range(1, g.nt + 1):
        out[k, 1:-1] = transport.apply_row(k, prod) + b_frames[k, 1:-1]
    return out


def _mild_forcing(
    v_vals: np.ndarray,
    udet_frames: np.ndarray,
    sigma: SigmaSpec,
    g: Grid,
    kcfg: KernelConfig,
    n_quad: int,
) -> np.ndarray:
    """b(t_k) = int_0^{t_k} int G_{t_k - s}(x, y) sigma(u0(s,y)) v(s,y) dy ds."""
    xi = g.x_interior()
    w_space = g.space_weights()[1:-1]
    sig = sigma(udet_frames[:-1, 1:-1])  # left endpoints, interior
    force = sig * v_vals  # (nt, nx-1), piecewise constant in time
    b = np.zeros((g.nt + 1, g.nx + 1))
    for k in range(1, g.nt + 1):
        tau, wr, s = _history_rule(g, k, n_quad)
        gmat = eval_G(tau[:, None, None], xi[None, :, None], xi[None, None, :], kcfg)
        m = np.minimum((s / g.dt).astype(int), g.nt - 1)
        b[k, 1:-1] = np.einsum(
            "qij,qj->i", wr[:, None, None] * gmat, w_space * force[m]
        )
    return b


def solve_skeleton_fixed_point(
    u0: SpaceField,
    g: Grid,
    v: Control,
    sigma: SigmaSpec,
    u_det: SpaceTimeField,
    cfg: SolverConfig = DEFAULT_SOLVER,
    kernel_cfg: KernelConfig = KernelConfig(),
    n_quad: int = 32,
) -> FixedPointResult:
    """Skeleton via the contraction mapping of its mild form.

    Iterates w <- A(w) from w = 0, where A is the affine mild map built by
    quadrature against the kernel series, until the sup_t L2 update drops
    below cfg.fp_tol.  Raises ContractionFailureError after cfg.fp_max_iter
    sweeps; on long horizons, split [0, T] and concatenate windows instead.
    """
    _check_u0(u0, g)
    if v.grid != g:
        raise DimensionError("control lives on a different grid")
    _check_u_det(u0, g, u_det)

    b = _mild_forcing(v.values, u_det.frames, sigma, g, kernel_cfg, n_quad)
    transport = _MildTransport(g, kernel_cfg, n_quad)
    w_frames = np.zeros((g.nt + 1, g.nx + 1))
    ratios = []
    prev_update = None
    for it in range(1, cfg.fp_max_iter + 1):
        w_next = _mild_apply(w_frames, b, u_det.frames, g, transport)
        update = float(
            np.sqrt(np.max(((w_next - w_frames) ** 2) @ g.space_weights()))
        )
        if prev_update is not None and prev_update > 0:
            ratios.append(update / prev_update)
        if update < cfg.fp_tol:
            return FixedPointResult(
                field=SpaceTimeField(w_next, g), ratios=tuple(ratios), iterations=it
            )
        prev_update = update
        w_frames = w_next
    raise ContractionFailureError(
        f"no contraction below fp_tol={cfg.fp_tol:g} after {cfg.fp_max_iter} sweeps "
        f"(last update {prev_update:.3g}); shorten the horizon and concatenate"
    )
