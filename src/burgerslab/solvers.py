"""Semi-implicit time steppers for the Burgers family of equations.

Every time loop, the rate function's backward adjoint sweep included, runs
through one stepping engine, _march:
implicit Dirichlet Laplacian (symmetric positive definite tridiagonal,
LDL^T-factored by LAPACK ?pttrf's recurrence in numpy, cached per grid, and
solved by ?pttrs from the ILP64 OpenBLAS that numpy itself links, called
through ctypes so the GIL is released during each solve; where numpy links
no such library the same recurrence in Python floats or numpy rows gives
the same bits, see HEAT_BACKEND),
explicit conservative central flux, per-cell noise dW/(dt*dx), each step
    (I - dt*L) u^{k+1} = u^k + dt*Dx(flux) + forcing_k ,
so there is no dt <= dx^2/2 constraint.  The state is one path (nx+1,) or
a batch (B, nx+1).  _spde_steps is the one stochastic step: solve_spde runs
it on one path and raises past the sup-norm guard, Monte Carlo chunks run it
on lockstep batches and drop the paths whose running max|u| passes it.

The controlled-deviation solver steps the deviation variable directly with
the algebra that makes it pathwise-identical to the Girsanov route
(solve the noise-shifted equation, subtract the deterministic limit,
rescale); the two routes are cross-checked in the tests.

The skeleton is the linear response ubar to a control v around the base
flow u_det (the deterministic solution from u0), with c = SKELETON_TRANSPORT.
c = 1 linearises the flux u^2/2 that the solvers step, so the skeleton is the
small-noise limit of the sampled paths, and choosing it moves none of them:
    d ubar/dt = Lap ubar + c*d_x(u_det*ubar) + sigma(u_det)*v,   ubar(0) = 0,
and in mild form, G the Dirichlet heat kernel (integration by parts moves
d_x onto the kernel and flips the sign),
    ubar(t) = -c int_0^t int d_yG(t-s) u_det*ubar + int_0^t int G(t-s) sigma(u_det)*v.
At the default config u_det has decayed by the late times that dominate,
so every rate-side number is the stochastic heat equation's (the set rate
matches its closed form to 6e-8); Burgers transport shows at 32x256,
T = 0.1, amplitude 5 (set rate 0.3246 against the heat equation's 0.1654).
_linearise builds the coefficients once per base flow (SkeletonContext).
Only this module knows the first form's lattice step, in three operators
the rate function consumes: _skeleton_frames (forward), _skeleton_adjoint
(transpose) and _skeleton_preimage (inverse).  solve_skeleton steps it,
solve_skeleton_fixed_point iterates the second in the nx - 1 sine modes of
the interior lattice, where the Dirichlet kernel is diagonal, with a Gauss
rule in sqrt(t - s) for the history; it shares no code with the
finite-difference stepping it arbitrates.
"""
from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import Control, Grid, SpaceField, SpaceTimeField, same_grid, sup_t_l2
# eval_G and eval_dG_dy are not called here; perfbench/child.py BOUNDARIES still wraps them
from .kernels import _exp, eval_G, eval_dG_dy, gauss_legendre
from .noise import NoiseSheet

__all__ = [
    "SigmaSpec",
    "SolverConfig",
    "InstabilityError",
    "ContractionFailureError",
    "FixedPointResult",
    "SkeletonContext",
    "solve_deterministic",
    "solve_spde",
    "solve_controlled",
    "solve_skeleton",
    "solve_skeleton_fixed_point",
]

SUP_GUARD = 1e6

# c of the skeleton equation, chosen in the module docstring
SKELETON_TRANSPORT = 1.0


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
        if not (0 <= self.bound < np.inf and 0 <= self.lipschitz < np.inf):
            raise ValueError("bound and lipschitz must be finite and nonnegative")

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
        if not np.all(np.isfinite(xs + ys)):
            raise ValueError("tabulated xs/ys must be finite")
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


class _LDLt:
    """I - dt*L = L D L^T as ?pttrf leaves it: diagonal d, subdiagonal e of L.

    refs holds byrefs to N, D and E for ?pttrs; they are built once and the
    routine only reads through them, so threads may share one factor.
    """

    __slots__ = ("d", "e", "refs")

    def __init__(self, d: np.ndarray, e: np.ndarray):
        self.d, self.e = d, e
        self.refs = (
            ctypes.byref(ctypes.c_int64(d.size)),
            ctypes.byref(ctypes.c_double.from_buffer(d)),
            ctypes.byref(ctypes.c_double.from_buffer(e)),
        )


def _pt_symbols(path: str):
    """?pttrs with the ILP64 OpenBLAS name, reached through `path`, or None.

    scipy-openblas64, which numpy's wheels bundle since numpy 2, prefixes
    scipy_; the openblas64_ of numpy 1.x wheels does not.  In both the 64_
    suffix marks the 64-bit-integer interface.
    """
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for name in ("scipy_dpttrs_64_", "dpttrs_64_"):
        pttrs = getattr(lib, name, None)
        if pttrs is not None:
            # no argtypes: converting seven arguments costs ~3 us a call, a tenth
            # of a 64-column solve.  Every argument is a byref this module builds
            # on a c_int64 or on a float64 buffer it allocated and sized itself.
            pttrs.restype = None
            return pttrs
    return None


def _openblas_pt():
    """?pttrs of the ILP64 OpenBLAS numpy's wheels bundle, or None.

    On Linux and macOS the linear-algebra extension's handle reaches the
    library it links; on Windows it does not, and the wheel's DLL is opened
    by its path.  numpy builds linking another BLAS or LAPACK (Accelerate,
    MKL, a distro's or conda's LP64 OpenBLAS) take the recurrence below.
    """
    here = Path(np.__file__).parent
    bundled = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".libs/*openblas*")]
    for path in [np.linalg._umath_linalg.__file__, *sorted(map(str, bundled))]:
        found = _pt_symbols(path)
        if found is not None:
            return found
    return None


_DPTTRS = _openblas_pt()
HEAT_BACKEND = "python recurrence" if _DPTTRS is None else "lapack ?pttrs"


def _solution_buffer(factor: _LDLt, rhs, order: str) -> np.ndarray:
    """A new float copy of rhs (n,) or (n, B) in the given memory order."""
    x = np.array(rhs, dtype=np.float64, order=order)
    if x.ndim > 2 or x.shape[:1] != factor.d.shape:
        raise ValueError(f"rhs must be (n,) or (n, B) with n = {factor.d.size}, got {x.shape}")
    return x


def _lapack_pttrs(factor: _LDLt, rhs) -> np.ndarray:
    """?pttrs into a new (n,) or Fortran-ordered (n, B) array; drops the GIL."""
    x = _solution_buffer(factor, rhs, "F")
    if x.size:
        nref, dref, eref = factor.refs
        info = ctypes.c_int64()
        _DPTTRS(nref, ctypes.byref(ctypes.c_int64(x.size // x.shape[0])), dref, eref,
                ctypes.byref(ctypes.c_double.from_buffer(x.T)), nref, ctypes.byref(info))
        if info.value != 0:
            raise np.linalg.LinAlgError(f"?pttrs rejected its arguments (info = {info.value})")
    return x


def _numpy_pttrf(d: np.ndarray, e: np.ndarray) -> _LDLt:
    """?pttrf's recurrence in numpy, the same operations in the same order."""
    for i in range(d.size - 1):
        ei = e[i]
        e[i] = ei / d[i]
        d[i + 1] = d[i + 1] - e[i] * ei
    if not np.all(d > 0):
        raise np.linalg.LinAlgError("I - dt*L is not positive definite")
    return _LDLt(d, e)


# below this many columns, Python floats a column at a time (~12 us for 63
# unknowns) beat numpy a row at a time (~250 ufunc calls, 0.15-0.3 ms)
_ROW_SWEEP_MIN = 12


def _numpy_pttrs(factor: _LDLt, rhs) -> np.ndarray:
    """?pttrs's column recurrence (LAPACK dptts2 order) in Python floats or numpy rows.

    Both round each operation as LAPACK does, so both give its bits; Python
    float arithmetic, like np.errstate(all="ignore"), passes inf/NaN silently.
    """
    n = factor.d.size
    x = _solution_buffer(factor, rhs, "C")  # rows contiguous across the columns
    if x.size < _ROW_SWEEP_MIN * n:
        d, e = factor.d.tolist(), factor.e.tolist()
        cols = x.ravel(order="F").tolist()  # the columns back to back
        out = []
        for j in range(0, len(cols), n):
            b = cols[j:j + n]
            for i in range(1, n):
                b[i] = b[i] - b[i - 1] * e[i - 1]
            b[-1] = b[-1] / d[-1]
            for i in range(n - 2, -1, -1):
                b[i] = b[i] / d[i] - b[i + 1] * e[i]
            out += b
        return np.reshape(np.array(out, dtype=np.float64), x.shape, order="F")
    e = factor.e.tolist()
    rows, tmp = list(x), np.empty(x.shape[1])
    with np.errstate(all="ignore"):  # inf/NaN stay in their column, silently
        for i in range(1, n):
            np.subtract(rows[i], np.multiply(rows[i - 1], e[i - 1], out=tmp), out=rows[i])
        np.divide(x, factor.d[:, None], out=x)  # each row's x[i] / d[i], all at once
        for i in range(n - 2, -1, -1):
            np.subtract(rows[i], np.multiply(rows[i + 1], e[i], out=tmp), out=rows[i])
    return np.asfortranarray(x)  # the layout the LAPACK route returns


_pttrs = _numpy_pttrs if _DPTTRS is None else _lapack_pttrs


@functools.lru_cache
def heat_factor(g: Grid):
    """LDL^T factor of I - dt*L (Dirichlet tridiagonal Laplacian), opaque.

    ?pttrf's recurrence on the diagonal 1 + 2*dt/dx^2 and off-diagonal
    -dt/dx^2, in numpy on every install, so the factor's bits never depend
    on the solve route; the matrix is symmetric positive definite for every
    dt > 0.  Cached per grid: callers share one factor, which ?pttrs only
    reads.
    """
    lam = g.dt / g.dx**2
    return _numpy_pttrf(np.full(g.nx - 1, 1.0 + 2.0 * lam), np.full(g.nx - 2, -lam))


def heat_solve(factor, rhs):
    """Solve (I - dt*L) x = rhs for rhs (n,) or (n, B) into a new array.

    ?pttrs runs each column through the same scalar recurrence, so a
    column's result does not depend on the others; inf/NaN propagate into
    their own column without raising.  The LAPACK route releases the GIL,
    so threads solve at the same time; the Python fallback gives equal bits.
    """
    return _pttrs(factor, rhs)


def _central_difference(q: np.ndarray, dx: float) -> np.ndarray:
    """Central difference of full-lattice data (..., nx+1) at the interior nodes."""
    return (q[..., 2:] - q[..., :-2]) / (2.0 * dx)


def flux_divergence(u_full: np.ndarray, dx: float) -> np.ndarray:
    """Central conservative divergence of the Burgers flux u^2/2 at interior nodes."""
    return _central_difference(0.5 * u_full**2, dx)


def _march(g: Grid, state: np.ndarray, rhs, solve=heat_solve):
    """Semi-implicit steps k = 0..nt-1 from `state`; yields (k + 1, u^{k+1}).

    The state is (nx+1,) or (B, nx+1) on the full lattice, zero at the
    walls.  rhs(k, u) gives the interior right-hand side, solve(factor, rhs)
    the new interior with g's heat factor; each yielded state is the
    engine's one buffer, overwritten by the next step.  No guard.  Other
    modules pass their own heat_solve binding as `solve`.
    """
    factor = heat_factor(g)
    u = np.array(state, dtype=np.float64)
    for k in range(g.nt):
        u[..., 1:-1] = solve(factor, rhs(k, u).T).T
        yield k + 1, u


def _frames(u0_vals: np.ndarray, g: Grid, rhs, solve=heat_solve) -> np.ndarray:
    """All nt+1 frames of one path marched from u0_vals."""
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[0] = u0_vals
    with np.errstate(over="ignore", invalid="ignore"):
        for n, u in _march(g, frames[0], rhs, solve):
            frames[n] = u
    return frames


def _spde_steps(g: Grid, U: np.ndarray, eps_values, sigma, increments, solve=heat_solve):
    """Stochastic Burgers steps of U (E*B, nx+1), rows eps-major; yields (n, U, U**2), n = 0..nt.

    increments gives each step's noise, broadcastable to (E, B, nx-1), so one
    (B, nx-1) sheet slice drives every eps; the next step overwrites what is
    yielded.  A row's bits do not depend on the batch: every operation is
    elementwise or per row, the heat solve per column.
    """
    E, dW = len(eps_values), iter(increments)
    sqrt_eps = np.sqrt(np.asarray(eps_values, dtype=float))[:, None, None]
    sq = U**2
    half_sq, out = np.empty_like(sq), np.empty((U.shape[0], g.nx - 1))

    def rhs(k, U):
        noise = sigma(U[:, 1:-1]).reshape(E, -1, g.nx - 1)  # a fresh array
        np.multiply(sqrt_eps, noise, out=noise)
        np.multiply(noise, next(dW), out=noise)
        np.divide(noise, g.dx, out=noise)
        np.multiply(0.5, sq, out=half_sq)  # the flux u^2/2
        np.subtract(half_sq[:, 2:], half_sq[:, :-2], out=out)
        np.divide(out, 2.0 * g.dx, out=out)
        np.multiply(g.dt, out, out=out)
        np.add(U[:, 1:-1], out, out=out)
        return np.add(out, noise.reshape(U.shape[0], -1), out=out)

    yield 0, U, sq
    for n, U in _march(g, U, rhs, solve):
        yield n, U, np.square(U, out=sq)


def _guarded(frames: np.ndarray, g: Grid) -> SpaceTimeField:
    """The finished path, or InstabilityError at its first frame past SUP_GUARD."""
    sups = np.abs(frames[1:]).max(axis=1)
    bad = np.flatnonzero(~(sups <= SUP_GUARD))
    if bad.size:
        step = int(bad[0]) + 1
        raise InstabilityError(step, step * g.dt, float(sups[bad[0]]))
    return SpaceTimeField(frames, g)


def _check_base(u0: SpaceField, g: Grid, u_det: SpaceTimeField) -> None:
    """DimensionError or ValueError unless u_det lives on g and starts at u0."""
    same_grid(g, u0=u0, u_det=u_det)
    if not np.array_equal(u_det.frames[0], u0.values):
        raise ValueError("u_det does not start from the supplied initial condition")


def solve_deterministic(
    u0: SpaceField, g: Grid, cfg: SolverConfig = DEFAULT_SOLVER
) -> SpaceTimeField:
    """Viscous Burgers with the noise switched off."""
    same_grid(g, u0=u0)

    def rhs(k, u):
        return u[1:-1] + g.dt * flux_divergence(u, g.dx)

    return _guarded(_frames(u0.values, g, rhs), g)


def solve_spde(
    u0: SpaceField,
    g: Grid,
    eps: float,
    sigma: SigmaSpec,
    w: NoiseSheet,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> SpaceTimeField:
    """Stochastic Burgers driven by sqrt(eps) * sigma(u) * white noise."""
    same_grid(g, u0=u0, w=w)
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    frames = np.empty((g.nt + 1, g.nx + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for n, U, _ in _spde_steps(g, u0.values[None], (eps,), sigma, w.dW):
            frames[n] = U[0]
    return _guarded(frames, g)


def solve_controlled(
    u0: SpaceField,
    g: Grid,
    eps: float,
    schedule,
    sigma: SigmaSpec,
    v: Control,
    w: NoiseSheet,
    cfg: SolverConfig = DEFAULT_SOLVER,
    *,
    u_det: SpaceTimeField | None = None,
) -> SpaceTimeField:
    """Deviation field of the noise-plus-control dynamics, stepped directly.

    `schedule` supplies the deviation scale a(eps) and noise-vs-scale ratio
    h(eps) = a(eps)/sqrt(eps) (any object with those two methods works; the
    deviations module provides ScalingSchedule).  u_det, the base flow, is
    built when absent.

    The recursion is the exact algebraic difference of the shifted-noise
    solver and the deterministic solver, rescaled by a(eps):

        ubar^{k+1} = M^{-1}[ ubar^k + dt*Dx(u0_k*ubar^k + (a/2)*(ubar^k)^2)
                             + (1/h)*sigma(u_k)*dW_k/dx
                             + dt*sigma(u_k)*v_k ],   u_k = udet_k + a*ubar^k,

    so it coincides pathwise with
    deviation_field(solve_spde(girsanov_shift(w, v, h)), solve_deterministic)
    up to floating-point rounding.
    """
    same_grid(g, u0=u0, w=w, v=v)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    a_val = float(schedule.a(eps))
    h_val = float(schedule.h(eps))
    if u_det is None:
        u_det = solve_deterministic(u0, g, cfg)
    _check_base(u0, g, u_det)
    udet = u_det.frames

    def rhs(k, ubar):
        div = _central_difference(udet[k] * ubar + 0.5 * a_val * ubar**2, g.dx)
        sig = sigma(udet[k][1:-1] + a_val * ubar[1:-1])
        noise = sig * w.dW[k] / (h_val * g.dx)
        return ubar[1:-1] + g.dt * div + noise + g.dt * sig * v.values[k]

    return _guarded(_frames(np.zeros(g.nx + 1), g, rhs), g)


@dataclass(frozen=True)
class SkeletonContext:
    """Frozen ingredients of the skeleton's linear response map around one base flow.

    Carries the initial data, the grid, the noise coefficient, the base
    flow u_det and the per-step coefficients of the skeleton equation
    (module docstring), so repeated sweeps share all setup work.  Built
    only by _linearise.
    """

    u0: SpaceField
    grid: Grid
    sigma: SigmaSpec
    u_det: SpaceTimeField
    _transport: np.ndarray  # (nt+1, nx+1): c*u_det of the skeleton equation, full lattice
    _forcing: np.ndarray  # (nt, nx-1): sigma(u_det) on interior nodes

    @classmethod
    def build(
        cls,
        u0: SpaceField,
        g: Grid,
        sigma: SigmaSpec,
        cfg: SolverConfig = DEFAULT_SOLVER,
    ) -> "SkeletonContext":
        return _linearise(u0, g, sigma, solve_deterministic(u0, g, cfg))


def _linearise(
    u0: SpaceField, g: Grid, sigma: SigmaSpec, u_det: SpaceTimeField
) -> SkeletonContext:
    """The skeleton's coefficients along u_det, which must start at u0; the
    transport covers frames 0..nt, for the forward and the adjoint sweep."""
    _check_base(u0, g, u_det)
    return SkeletonContext(
        u0=u0,
        grid=g,
        sigma=sigma,
        u_det=u_det,
        _transport=SKELETON_TRANSPORT * u_det.frames,
        _forcing=sigma(u_det.frames[:-1, 1:-1]),
    )


def _skeleton_frames(ctx: SkeletonContext, v_values, solve):
    """Frames 0..nt of the skeleton equation (module docstring) forced by v_values.

    solve_skeleton and the rate function's forward map share this sweep;
    each passes its own heat_solve binding as `solve`.
    """
    g, transport, forcing = ctx.grid, ctx._transport, ctx._forcing

    def rhs(k, ubar):
        div = _central_difference(transport[k] * ubar, g.dx)
        return ubar[1:-1] + g.dt * (div + forcing[k] * v_values[k])

    return _frames(np.zeros(g.nx + 1), g, rhs, solve)


def _skeleton_adjoint(ctx: SkeletonContext, field_int: np.ndarray, solve) -> np.ndarray:
    """Adjoint of the forward sweep on frames 1..nt, interior nodes.

    Both sides pair with ht_dot, so the adjoint is the plain Euclidean
    transpose: _march runs it backward in time from psi_nt = 0, step k
    solving (I - dt*L) psi_k = psi_{k+1} - dt*c*u_det,k+1*Dx psi_{k+1} + f_k.
    The centered flux divergence with wall padding is skew-symmetric, so its
    transpose is its negative; I - dt*L is symmetric, so its inverse
    transposes to the same heat solve, `solve` as in _skeleton_frames.
    """
    g, transport = ctx.grid, ctx._transport
    out = np.empty((g.nt, g.nx - 1))

    def rhs(j, psi):  # march step j is time step k = nt - 1 - j, psi is psi_{k+1}
        k = g.nt - 1 - j
        dpsi = _central_difference(psi, g.dx)
        return psi[1:-1] - g.dt * transport[k + 1][1:-1] * dpsi + field_int[k]

    for n, psi in _march(g, np.zeros(g.nx + 1), rhs, solve):
        out[g.nt - n] = g.dt * ctx._forcing[g.nt - n] * psi[1:-1]
    return out


# np.pad widths that put interior frames 1..nt back on the full lattice:
# the zero frame 0 and the zero walls, as sup_t_l2 expects
_FULL_LATTICE = ((1, 0), (1, 1))


def _skeleton_preimage(ctx: SkeletonContext, target: np.ndarray) -> np.ndarray:
    """Control whose response is the target (frames 1..nt, interior), all steps at once.

    Step k of the forward sweep, the skeleton equation of the module
    docstring, is
    (I − dt·L) f_{k+1} = f_k + dt·(Dx(c·u_det,k·f_k) + sigma(u_det,k)·v_k),
    so v_k follows from two consecutive target frames, with the Dirichlet
    Laplacian applied as a tridiagonal matvec.  Where sigma(u_det,k) is 0
    the control has no effect and the least-norm choice v_k = 0 is taken;
    whether the step equation then holds there is left to the forward check.
    """
    g = ctx.grid
    frames = np.pad(target, _FULL_LATTICE)
    new, old = frames[1:], frames[:-1]
    heat = new[:, 1:-1] - g.dt / g.dx**2 * (new[:, :-2] - 2.0 * new[:, 1:-1] + new[:, 2:])
    div = _central_difference(ctx._transport[:-1] * old, g.dx)
    step = heat - old[:, 1:-1] - g.dt * div
    with np.errstate(over="ignore"):
        return np.divide(
            step, g.dt * ctx._forcing, out=np.zeros_like(step), where=ctx._forcing != 0.0
        )


def solve_skeleton(
    u0: SpaceField,
    g: Grid,
    v: Control,
    sigma: SigmaSpec,
    u_det: SpaceTimeField,
) -> SpaceTimeField:
    """Zero-noise skeleton: PDE stepping of the skeleton equation (module docstring).

    Linear transport around u_det forced by v; linear in v by construction.
    """
    same_grid(g, u0=u0, v=v)
    return _guarded(_skeleton_frames(_linearise(u0, g, sigma, u_det), v.values, heat_solve), g)


# ------------------------------------------------------- fixed-point solver


@dataclass(frozen=True)
class FixedPointResult:
    """Fixed point of the mild-form map plus its observed contraction."""

    field: SpaceTimeField
    ratios: tuple
    iterations: int


def _sine_basis(g: Grid) -> tuple:
    """The N = nx - 1 sine modes of the interior lattice; more only alias.

    Returns (lam, synth, proj_G, proj_dG) with lam_n = (n pi)^2 and, over
    interior nodes, synth = 2 sin(n pi x), proj_G = sin(n pi y) dx and
    proj_dG = n pi cos(n pi y) dx, so that K_tau(x_i, y_j) dx is
    sum_n synth[i, n] e^(-lam_n tau) proj[j, n] for K = G and K = d_yG.
    """
    npi = np.pi * np.arange(1, g.nx)
    phase = np.outer(g.x_interior(), npi)
    return npi**2, 2.0 * np.sin(phase), np.sin(phase) * g.dx, np.cos(phase) * npi * g.dx


def solve_skeleton_fixed_point(
    u0: SpaceField,
    g: Grid,
    v: Control,
    sigma: SigmaSpec,
    u_det: SpaceTimeField,
    cfg: SolverConfig = DEFAULT_SOLVER,
) -> FixedPointResult:
    """Skeleton via the contraction mapping of its mild form.

    Iterates w <- A(w), the right-hand side of the mild form in the module
    docstring, from w = 0 until the sup_t L2 update drops below cfg.fp_tol.
    Each history integral is projected onto the sine modes of _sine_basis
    (N = nx - 1, set by the grid), mode n weighted by sum_q wr_q
    e^(-lam_n tau_q) over a 32-node Gauss rule in r = sqrt(t_k - s) (the
    Jacobian 2r cancels the kernel's endpoint singularity), and summed
    back; w*u_det is linear in time between frames, sigma(u_det)*v is held
    at each step's left end.
    Raises ContractionFailureError after cfg.fp_max_iter sweeps; on long
    horizons, split [0, T] and concatenate windows instead.
    """
    same_grid(g, u0=u0, v=v)
    ctx = _linearise(u0, g, sigma, u_det)

    lam, synth, proj_G, proj_dG = _sine_basis(g)
    nodes, wts = gauss_legendre(32)
    tk = (np.arange(1, g.nt + 1) * g.dt)[:, None]
    r = 0.5 * np.sqrt(tk) * (nodes + 1.0)  # (nt, 32), every t_k at once
    wr = 0.5 * np.sqrt(tk) * wts * 2.0 * r
    pos = np.minimum((tk - r * r) / g.dt, g.nt - 1e-12)
    m = pos.astype(int)
    theta = pos - m

    def integrate(coeffs, interpolate):
        acc = np.zeros((g.nt, lam.size))
        for q in range(nodes.size):
            hist = coeffs[m[:, q]]
            if interpolate:
                th = theta[:, q, None]
                hist = (1.0 - th) * hist + th * coeffs[m[:, q] + 1]
            acc += wr[:, q, None] * _exp(-np.outer(r[:, q] ** 2, lam)) * hist
        return acc @ synth.T

    b = integrate((ctx._forcing * v.values) @ proj_G, False)

    def sweep(w):
        out = np.zeros_like(w)
        prod = (w * u_det.frames)[:, 1:-1] @ proj_dG
        out[1:, 1:-1] = -SKELETON_TRANSPORT * integrate(prod, True) + b
        return out

    w_frames = np.zeros((g.nt + 1, g.nx + 1))
    ratios = []
    prev_update = None
    for it in range(1, cfg.fp_max_iter + 1):
        w_next = sweep(w_frames)
        update = sup_t_l2(w_next - w_frames, g)
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
