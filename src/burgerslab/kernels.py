"""Dirichlet heat kernel on [0,1]: dual-series evaluation and estimate checks.

Two representations of the same kernel: a sine (spectral) series, efficient
for large times, and a method-of-images sum of line Gaussians, efficient for
small times.  Every evaluator takes the image sum up to SWITCH_TIME = 0.05
and the sine series above it; a tail rule sizes each series to its worst
time in the call, which needs at most 3 images a side or 11 sine modes.
When every t of a call lies on one side (always, for a scalar t), that one
series runs on the unbroadcast t, x, y and only its result is broadcast;
a call with t on both sides evaluates each side on its gathered points.
Both routes see the same operands in the same order, so the bits agree.

`verify_kernel_estimates` re-measures the classical kernel bounds used by
the moderate-deviation analysis (mass, gradient integrability, time- and
space-increment exponents), collapsing inner space integrals exactly with
the semigroup identity  int_0^1 G_a(x,y) G_b(x,z) dx = G_{a+b}(y,z).  The
gradient L^beta integrals of every beta share one set of gradient samples,
and Gauss-Legendre rules come from one cache of read-only arrays.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid

__all__ = [
    "SWITCH_TIME",
    "KernelDomainError",
    "eval_G",
    "eval_dG_dy",
    "kernel_mass",
    "EstimateItem",
    "EstimateReport",
    "verify_kernel_estimates",
]

SWITCH_TIME = 0.05  # image sum below, sine series above

# the C library's erf, elementwise; only the mass check's probe arrays take it
_erf = np.vectorize(math.erf, otypes=[float])

# informational mass-defect item: reported by the checker, never a failure
MASS_DEFECT_ITEM = "i"


class KernelDomainError(ValueError):
    """Kernel evaluated outside its domain (t must be positive)."""


def _check_t(t) -> np.ndarray:
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(t_arr <= 0.0) or not np.all(np.isfinite(t_arr)):
        raise KernelDomainError(f"kernel time must be positive and finite, got {t}")
    return t_arr


def _spectral_G(t, x, y, n_terms, deriv=False):
    """Sine series; t, x, y broadcastable arrays (series axis appended)."""
    n = np.arange(1, n_terms + 1, dtype=float)
    npi = n * np.pi
    decay = np.exp(-np.multiply.outer(t, npi**2))
    sx = np.sin(np.multiply.outer(x, npi))
    if deriv:
        sy = np.cos(np.multiply.outer(y, npi)) * npi
    else:
        sy = np.sin(np.multiply.outer(y, npi))
    return 2.0 * np.sum(decay * sx * sy, axis=-1)


def _image_G(t, x, y, n_terms, deriv=False):
    """Method-of-images sum; t, x, y broadcastable arrays."""
    n = 2.0 * np.arange(-n_terms, n_terms + 1, dtype=float)
    z1 = np.subtract.outer(np.asarray(x - y, dtype=float), n)
    z2 = np.subtract.outer(np.asarray(x + y, dtype=float), n)
    t4 = 4.0 * np.asarray(t, dtype=float)[..., None]
    pref = 1.0 / np.sqrt(np.pi * t4)
    p1 = pref * np.exp(-z1**2 / t4)
    p2 = pref * np.exp(-z2**2 / t4)
    if deriv:
        # d/dy of p(x-y-2n) is +(z1/2t) p(z1); of p(x+y-2n) is -(z2/2t) p(z2)
        return np.sum((2.0 * z1 / t4) * p1 + (2.0 * z2 / t4) * p2, axis=-1)
    return np.sum(p1 - p2, axis=-1)


def _spectral_mass(t, y, n_terms):
    """Term-wise x-integral of the sine series: only odd modes carry mass."""
    n = np.arange(1, n_terms + 1, dtype=float)
    npi = n[n % 2 == 1] * np.pi
    decay = np.exp(-np.multiply.outer(t, npi**2))
    sy = np.sin(np.multiply.outer(y, npi))
    return np.sum(decay * sy * (4.0 / npi), axis=-1)


def _image_mass(t, y, n_terms):
    """Term-wise x-integral of the image sum, one erf pair per image."""
    # int_0^1 p_t(x - a) dx = (erf((1-a)/2sqrt(t)) + erf(a/2sqrt(t)))/2
    rt2 = 2.0 * np.sqrt(t)[..., None]
    n = 2.0 * np.arange(-n_terms, n_terms + 1, dtype=float)
    a1 = np.add.outer(y, n)  # y + 2n
    a2 = -np.subtract.outer(y, n)  # 2n - y
    m1 = 0.5 * (_erf((1.0 - a1) / rt2) + _erf(a1 / rt2))
    m2 = 0.5 * (_erf((1.0 - a2) / rt2) + _erf(a2 / rt2))
    return np.sum(m1 - m2, axis=-1)


def _spectral_terms(t_min: float) -> int:
    # the first dropped mode weighs at most 2 exp(-36) ~ 5e-16 once
    # N >= 6/(pi sqrt(t)); at most 11 modes for t > SWITCH_TIME
    return int(np.ceil(6.0 / (np.pi * np.sqrt(t_min)))) + 2


def _image_terms(t_max: float) -> int:
    # nearest dropped image sits at distance >= 2n - 1; keep (2n-1)^2/(4t) > 40;
    # at most 3 images a side up to SWITCH_TIME
    return int(np.ceil(0.5 * (np.sqrt(160.0 * t_max) + 1.0))) + 1


def _switched(image, spectral, t, *args, **kwargs):
    """image(t, *args, n) up to SWITCH_TIME, spectral(t, *args, n) above it.

    Each side takes the term count its tail rule asks for at its worst t.
    When every t lies on one side, that series runs once on the unbroadcast
    arguments; otherwise each side runs on its gathered points.  Scalar
    inputs give a float, array inputs a fresh array of their broadcast shape.
    """
    t_arr = _check_t(t)
    arrs = [np.asarray(a, dtype=float) for a in args]
    shape = np.broadcast_shapes(np.shape(t), *(a.shape for a in arrs))

    def side(small, ts, *rest):
        if small:
            return image(ts, *rest, _image_terms(ts.max()), **kwargs)
        return spectral(ts, *rest, _spectral_terms(ts.min()), **kwargs)

    small = t_arr <= SWITCH_TIME
    if small.all() or not small.any():
        one = side(small[0], np.asarray(t, dtype=float), *arrs)
        out = np.broadcast_to(one, shape).copy()
    else:
        tb, *rest = np.broadcast_arrays(t_arr, *arrs)
        out = np.empty(tb.shape)
        pick = tb <= SWITCH_TIME
        out[pick] = side(True, tb[pick], *(a[pick] for a in rest))
        out[~pick] = side(False, tb[~pick], *(a[~pick] for a in rest))
        out = out.reshape(shape)
    if np.isscalar(t) and all(np.isscalar(a) for a in args):
        return float(out)
    return out


def eval_G(t, x, y):
    """Dirichlet heat kernel G_t(x, y); t > 0, x and y in [0, 1]."""
    return _switched(_image_G, _spectral_G, t, x, y)


def eval_dG_dy(t, x, y):
    """d/dy G_t(x, y), term by term from the series eval_G uses at that t."""
    return _switched(_image_G, _spectral_G, t, x, y, deriv=True)


def kernel_mass(t, y):
    """Closed-form int_0^1 G_t(x, y) dx (term-wise integral of the series)."""
    return _switched(_image_mass, _spectral_mass, t, y)


# ------------------------------------------------------------------ checks


@dataclass(frozen=True)
class EstimateItem:
    """One measured kernel bound: value, what it should be, verdict."""

    item: str
    measured: float
    expected: object  # number, or "finite"
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "item": self.item,
            "measured": self.measured,
            "expected": self.expected,
            "pass": bool(self.passed),
        }


@dataclass(frozen=True)
class EstimateReport:
    items: tuple

    def __getitem__(self, key: str) -> EstimateItem:
        for it in self.items:
            if it.item == key:
                return it
        raise KeyError(key)

    def all_pass(self) -> bool:
        """Every item passed, the informational mass defect aside."""
        return all(it.passed for it in self.items if it.item != MASS_DEFECT_ITEM)

    def to_json_list(self) -> list:
        return [it.to_json_dict() for it in self.items]


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1] as read-only (nodes, weights)."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _gauss(n: int, a: float, b: float):
    xs, ws = gauss_legendre(n)
    return 0.5 * (b - a) * xs + 0.5 * (a + b), 0.5 * (b - a) * ws


def _diag_time_integral(delta: float, y: float, z: float) -> float:
    """int_0^delta G_{2 tau}(y, z) d tau via the r = sqrt(tau) substitution."""
    r, wr = _gauss(64, 0.0, float(np.sqrt(delta)))
    return float(np.sum(wr * 2.0 * r * eval_G(2.0 * r**2, y, z)))


def _loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def _grad_lbeta(t: float, y: float, betas: tuple) -> tuple:
    """int_0^t int_0^1 |d_x G_tau(x, y)|^beta dx dtau, for each beta in betas.

    Split at delta = 1e-3: below it the boundary images are < 1e-10 and the
    exact whole-line scaling |d_x p|_beta^beta = C_beta tau^(1/2 - beta)
    integrates in closed form; above it, Gauss quadrature in sqrt(tau) with
    a trapezoid x-integral resolving the sqrt(tau)-wide kernel.  Every beta
    reads the same gradient samples, one eval_dG_dy call per Gauss node.
    """
    delta = min(1e-3, 0.5 * t)
    w = np.linspace(-12.0, 12.0, 4801)
    gw = np.abs(w / 2.0) * np.exp(-(w**2) / 4.0) / np.sqrt(4.0 * np.pi)
    heads = [np.trapezoid(gw**beta, w) * delta ** (1.5 - beta) / (1.5 - beta)
             for beta in betas]

    xg = np.linspace(0.0, 1.0, 2001)
    wq = np.full(xg.size, xg[1] - xg[0])
    wq[0] = wq[-1] = 0.5 * (xg[1] - xg[0])

    r, wr = _gauss(48, float(np.sqrt(delta)), float(np.sqrt(t)))
    tails = [0.0] * len(betas)
    for ri, wi in zip(r, wr):
        # d_x G_tau(x, y) = d_y G_tau(y, x) by symmetry of the series in (x, y)
        grad = np.abs(eval_dG_dy(ri**2, y, xg))
        for k, beta in enumerate(betas):
            tails[k] += wi * 2.0 * ri * float(np.dot(wq, grad**beta))
    return tuple(head + tail for head, tail in zip(heads, tails))


def verify_kernel_estimates(g: Grid) -> EstimateReport:
    """Re-measure the kernel estimates behind the deviation bounds.

    The report is a function of the grid's T and dt alone: T sets the time
    horizon, dt the smallest probed time, and every kernel value comes from
    the time-switched evaluators above.  Space integrals inside items
    (iii)-(v) are collapsed exactly by the semigroup identity, leaving 1-D
    time quadratures.  Items:

    - "i": sup over a probe lattice of the mass defect |1 - int G_t dx|.
      Informational: the Dirichlet kernel genuinely loses mass through the
      walls, so this records the defect instead of asserting mass 1.
    - "i-limit": mass(1e-4, 0.5), which must be within 1e-6 of 1.
    - "ii-beta-*": gradient integrability values (finite).
    - "iii-exponent": exponent of int_t^t' |G_{t'-s}|_2^2 ds in t'-t (~1/2).
    - "iii-bound": sup over t in [0.1, 1] of int_0^t |G_{t-s}|_2^2 ds;
      its t -> infinity limit is the Dirichlet Green diagonal y(1-y)/2.
    - "iv-exponent": exponent of the time-increment variance in t'-t (~1/2).
    - "v-exponent": exponent of the space-increment variance in |y-z| (~1).
    """
    horizon = min(1.0, g.T)
    items = []

    # (i) mass defect over a probe lattice + delta limit
    t_probe = np.geomspace(max(1e-4, g.dt), g.T, 12)
    y_probe = np.linspace(0.1, 0.9, 9)
    mass = kernel_mass(t_probe[:, None], y_probe[None, :])
    defect = float(np.max(np.abs(1.0 - mass)))
    items.append(EstimateItem(MASS_DEFECT_ITEM, defect, 0.0, defect <= 1e-6))
    mlim = kernel_mass(1e-4, 0.5)
    items.append(EstimateItem("i-limit", mlim, 1.0, abs(mlim - 1.0) <= 1e-6))

    # (ii) gradient L^beta integrals, beta inside (1/2, 3/2)
    betas = (1.0, 1.4)
    per_y = [_grad_lbeta(horizon, y, betas) for y in (0.3, 0.5, 0.7)]
    for beta, vals in zip(betas, zip(*per_y)):
        val = max(vals)
        items.append(
            EstimateItem(f"ii-beta-{beta}", val, "finite", bool(np.isfinite(val)))
        )

    # (iii) squared-kernel tail: exponent in t'-t, and uniform bound in t
    y0 = 0.5
    deltas = np.geomspace(0.01, 0.1, 8) * horizon
    tail_vals = [_diag_time_integral(d, y0, y0) for d in deltas]
    slope3 = _loglog_slope(deltas, tail_vals)
    items.append(EstimateItem("iii-exponent", slope3, 0.5, abs(slope3 - 0.5) <= 0.1))

    bound_ts = np.linspace(0.1, 1.0, 10) * horizon
    bound3 = max(_diag_time_integral(t, y0, y0) for t in bound_ts)
    limit = y0 * (1.0 - y0) / 2.0
    items.append(EstimateItem("iii-bound", bound3, limit, bound3 <= limit * 1.05))

    # (iv) time-increment variance exponent at fixed t
    t_fix = 0.3 * horizon
    r, wr = _gauss(96, 0.0, float(np.sqrt(t_fix)))
    tau = 2.0 * r**2
    g_y0 = eval_G(tau, y0, y0)
    vals4 = []
    for d, tail in zip(deltas, tail_vals):
        diff = g_y0 - 2.0 * eval_G(tau + d, y0, y0) + eval_G(tau + 2.0 * d, y0, y0)
        vals4.append(float(np.sum(wr * 2.0 * r * diff)) + tail)
    slope4 = _loglog_slope(deltas, vals4)
    items.append(EstimateItem("iv-exponent", slope4, 0.5, abs(slope4 - 0.5) <= 0.1))

    # (v) space-increment variance exponent
    y1 = 0.45
    etas = np.geomspace(0.01, 0.1, 8)
    g_y1 = eval_G(tau, y1, y1)
    vals5 = []
    for eta in etas:
        z1 = y1 + eta
        diff = g_y1 - 2.0 * eval_G(tau, y1, z1) + eval_G(tau, z1, z1)
        vals5.append(float(np.sum(wr * 2.0 * r * diff)))
    slope5 = _loglog_slope(etas, vals5)
    items.append(EstimateItem("v-exponent", slope5, 1.0, abs(slope5 - 1.0) <= 0.1))

    return EstimateReport(tuple(items))
