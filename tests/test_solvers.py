"""Tests for the semi-implicit solver family."""
import _ctypes
import ctypes
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from burgerslab.grids import (
    Control,
    DimensionError,
    Grid,
    SpaceField,
    SpaceTimeField,
    ht_norm,
    sup_t_l2,
)
from burgerslab.kernels import eval_G, eval_dG_dy
from burgerslab.noise import NoiseSheet, SeedSpec, girsanov_shift, sample_sheet
from burgerslab.solvers import (
    ContractionFailureError,
    InstabilityError,
    SigmaSpec,
    SolverConfig,
    heat_factor,
    heat_solve,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_skeleton_fixed_point,
    solve_spde,
)
from burgerslab import solvers
from burgerslab.solvers import _sine_basis
from burgerslab.deviations import ScalingSchedule, deviation_field
from burgerslab.ratefn import (
    SkeletonContext,
    _exact_preimage,
    apply_adjoint,
    apply_forward,
    rate_value,
)


def sin_field(g, amp=1.0):
    return SpaceField.sample(g, lambda x: amp * np.sin(np.pi * x))


def diff_sup(a, b, g):
    return sup_t_l2(SpaceTimeField(a.frames - b.frames, g), g)


# ---------------------------------------------------------------- SigmaSpec


class TestSigmaSpec:
    def test_constant(self):
        sig = SigmaSpec.constant(-2.5)
        u = np.linspace(-3, 3, 7)
        assert np.array_equal(sig(u), np.full(7, -2.5))
        assert sig.bound == 2.5
        assert sig.lipschitz == 0.0

    def test_cosine(self):
        sig = SigmaSpec.cosine(1.5)
        u = np.linspace(-2, 2, 9)
        assert np.allclose(sig(u), 1.5 * np.cos(u))
        assert sig.bound == 1.5
        assert sig.lipschitz == 1.5

    def test_tabulated_matches_interp(self):
        xs = (-1.0, 0.0, 0.5, 2.0)
        ys = (0.3, 1.0, 0.4, 0.4)
        sig = SigmaSpec.tabulated(xs, ys)
        u = np.linspace(-2, 3, 21)
        assert np.array_equal(sig(u), np.interp(u, xs, ys))
        assert sig.bound == 1.0
        assert sig.lipschitz == pytest.approx(1.2)  # |0.4 - 1.0| / 0.5

    def test_sampled_invariants(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-5, 5, size=200)
        y = rng.uniform(-5, 5, size=200)
        for sig in (
            SigmaSpec.constant(0.7),
            SigmaSpec.cosine(2.0),
            SigmaSpec.tabulated((-1.0, 0.0, 1.0), (0.2, 0.9, 0.1)),
        ):
            assert np.all(np.abs(sig(x)) <= sig.bound + 1e-12)
            assert np.all(
                np.abs(sig(x) - sig(y)) <= sig.lipschitz * np.abs(x - y) + 1e-12
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            SigmaSpec(kind="bogus", params=(), bound=1.0, lipschitz=1.0)
        with pytest.raises(ValueError):
            SigmaSpec.tabulated((0.0, 1.0), (1.0,))
        with pytest.raises(ValueError):
            SigmaSpec.tabulated((0.0, 0.0), (1.0, 1.0))


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert 0 < cfg.fp_tol <= 1e-3
        assert cfg.fp_max_iter >= 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fp_tol": -1e-4},
            {"fp_max_iter": 9},
            {"fp_tol": 0.0},
            {"fp_tol": 2e-3},
            {"fp_max_iter": 5},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


# ------------------------------------------------------------- heat solve


def dense_heat(g):
    """I - dt*L on the interior nodes, written out in full."""
    lam = g.dt / g.dx**2
    n = g.nx - 1
    return (1.0 + 2.0 * lam) * np.eye(n) - lam * (np.eye(n, k=1) + np.eye(n, k=-1))


HEAT_GRIDS = [Grid(nx=4, nt=8, T=1.0), Grid(nx=64, nt=256, T=1.0)]


class TestHeatSolve:
    @pytest.mark.parametrize("g", HEAT_GRIDS, ids=["nx4", "default"])
    @pytest.mark.parametrize("width", [None, 1, 9])
    def test_residual_against_dense_matrix(self, g, width):
        rng = np.random.default_rng(11)
        shape = (g.nx - 1,) if width is None else (g.nx - 1, width)
        rhs = rng.standard_normal(shape)
        x = heat_solve(heat_factor(g), rhs)
        assert x.shape == rhs.shape
        res = np.abs(dense_heat(g) @ x - rhs).max(axis=0)
        assert np.all(res <= 1e-13 * np.abs(rhs).max(axis=0))

    @pytest.mark.parametrize("g", HEAT_GRIDS, ids=["nx4", "default"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_batch_bitwise_equals_columns(self, g, order):
        rng = np.random.default_rng(12)
        rhs = np.asarray(rng.standard_normal((g.nx - 1, 16)), order=order)
        factor = heat_factor(g)
        batch = heat_solve(factor, rhs)
        for j in range(rhs.shape[1]):
            assert np.array_equal(batch[:, j], heat_solve(factor, rhs[:, j]))
        assert np.array_equal(batch[:, 5:6], heat_solve(factor, rhs[:, 5:6]))
        assert np.array_equal(batch[:, 3:10], heat_solve(factor, rhs[:, 3:10]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_column_isolated(self, bad):
        g = HEAT_GRIDS[1]
        rng = np.random.default_rng(13)
        rhs = rng.standard_normal((g.nx - 1, 5))
        rhs[7, 2] = bad
        factor = heat_factor(g)
        clean = heat_solve(factor, np.delete(rhs, 2, axis=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = heat_solve(factor, rhs)
        assert not np.all(np.isfinite(x[:, 2]))
        assert np.array_equal(np.delete(x, 2, axis=1), clean)

    @pytest.mark.parametrize("width, order", [(None, "C"), (1, "C"), (6, "C"), (6, "F")])
    def test_rhs_not_mutated(self, width, order):
        g = HEAT_GRIDS[1]
        rng = np.random.default_rng(14)
        shape = (g.nx - 1,) if width is None else (g.nx - 1, width)
        rhs = np.asarray(rng.standard_normal(shape), order=order)
        before = rhs.copy()
        x = heat_solve(heat_factor(g), rhs)
        assert np.array_equal(rhs, before)
        assert not np.shares_memory(x, rhs)

    @pytest.mark.skipif(solvers._DPTTRS is None, reason="numpy links no ILP64 OpenBLAS ?pttrs")
    @pytest.mark.parametrize("g", HEAT_GRIDS, ids=["nx4", "default"])
    def test_lapack_and_numpy_routes_equal_bits(self, g):
        # the fallback is the same recurrence in the same order, so every bit agrees
        factor = heat_factor(g)
        rng = np.random.default_rng(15)
        # the fallback runs narrow blocks on Python floats, wide ones on numpy rows
        narrow = solvers._ROW_SWEEP_MIN
        blocks = [rng.standard_normal(g.nx - 1)]
        blocks += [rng.standard_normal((g.nx - 1, width)) for width in (1, narrow - 1, narrow, 64, 256)]
        for width in (6, narrow + 4):
            bad = rng.standard_normal((g.nx - 1, width))
            bad[1, 1], bad[-1, 3], bad[0, 4] = np.inf, -np.inf, np.nan
            bad[:, 5] = 1.7e308 * np.sign(bad[:, 5])  # overflows to inf midway
            blocks.append(bad)
        for rhs in blocks:
            x = solvers._lapack_pttrs(factor, rhs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the fallback sets its own np.errstate
                y = solvers._numpy_pttrs(factor, rhs)
            assert x.shape == y.shape == rhs.shape
            assert x.flags.f_contiguous and y.flags.f_contiguous
            assert x.tobytes(order="A") == y.tobytes(order="A")

    def test_threads_solve_at_once_bitwise(self):
        # more threads than cores share one factor, each with its own width;
        # every result equals that right-hand side's serial solve
        g = HEAT_GRIDS[1]
        factor = heat_factor(g)
        rng = np.random.default_rng(16)
        work = [rng.standard_normal((g.nx - 1, w)) for w in (256, 64, 17)]
        work.append(rng.standard_normal(g.nx - 1))
        serial = [heat_solve(factor, rhs) for rhs in work]
        start = threading.Barrier(len(work))
        results = [[] for _ in work]

        def run(i):
            start.wait()
            for _ in range(200):
                results[i].append(heat_solve(factor, work[i]))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for expected, got in zip(serial, results):
            assert len(got) == 200
            assert all(np.array_equal(x, expected) for x in got)

    def test_bundled_openblas_reached_by_path(self):
        # the Windows route: numpy's bundled library opened by its own path
        # yields the very routines found through the extension's handle
        here = Path(np.__file__).parent
        bundled = [*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".libs/*openblas*")]
        if solvers._DPTTRS is None or not bundled:
            pytest.skip("numpy bundles no ILP64 OpenBLAS here")

        def addr(f):
            return ctypes.cast(f, ctypes.c_void_p).value

        found = [solvers._pt_symbols(str(path)) for path in bundled]
        assert any(f is not None and addr(f) == addr(solvers._DPTTRS) for f in found)

    def test_library_without_pt_routines_not_taken(self, tmp_path):
        assert solvers._pt_symbols(str(tmp_path / "missing.so")) is None
        assert solvers._pt_symbols(solvers.__file__) is None  # not a library
        if getattr(_ctypes, "__file__", None):  # a library with no LAPACK behind it
            assert solvers._pt_symbols(_ctypes.__file__) is None

    @pytest.mark.parametrize("shape", [(5,), (62,), (62, 3), (63, 2, 2), ()])
    def test_wrong_rhs_shape_rejected(self, shape):
        factor = heat_factor(HEAT_GRIDS[1])
        with pytest.raises(ValueError, match="n = 63"):
            heat_solve(factor, np.ones(shape))


# ---------------------------------------------------- deterministic solver


class TestDeterministic:
    def test_zero_initial_data_stays_zero(self):
        g = Grid(nx=32, nt=64, T=1.0)
        out = solve_deterministic(SpaceField.zero(g), g)
        assert np.array_equal(out.frames, np.zeros((g.nt + 1, g.nx + 1)))

    def test_energy_nonincreasing(self):
        g = Grid(nx=128, nt=2048, T=1.0)
        out = solve_deterministic(sin_field(g), g)
        l2s = np.sqrt((out.frames**2) @ g.space_weights())
        assert np.max(np.diff(l2s)) <= 1e-12

    def test_second_order_refinement(self):
        # Richardson: coarse-vs-fine differences shrink by ~4 per halving
        T, nt = 0.5, 4096
        sols = {
            nx: solve_deterministic(
                sin_field(Grid(nx=nx, nt=nt, T=T)), Grid(nx=nx, nt=nt, T=T)
            )
            for nx in (16, 32, 64)
        }

        def gap(nxc):
            gc = Grid(nx=nxc, nt=nt, T=T)
            d = sols[2 * nxc].frames[-1][::2] - sols[nxc].frames[-1]
            return float(np.sqrt((d**2) @ gc.space_weights()))

        ratio = gap(16) / gap(32)
        assert 3.0 < ratio < 5.0

    def test_instability_guard(self):
        g = Grid(nx=64, nt=16, T=1.0)
        huge = sin_field(g, amp=5e5)
        with pytest.raises(InstabilityError) as err:
            solve_deterministic(huge, g)
        assert err.value.step >= 1
        assert err.value.sup > 1e6 or not np.isfinite(err.value.sup)

    def test_grid_mismatch(self):
        g = Grid(nx=32, nt=64, T=1.0)
        other = Grid(nx=16, nt=64, T=1.0)
        with pytest.raises(DimensionError):
            solve_deterministic(sin_field(other), g)


# ------------------------------------------------------------ SPDE solver


class TestSpde:
    def test_eps_zero_bit_identical_random_configs(self):
        rng = np.random.default_rng(2718)
        for _ in range(5):
            nx = int(rng.integers(8, 40))
            nt = int(rng.integers(16, 128))
            T = float(rng.uniform(0.3, 2.0))
            g = Grid(nx=nx, nt=nt, T=T)
            coeffs = rng.normal(size=3)

            def u0_fn(x, c=coeffs):
                return sum(c[m] * np.sin((m + 1) * np.pi * x) for m in range(3))

            u0 = SpaceField.sample(g, u0_fn)
            sig = SigmaSpec.cosine(float(rng.uniform(0.5, 2.0)))
            w = sample_sheet(g, SeedSpec(int(rng.integers(1 << 30)), 0))
            det = solve_deterministic(u0, g)
            spde = solve_spde(u0, g, 0.0, sig, w)
            assert np.array_equal(spde.frames, det.frames)

    def test_sigma_zero_bit_identical_any_eps(self):
        g = Grid(nx=24, nt=48, T=0.8)
        u0 = sin_field(g, 0.7)
        w = sample_sheet(g, SeedSpec(7, 3))
        det = solve_deterministic(u0, g)
        for eps in (1.0, 0.3, 1e-4):
            out = solve_spde(u0, g, eps, SigmaSpec.constant(0.0), w)
            assert np.array_equal(out.frames, det.frames)

    def test_dirichlet_endpoints(self):
        g = Grid(nx=32, nt=128, T=1.0)
        w = sample_sheet(g, SeedSpec(123, 0))
        out = solve_spde(sin_field(g), g, 1.0, SigmaSpec.cosine(1.0), w)
        assert np.all(out.frames[:, 0] == 0.0)
        assert np.all(out.frames[:, -1] == 0.0)

    def test_sqrt_eps_consistency(self):
        # distance to the deterministic limit scales like sqrt(eps)
        g = Grid(nx=32, nt=512, T=0.5)
        u0 = sin_field(g)
        w = sample_sheet(g, SeedSpec(42, 0))
        sig = SigmaSpec.cosine(1.0)
        det = solve_deterministic(u0, g)
        d1 = diff_sup(solve_spde(u0, g, 1e-3, sig, w), det, g)
        d2 = diff_sup(solve_spde(u0, g, 2.5e-4, sig, w), det, g)
        assert 1.5 < d1 / d2 < 2.8

    def test_rejects_negative_eps_and_foreign_sheet(self):
        g = Grid(nx=16, nt=16, T=0.5)
        w = sample_sheet(g, SeedSpec(1, 0))
        with pytest.raises(ValueError):
            solve_spde(sin_field(g), g, -1e-3, SigmaSpec.cosine(1.0), w)
        g2 = Grid(nx=16, nt=32, T=0.5)
        w2 = sample_sheet(g2, SeedSpec(1, 0))
        with pytest.raises(DimensionError):
            solve_spde(sin_field(g), g, 0.1, SigmaSpec.cosine(1.0), w2)


# ------------------------------------------------------- controlled solver


class TestControlled:
    def _setup(self):
        g = Grid(nx=32, nt=512, T=0.5)
        u0 = sin_field(g)
        sig = SigmaSpec.cosine(1.0)
        w = sample_sheet(g, SeedSpec(42, 0))
        xi = g.x_interior()
        tl = g.t_nodes()[:-1]
        vv = (
            0.8 * np.sin(np.pi * xi)[None, :] * np.cos(np.pi * tl)[:, None]
            + 0.3 * np.sin(2 * np.pi * xi)[None, :]
        )
        return g, u0, sig, w, Control(vv, g)

    def test_matches_girsanov_route(self):
        g, u0, sig, w, v = self._setup()
        sched = ScalingSchedule.moderate(0.25)
        eps = 1e-3
        direct = solve_controlled(u0, g, eps, sched, sig, v, w)
        shifted = girsanov_shift(w, v, sched.h(eps))
        det = solve_deterministic(u0, g)
        via_girsanov = deviation_field(solve_spde(u0, g, eps, sig, shifted), det, sched, eps)
        assert diff_sup(direct, via_girsanov, g) < 1e-9

    def test_zero_control_matches_deviation_field(self):
        g, u0, sig, w, _ = self._setup()
        sched = ScalingSchedule.moderate(0.25)
        eps = 1e-3
        direct = solve_controlled(u0, g, eps, sched, sig, Control.zero(g), w)
        det = solve_deterministic(u0, g)
        dev = deviation_field(solve_spde(u0, g, eps, sig, w), det, sched, eps)
        assert diff_sup(direct, dev, g) < 1e-9

    def test_sigma_zero_deterministic_in_noise(self):
        g, u0, _, w, v = self._setup()
        sched = ScalingSchedule.clt()
        sig0 = SigmaSpec.constant(0.0)
        out1 = solve_controlled(u0, g, 1e-2, sched, sig0, v, w)
        w2 = sample_sheet(g, SeedSpec(999, 5))
        out2 = solve_controlled(u0, g, 1e-2, sched, sig0, v, w2)
        assert np.array_equal(out1.frames, out2.frames)
        # zero initial deviation + no forcing: identically zero
        assert np.array_equal(out1.frames, np.zeros_like(out1.frames))

    def test_rejects_nonpositive_eps(self):
        g, u0, sig, w, v = self._setup()
        with pytest.raises(ValueError):
            solve_controlled(u0, g, 0.0, ScalingSchedule.clt(), sig, v, w)

    def test_supplied_base_flow_is_the_built_one(self):
        g, u0, sig, w, v = self._setup()
        sched = ScalingSchedule.moderate(0.25)
        built = solve_controlled(u0, g, 1e-3, sched, sig, v, w)
        given = solve_controlled(u0, g, 1e-3, sched, sig, v, w, u_det=solve_deterministic(u0, g))
        assert np.array_equal(built.frames, given.frames)
        # the base flow must start from u0 and live on g
        with pytest.raises(ValueError):
            solve_controlled(u0, g, 1e-3, sched, sig, v, w,
                             u_det=solve_deterministic(sin_field(g, 0.5), g))
        g2 = Grid(nx=32, nt=256, T=0.5)
        with pytest.raises(DimensionError):
            solve_controlled(u0, g, 1e-3, sched, sig, v, w,
                             u_det=solve_deterministic(sin_field(g2), g2))


# --------------------------------------------------------- skeleton solver


class TestSkeleton:
    def _setup(self):
        g = Grid(nx=32, nt=512, T=0.5)
        u0 = sin_field(g)
        sig = SigmaSpec.cosine(1.0)
        u_det = solve_deterministic(u0, g)
        xi = g.x_interior()
        tl = g.t_nodes()[:-1]
        vv = (
            0.8 * np.sin(np.pi * xi)[None, :] * np.cos(np.pi * tl)[:, None]
            + 0.3 * np.sin(2 * np.pi * xi)[None, :]
        )
        return g, u0, sig, u_det, vv

    def test_zero_control_zero_field(self):
        g, u0, sig, u_det, _ = self._setup()
        out = solve_skeleton(u0, g, Control.zero(g), sig, u_det)
        assert np.array_equal(out.frames, np.zeros_like(out.frames))

    def test_linearity(self):
        g, u0, sig, u_det, vv = self._setup()
        base = solve_skeleton(u0, g, Control(vv, g), sig, u_det)
        scaled = solve_skeleton(u0, g, Control(2.5 * vv, g), sig, u_det)
        rel = diff_sup(scaled, SpaceTimeField(2.5 * base.frames, g), g) / sup_t_l2(
            scaled, g
        )
        assert rel < 1e-10

    def test_superposition(self):
        g, u0, sig, u_det, vv = self._setup()
        xi = g.x_interior()
        tl = g.t_nodes()[:-1]
        v2 = 0.5 * np.cos(2 * np.pi * tl)[:, None] * np.sin(3 * np.pi * xi)[None, :]
        s12 = solve_skeleton(u0, g, Control(vv + v2, g), sig, u_det)
        s1 = solve_skeleton(u0, g, Control(vv, g), sig, u_det)
        s2 = solve_skeleton(u0, g, Control(v2, g), sig, u_det)
        rel = diff_sup(
            s12, SpaceTimeField(s1.frames + s2.frames, g), g
        ) / sup_t_l2(s12, g)
        assert rel < 1e-10

    def test_rejects_mismatched_u_det(self):
        g, u0, sig, u_det, vv = self._setup()
        # base trajectory must start from the supplied initial data
        with pytest.raises(ValueError):
            solve_skeleton(sin_field(g, 0.5), g, Control(vv, g), sig, u_det)
        g2 = Grid(nx=16, nt=512, T=0.5)
        with pytest.raises(DimensionError):
            solve_skeleton(u0, g, Control.zero(g2), sig, u_det)


# ------------------------------------------------------ fixed-point solver


class TestSkeletonFixedPoint:
    def _setup(self):
        g = Grid(nx=32, nt=256, T=0.25)
        u0 = sin_field(g, 0.5)
        sig = SigmaSpec.cosine(1.0)
        u_det = solve_deterministic(u0, g)
        xi = g.x_interior()
        tl = g.t_nodes()[:-1]
        vv = (
            np.sin(np.pi * xi)[None, :]
            * (1.0 + 0.5 * np.cos(2 * np.pi * tl))[:, None]
        )
        return g, u0, sig, u_det, Control(vv, g)

    def test_zero_control_one_iteration(self):
        g, u0, sig, u_det, _ = self._setup()
        res = solve_skeleton_fixed_point(u0, g, Control.zero(g), sig, u_det)
        assert res.iterations == 1
        assert np.array_equal(res.field.frames, np.zeros_like(res.field.frames))
        assert res.ratios == ()

    def test_agrees_with_pde_stepping(self):
        g, u0, sig, u_det, v = self._setup()
        cfg = SolverConfig(fp_tol=1e-5, fp_max_iter=60)
        res = solve_skeleton_fixed_point(u0, g, v, sig, u_det, cfg)
        pde = solve_skeleton(u0, g, v, sig, u_det)
        budget = max(5.0 * g.dx**2, 10.0 * cfg.fp_tol)
        assert diff_sup(res.field, pde, g) < budget

    def test_contracts_on_short_horizon(self):
        g = Grid(nx=32, nt=128, T=0.1)
        u0 = sin_field(g)
        u_det = solve_deterministic(u0, g)
        v = Control(
            np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1)), g
        )
        res = solve_skeleton_fixed_point(
            u0, g, v, SigmaSpec.cosine(1.0), u_det, SolverConfig(fp_tol=1e-5)
        )
        assert len(res.ratios) >= 1
        assert all(r < 1.0 for r in res.ratios)

    def test_contraction_failure_signals_long_horizon(self):
        # strong transport (large data) pushes the Lipschitz constant past 1
        g = Grid(nx=32, nt=64, T=0.25)
        u0 = sin_field(g, 25.0)
        u_det = solve_deterministic(u0, g)
        v = Control(np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1)), g)
        with pytest.raises(ContractionFailureError):
            solve_skeleton_fixed_point(
                u0,
                g,
                v,
                SigmaSpec.cosine(1.0),
                u_det,
                SolverConfig(fp_tol=1e-5, fp_max_iter=12),
            )


class TestSineSeriesMild:
    @pytest.mark.parametrize("tau", [3e-3, 1e-2, 0.05, 0.2, 1.0])
    def test_basis_matches_kernel_series(self, tau):
        g = Grid(nx=32, nt=64)
        lam, synth, proj_G, proj_dG = _sine_basis(g)
        decay = np.exp(-lam * tau)[:, None]
        xi = g.x_interior()
        G = eval_G(tau, xi[:, None], xi[None, :])
        dG = eval_dG_dy(tau, xi[:, None], xi[None, :])
        assert np.max(np.abs(synth @ (decay * proj_G.T) / g.dx - G)) < 1e-12
        assert np.max(np.abs(synth @ (decay * proj_dG.T) / g.dx - dG)) < 1e-10

    def test_default_grid_within_budget_and_memory(self):
        g = Grid(nx=64, nt=256, T=1.0)
        u0 = sin_field(g)
        u_det = solve_deterministic(u0, g)
        vals = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
        v = Control(vals / ht_norm(vals, g), g)
        sig = SigmaSpec.cosine(1.0)
        cfg = SolverConfig()
        tracemalloc.start()
        try:
            res = solve_skeleton_fixed_point(u0, g, v, sig, u_det, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ratios and all(r < 1.0 for r in res.ratios)
        pde = solve_skeleton(u0, g, v, sig, u_det)
        assert diff_sup(res.field, pde, g) <= max(5.0 * g.dx**2, 10.0 * cfg.fp_tol)
        assert peak <= 8 * 2**20


# ------------------------------------------- the skeleton as small-noise limit

# the default config, and a transport-dominated one: a short horizon with
# large data, whose base flow also crosses a zero of the cosine sigma
SMALL_NOISE_CONFIGS = [
    pytest.param(Grid(nx=64, nt=256, T=1.0), 1.0, id="64x256-T1-amp1"),
    pytest.param(Grid(nx=32, nt=256, T=0.1), 5.0, id="32x256-T0.1-amp5"),
]
MODERATE = ScalingSchedule.moderate(0.25)


def _unit_sine_control(g):
    """sin(pi x) at every step."""
    return Control(np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1)), g)


def small_a_gap(g, amp):
    """sup_t L2 gap between the noiseless controlled deviation at eps = 1e-14 and
    the skeleton, over a(eps)."""
    u0, sig, sched, eps = sin_field(g, amp), SigmaSpec.cosine(1.0), MODERATE, 1e-14
    v = _unit_sine_control(g)
    no_noise = NoiseSheet(np.zeros((g.nt, g.nx - 1)), seed=0, grid=g)
    controlled = solve_controlled(u0, g, eps, sched, sig, v, no_noise)
    skeleton = solve_skeleton(u0, g, v, sig, solve_deterministic(u0, g))
    return diff_sup(controlled, skeleton, g) / sched.a(eps)


def small_noise_deviation(g, amp):
    """(context, deviation at eps = 1e-10 on SeedSpec(0, 0), the noise that
    drove it as a control, dW/(h*dt*dx))."""
    u0, sig, sched, eps = sin_field(g, amp), SigmaSpec.cosine(1.0), MODERATE, 1e-10
    w = sample_sheet(g, SeedSpec(0, 0))
    ctx = SkeletonContext.build(u0, g, sig)
    dev = deviation_field(solve_spde(u0, g, eps, sig, w), ctx.u_det, sched, eps)
    return ctx, dev, w.dW / (sched.h(eps) * g.dt * g.dx)


def preimage_error(g, amp):
    """Relative L2 error of the exact preimage of a small-noise deviation
    against the noise it was driven by."""
    ctx, dev, noise = small_noise_deviation(g, amp)
    v = _exact_preimage(ctx, dev.frames[1:, 1:-1])
    return np.linalg.norm(v - noise) / np.linalg.norm(noise)


class TestSkeletonIsSmallNoiseLimit:
    @pytest.mark.parametrize("g, amp", SMALL_NOISE_CONFIGS)
    def test_small_a_limit(self, g, amp):
        # the controlled deviation without noise is the skeleton plus O(a)
        assert small_a_gap(g, amp) <= 0.01

    @pytest.mark.parametrize("g, amp", SMALL_NOISE_CONFIGS)
    def test_pathwise_preimage(self, g, amp):
        # a small-noise deviation is the skeleton's response to the noise itself
        assert preimage_error(g, amp) <= 1e-3

    @pytest.mark.parametrize("g, amp", SMALL_NOISE_CONFIGS)
    def test_sampled_deviation_rate(self, g, amp):
        # so its rate is the energy of that noise, found exactly however rough
        ctx, dev, noise = small_noise_deviation(g, amp)
        res = rate_value(dev, ctx)
        assert res.method == "exact"
        assert res.attained
        assert res.value == pytest.approx(0.5 * ht_norm(noise, g) ** 2, rel=1e-5)

    def test_transport_constant_reaches_every_consumer(self, monkeypatch):
        # with the constant off the solvers' value the consumers must still
        # agree with each other; one with a coefficient of its own breaks a check
        monkeypatch.setattr(solvers, "SKELETON_TRANSPORT", 2.0)
        g = Grid(nx=32, nt=64, T=0.1)
        u0, sig, cfg = sin_field(g, 5.0), SigmaSpec.cosine(1.0), SolverConfig()
        # kernel-check's control, of unit H_T norm: at amplitude 1 a fixed
        # point with a coefficient of its own stays inside the budget
        v = _unit_sine_control(g)
        v = Control(v.values / ht_norm(v, g), g)
        ctx = SkeletonContext.build(u0, g, sig)
        f = apply_forward(v, ctx)
        recovered = _exact_preimage(ctx, f.frames[1:, 1:-1])
        assert np.abs(recovered - v.values).max() <= 1e-10 * np.abs(v.values).max()
        r = np.random.default_rng(5)
        frames = np.zeros((g.nt + 1, g.nx + 1))
        frames[1:, 1:-1] = r.normal(size=(g.nt, g.nx - 1))
        adj = apply_adjoint(SpaceTimeField(frames, g), ctx)
        lhs = g.dt * g.dx * np.sum(f.frames * frames)
        rhs = g.dt * g.dx * np.sum(v.values * adj.values)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
        res = solve_skeleton_fixed_point(u0, g, v, sig, ctx.u_det, cfg)
        pde = solve_skeleton(u0, g, v, sig, ctx.u_det)
        assert diff_sup(res.field, pde, g) <= max(5.0 * g.dx**2, 10.0 * cfg.fp_tol)
