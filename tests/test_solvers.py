"""Tests for the semi-implicit solver family."""
import tracemalloc

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
from burgerslab.noise import SeedSpec, girsanov_shift, sample_sheet
from burgerslab.solvers import (
    ContractionFailureError,
    InstabilityError,
    SigmaSpec,
    SolverConfig,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_skeleton_fixed_point,
    solve_spde,
)
from burgerslab.solvers import _sine_basis
from burgerslab.deviations import ScalingSchedule, deviation_field


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
        pde = solve_skeleton(u0, g, v, sig, u_det, cfg)
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
        pde = solve_skeleton(u0, g, v, sig, u_det, cfg)
        assert diff_sup(res.field, pde, g) <= max(5.0 * g.dx**2, 10.0 * cfg.fp_tol)
        assert peak <= 8 * 2**20
