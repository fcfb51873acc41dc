"""Tests for the least-norm control energy solver."""
import hashlib

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
from burgerslab import ratefn
from burgerslab.noise import NoiseSheet, girsanov_log_density
from burgerslab.ratefn import (
    RateResult,
    SkeletonContext,
    _cgls,
    apply_adjoint,
    apply_forward,
    rate_value,
)
from burgerslab.solvers import SigmaSpec, _skeleton_preimage, solve_skeleton


def make_ctx(nx=32, nt=256, T=0.25):
    g = Grid(nx=nx, nt=nt, T=T)
    u0 = SpaceField.sample(g, lambda x: np.sin(np.pi * x))
    return g, SkeletonContext.build(u0, g, SigmaSpec.cosine(1.0))


def smooth_control(g, seed, target_ht):
    r = np.random.default_rng(seed)
    xi = g.x_interior()
    tl = g.t_nodes()[:-1]
    vals = np.zeros((g.nt, g.nx - 1))
    for m in range(1, 4):
        for n in range(3):
            vals += (
                r.normal()
                * np.sin(m * np.pi * xi)[None, :]
                * np.cos(n * np.pi * tl / g.T)[:, None]
            )
    vals *= target_ht / ht_norm(vals, g)
    return Control(vals, g)


def vanishing_sigma_ctx(nx, nt):
    g = Grid(nx=nx, nt=nt, T=0.25)
    u0 = SpaceField.sample(g, lambda x: np.sin(np.pi * x))
    sigma = SigmaSpec.tabulated((-2.0, 0.5, 2.0), (0.0, 0.0, 1.0))
    return g, SkeletonContext.build(u0, g, sigma)


def unattainable_target(g, ctx):
    """A response with 0.1 added on one cell where sigma(u_det) = 0: the step
    equation fixes the response there, so the target has no preimage."""
    frames = apply_forward(smooth_control(g, 11, 0.7), ctx).frames.copy()
    k, i = np.argwhere(ctx._forcing == 0.0)[0]
    frames[k + 1, i + 1] += 0.1
    return SpaceTimeField(frames, g)


def random_field(g, seed):
    r = np.random.default_rng(seed)
    frames = np.zeros((g.nt + 1, g.nx + 1))
    frames[1:, 1:-1] = r.normal(size=(g.nt, g.nx - 1))
    return SpaceTimeField(frames, g)


def assert_matches_stepping_solver(g, ctx):
    v = smooth_control(g, 1, 0.8)
    fwd = apply_forward(v, ctx)
    ref = solve_skeleton(ctx.u0, g, v, ctx.sigma, ctx.u_det)
    assert np.array_equal(fwd.frames, ref.frames)


def assert_pairing_identity(g, ctx, seed):
    # <A v, g> == <v, A* g>, both sides paired by dt*dx per cell, on random data
    r = np.random.default_rng(seed)
    v = Control(r.normal(size=(g.nt, g.nx - 1)), g)
    gf = random_field(g, seed + 100)
    av = apply_forward(v, ctx)
    atg = apply_adjoint(gf, ctx)
    lhs = g.dt * g.dx * np.sum(av.frames[1:, 1:-1] * gf.frames[1:, 1:-1])
    rhs = g.dt * g.dx * np.sum(v.values * atg.values)
    assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


# ------------------------------------------------------------ forward map


class TestApplyForward:
    def test_zero_control_zero_field(self):
        g, ctx = make_ctx()
        out = apply_forward(Control.zero(g), ctx)
        assert np.array_equal(out.frames, np.zeros_like(out.frames))

    def test_matches_stepping_solver_bitwise(self):
        assert_matches_stepping_solver(*make_ctx())

    def test_matches_stepping_solver_bitwise_at_transport_config(self, transport_config):
        g, u0, sigma = transport_config
        assert_matches_stepping_solver(g, SkeletonContext.build(u0, g, sigma))

    def test_additivity(self):
        g, ctx = make_ctx()
        v1 = smooth_control(g, 5, 0.6)
        v2 = smooth_control(g, 6, 0.9)
        both = apply_forward(Control(v1.values + v2.values, g), ctx)
        split = apply_forward(v1, ctx).frames + apply_forward(v2, ctx).frames
        scale = np.abs(split).max()
        assert np.abs(both.frames - split).max() <= 1e-9 * scale

    def test_grid_mismatch(self):
        g, ctx = make_ctx()
        g2 = Grid(nx=16, nt=256, T=0.25)
        with pytest.raises(DimensionError):
            apply_forward(Control.zero(g2), ctx)


# ------------------------------------------------------------ adjoint map


class TestApplyAdjoint:
    def test_zero_field_zero_control(self):
        g, ctx = make_ctx()
        zero = SpaceTimeField(np.zeros((g.nt + 1, g.nx + 1)), g)
        out = apply_adjoint(zero, ctx)
        assert np.array_equal(out.values, np.zeros_like(out.values))

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_pairing_identity(self, seed):
        assert_pairing_identity(*make_ctx(), seed)

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_pairing_identity_at_transport_config(self, transport_config, seed):
        # u_det falls to 0.36 of its start here, so the backward sweep reading
        # a transport row one step off breaks the identity
        g, u0, sigma = transport_config
        assert_pairing_identity(g, SkeletonContext.build(u0, g, sigma), seed)

    def test_linearity(self):
        g, ctx = make_ctx()
        f1 = random_field(g, 21)
        f2 = random_field(g, 22)
        combo = SpaceTimeField(2.0 * f1.frames - 0.5 * f2.frames, g)
        direct = apply_adjoint(combo, ctx).values
        split = 2.0 * apply_adjoint(f1, ctx).values - 0.5 * apply_adjoint(f2, ctx).values
        assert np.allclose(direct, split, rtol=1e-12, atol=1e-15)

    def test_grid_mismatch(self):
        g, ctx = make_ctx()
        g2 = Grid(nx=16, nt=256, T=0.25)
        zero = SpaceTimeField(np.zeros((g2.nt + 1, g2.nx + 1)), g2)
        with pytest.raises(DimensionError):
            apply_adjoint(zero, ctx)


# ----------------------------------------------------------- energy value


class TestRateValue:
    def test_zero_target(self):
        g, ctx = make_ctx()
        zero = SpaceTimeField(np.zeros((g.nt + 1, g.nx + 1)), g)
        res = rate_value(zero, ctx)
        assert res.value == 0.0
        assert res.iterations == 0
        assert res.attained
        assert np.array_equal(res.v_star.values, np.zeros((g.nt, g.nx - 1)))

    def test_round_trip_recovers_least_norm(self):
        g, ctx = make_ctx()
        v0 = smooth_control(g, 11, 0.7)
        f = apply_forward(v0, ctx)
        res = rate_value(f, ctx, tol=1e-6, max_iter=2000)
        bound = 0.5 * ht_norm(v0, g) ** 2
        assert res.attained
        assert res.residual <= 1e-6
        assert res.value <= bound + 1e-4
        assert res.value == pytest.approx(bound, rel=1e-4)
        assert res.value == pytest.approx(0.5 * ht_norm(res.v_star, g) ** 2, rel=1e-12)

    def test_residual_history_monotone(self):
        g, ctx = make_ctx()
        f = apply_forward(smooth_control(g, 11, 0.7), ctx)
        res = rate_value(f, ctx, tol=1e-6, max_iter=2000)
        h = res.residual_history
        assert len(h) == res.iterations + 1
        assert all(b <= a * (1 + 1e-10) for a, b in zip(h, h[1:]))

    def test_quadratic_homogeneity(self):
        g, ctx = make_ctx()
        f = apply_forward(smooth_control(g, 11, 0.7), ctx)
        res1 = rate_value(f, ctx, tol=1e-6, max_iter=2000)
        res3 = rate_value(SpaceTimeField(3.0 * f.frames, g), ctx, tol=1e-6, max_iter=2000)
        assert res3.value == pytest.approx(9.0 * res1.value, rel=1e-6)
        # minimizer scales linearly, measured in the control norm it lives in
        gap = ht_norm(res3.v_star.values - 3.0 * res1.v_star.values, g)
        assert gap <= 1e-6 * ht_norm(3.0 * res1.v_star.values, g)

    def test_noise_target_attained_exactly(self):
        # the lattice map is square: even white noise has an exact preimage
        g, ctx = make_ctx(nx=24, nt=128)
        res = rate_value(random_field(g, 77), ctx, tol=1e-6, max_iter=30)
        assert res.attained
        assert res.residual <= 1e-6
        assert res.method == "exact"
        assert res.iterations == 1
        assert res.roughness > 1.0
        assert np.isfinite(res.value)

    def test_fallback_can_be_disabled(self):
        # the fallback is gone for good: no parameter, and no sweep after CGLS
        g, ctx = vanishing_sigma_ctx(16, 32)
        f = unattainable_target(g, ctx)
        with pytest.raises(TypeError):
            rate_value(f, ctx, max_iter=30, fallback=False)
        res = rate_value(f, ctx, tol=1e-6, max_iter=30)
        assert not res.attained
        assert not hasattr(res, "tikhonov_lambda")
        assert res.iterations == 30
        assert len(res.residual_history) == 31

    def test_validation(self):
        g, ctx = make_ctx(nx=16, nt=32, T=0.25)
        ok = SpaceTimeField(np.zeros((g.nt + 1, g.nx + 1)), g)
        with pytest.raises(ValueError):
            rate_value(ok, ctx, tol=0.0)
        with pytest.raises(ValueError):
            rate_value(ok, ctx, max_iter=0)
        bad0 = np.zeros((g.nt + 1, g.nx + 1))
        bad0[0, 3] = 1.0
        with pytest.raises(ValueError):
            rate_value(SpaceTimeField(bad0, g), ctx)
        badw = np.zeros((g.nt + 1, g.nx + 1))
        badw[2, 0] = 1.0
        with pytest.raises(ValueError):
            rate_value(SpaceTimeField(badw, g), ctx)
        g2 = Grid(nx=16, nt=64, T=0.25)
        other = SpaceTimeField(np.zeros((g2.nt + 1, g2.nx + 1)), g2)
        with pytest.raises(DimensionError):
            rate_value(other, ctx)

    def test_result_serializes(self):
        g, ctx = make_ctx(nx=16, nt=32, T=0.25)
        zero = SpaceTimeField(np.zeros((g.nt + 1, g.nx + 1)), g)
        res = rate_value(zero, ctx)
        d = res.to_json_dict(v_star_csv_path="v.csv")
        assert d == {
            "value": 0.0,
            "residual": 0.0,
            "iterations": 0,
            "attained": True,
            "v_star_csv_path": "v.csv",
            "method": "cgls",
            "roughness": 0.0,
            "residual_history": [0.0],
        }
        assert isinstance(res, RateResult)


# ------------------------------------------------------------ exact route


class TestExactRoute:
    def test_cgls_converges_to_exact_preimage(self):
        g, ctx = make_ctx(nx=16, nt=32)
        target = apply_forward(smooth_control(g, 11, 0.7), ctx).frames[1:, 1:-1]
        v_cgls, _, residual, _ = _cgls(ctx, target, 1e-12, 5000)
        assert residual <= 1e-12
        assert ht_norm(v_cgls - _skeleton_preimage(ctx, target), g) <= 1e-6

    def test_recovers_generating_control(self):
        g, ctx = make_ctx()
        v0 = smooth_control(g, 11, 0.7)
        res = rate_value(apply_forward(v0, ctx), ctx, tol=1e-6, max_iter=2000)
        assert res.method == "exact"
        assert res.iterations == 1
        assert len(res.residual_history) == 2
        assert np.abs(res.v_star.values - v0.values).max() <= 1e-10

    def test_vanishing_sigma_masked_exact_preimage(self):
        # sigma(u) = 0 for u <= 0.5, which u_det crosses: v* = 0 where it vanishes
        g, ctx = vanishing_sigma_ctx(16, 32)
        masked = ctx._forcing == 0.0
        assert np.any(masked)
        f = apply_forward(smooth_control(g, 11, 0.7), ctx)
        res = rate_value(f, ctx, tol=1e-6, max_iter=2000)
        v_cgls, _, residual, _ = _cgls(ctx, f.frames[1:, 1:-1], 1e-12, 5000)
        assert res.method == "exact"
        assert res.attained
        assert residual <= 1e-12
        assert ht_norm(res.v_star.values - v_cgls, g) <= 1e-6
        assert np.all(res.v_star.values[masked] == 0.0)

    def test_vanishing_sigma_regression(self):
        # the fine-lattice case; max_iter bounds the run should it miss the exact route
        g, ctx = vanishing_sigma_ctx(32, 256)
        f = apply_forward(smooth_control(g, 11, 0.7), ctx)
        res = rate_value(f, ctx, tol=1e-6, max_iter=100)
        assert res.attained
        assert res.method == "exact"
        assert res.value == pytest.approx(0.0862, rel=1e-3)

    def test_exact_known_answer_at_transport_config(self, transport_config):
        # no other test pins the inverse's bits, and only here does transport
        # shape the preimage; recorded with the inverse written in ratefn;
        # numpy 2.4, x86-64 Linux
        g, u0, sigma = transport_config
        ctx = SkeletonContext.build(u0, g, sigma)
        v = Control.sample(
            g, lambda t, x: np.cos(np.pi * t / g.T) * np.sin(np.pi * x) + np.sin(2 * np.pi * x)
        )
        res = rate_value(apply_forward(v, ctx), ctx)
        assert res.method == "exact"
        assert res.value == 0.03750000000000009
        assert res.residual == 2.2740995188700764e-17
        assert hashlib.sha256(res.v_star.values.tobytes()).hexdigest() == (
            "34f073c79760cadca004fbf298c0baa7a6542ea3ab903bfd103324414b44bce3"
        )

    @pytest.mark.filterwarnings("error")
    def test_unattainable_target_stalls_in_cgls(self):
        # a response is fixed by the step equation where sigma(u_det) = 0
        g, ctx = vanishing_sigma_ctx(16, 32)
        res = rate_value(unattainable_target(g, ctx), ctx, tol=1e-6, max_iter=200)
        assert res.method == "cgls"
        assert not res.attained
        assert res.iterations == 200
        assert np.isfinite(res.value)
        h = res.residual_history
        assert all(b <= a for a, b in zip(h, h[1:]))

    def test_cgls_known_answer(self):
        # CGLS is the only caller of the adjoint sweep: pin its bits, recorded
        # with the hand-written backward loop; numpy 2.4, x86-64 Linux
        g, ctx = vanishing_sigma_ctx(16, 32)
        res = rate_value(unattainable_target(g, ctx), ctx, max_iter=60)
        assert res.method == "cgls"
        assert res.iterations == 60
        assert not res.attained
        assert res.value == 18.988156614435205
        assert res.residual == 0.024638455651269004
        assert hashlib.sha256(res.v_star.values.tobytes()).hexdigest() == (
            "937e35badcbe9e4689409551a6356c25042226481bfaa412cd9263c697517211"
        )

    @pytest.mark.parametrize("vanishing_sigma, method", [(False, "exact"), (True, "cgls")])
    def test_rough_target_method(self, vanishing_sigma, method):
        # roughness does not decide the route; white noise that breaks the
        # step equation where sigma(u_det) = 0 has no preimage
        if vanishing_sigma:
            g, ctx = vanishing_sigma_ctx(24, 128)
        else:
            g, ctx = make_ctx(nx=24, nt=128)
        res = rate_value(random_field(g, 77), ctx, tol=1e-6, max_iter=30)
        assert res.attained == (method == "exact")
        assert res.method == method

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tol_rejected(self, tol):
        g, ctx = make_ctx(nx=16, nt=32)
        with pytest.raises(ValueError):
            rate_value(SpaceTimeField.zero(g), ctx, tol=tol)


class TestOneMetric:
    @pytest.mark.parametrize("nx, nt", [(4, 8), (16, 16), (64, 256)])
    def test_rate_energy_is_girsanov_quadratic_term(self, nx, nt):
        # the weak-convergence approach rests on it: the energy of a control
        # is the quadratic term of the Girsanov exponent of the shift by it
        g, ctx = make_ctx(nx=nx, nt=nt, T=1.0)
        vals = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
        v = Control(vals / ht_norm(vals, g), g)
        zero_sheet = NoiseSheet(np.zeros((g.nt, g.nx - 1)), seed=0, grid=g)
        energy = rate_value(apply_forward(v, ctx), ctx).value
        assert energy == pytest.approx(-girsanov_log_density(zero_sheet, v, 1.0), rel=1e-12)


class TestResidualNorm:
    """RateResult.residual is grids.sup_t_l2 of the residual frames, bit for bit."""

    # dx = 1/48 is not a power of two, so a norm that sums before it scales
    # by dx rounds differently on some of these targets
    @pytest.mark.parametrize("seed", [8, 9, 10, 11, 12])
    def test_exact_route(self, seed):
        g, ctx = make_ctx(nx=48, nt=128)
        f = apply_forward(smooth_control(g, seed, 0.7), ctx)
        res = rate_value(f, ctx, tol=1e-6)
        assert res.method == "exact"
        frames = f.frames - apply_forward(res.v_star, ctx).frames
        assert res.residual == sup_t_l2(frames, g)

    def test_cgls_route(self, monkeypatch):
        # CGLS carries its residual by recurrence: read the frames it measured
        seen = []

        def recording_sup_t_l2(u, g):
            seen.append(np.array(u))
            return sup_t_l2(u, g)

        monkeypatch.setattr(ratefn, "sup_t_l2", recording_sup_t_l2)
        g, ctx = vanishing_sigma_ctx(16, 32)
        f = unattainable_target(g, ctx)
        res = rate_value(f, ctx, tol=1e-6, max_iter=30)
        assert res.method == "cgls"
        frames = seen[-1]
        assert frames.shape == (g.nt + 1, g.nx + 1)
        assert not frames[0].any() and not frames[:, [0, -1]].any()
        assert res.residual == sup_t_l2(frames, g)
        true = f.frames - apply_forward(res.v_star, ctx).frames
        assert np.abs(frames - true).max() <= 1e-10 * np.abs(f.frames).max()
