"""Tests for scaling schedules, deviation fields, and Monte Carlo statistics."""
import copy
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from burgerslab import deviations
from burgerslab.deviations import (
    CHUNK_SIZE,
    DeviationStats,
    McConfig,
    ScalingSchedule,
    deviation_field,
    mc_run,
    wilson_interval,
)
from burgerslab.grids import DimensionError, Grid, SpaceField, SpaceTimeField
from burgerslab.grids import sup_t_l2
from burgerslab.noise import SeedSpec, sample_sheet
from burgerslab.solvers import SigmaSpec, solve_deterministic, solve_spde

SIN = lambda x: np.sin(np.pi * x)  # noqa: E731


def records_equal(a, b):
    """Field-by-field record equality, treating NaN speed probes as equal."""
    if (a.eps, a.method, a.valid, a.n_paths) != (b.eps, b.method, b.valid, b.n_paths):
        return False
    floats_a = (a.p_hat, a.ci_low, a.ci_high, a.failed_fraction)
    floats_b = (b.p_hat, b.ci_low, b.ci_high, b.failed_fraction)
    if floats_a != floats_b or a.moments_u != b.moments_u:
        return False
    if a.moments_dev != b.moments_dev:
        return False
    sa, sb = a.neg_log_p_over_h2, b.neg_log_p_over_h2
    return (math.isnan(sa) and math.isnan(sb)) or sa == sb


# ------------------------------------------------------- scaling schedules


class TestScalingSchedule:
    def test_clt(self):
        s = ScalingSchedule.clt()
        assert s.a(1e-4) == pytest.approx(1e-2)
        assert s.h(1e-4) == pytest.approx(1.0)
        assert s.h(0.09) == pytest.approx(1.0)

    def test_moderate(self):
        s = ScalingSchedule.moderate(0.25)
        assert s.a(1e-4) == pytest.approx(0.1)
        assert s.h(1e-4) == pytest.approx(10.0)

    def test_ldp(self):
        s = ScalingSchedule.ldp()
        assert s.a(1e-4) == 1.0
        assert s.h(1e-4) == pytest.approx(100.0)

    @pytest.mark.parametrize("theta", [0.0, 0.5, -0.1, 0.7])
    def test_moderate_exponent_range(self, theta):
        with pytest.raises(ValueError):
            ScalingSchedule.moderate(theta)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            ScalingSchedule.clt().a(0.0)


# --------------------------------------------------------- deviation field


class TestDeviationField:
    def _fields(self):
        g = Grid(nx=16, nt=32, T=0.5)
        u0 = SpaceField.sample(g, SIN)
        det = solve_deterministic(u0, g)
        w = sample_sheet(g, SeedSpec(3, 0))
        eps = 0.01
        ueps = solve_spde(u0, g, eps, SigmaSpec.cosine(1.0), w)
        return g, det, ueps, eps

    def test_identical_inputs_give_zero(self):
        g, det, _, eps = self._fields()
        dev = deviation_field(det, det, ScalingSchedule.moderate(0.3), eps)
        assert np.array_equal(dev.frames, np.zeros_like(dev.frames))

    def test_ldp_is_plain_difference(self):
        g, det, ueps, eps = self._fields()
        dev = deviation_field(ueps, det, ScalingSchedule.ldp(), eps)
        assert np.array_equal(dev.frames, ueps.frames - det.frames)

    def test_clt_scale_at_eps_hundredth(self):
        g, det, ueps, eps = self._fields()
        dev = deviation_field(ueps, det, ScalingSchedule.clt(), eps)
        assert np.allclose(dev.frames, 10.0 * (ueps.frames - det.frames), rtol=1e-12)

    def test_grid_mismatch(self):
        g, det, ueps, eps = self._fields()
        g2 = Grid(nx=16, nt=64, T=0.5)
        other = SpaceTimeField(np.zeros((g2.nt + 1, g2.nx + 1)), g2)
        with pytest.raises(DimensionError):
            deviation_field(ueps, other, ScalingSchedule.clt(), eps)


# ------------------------------------------------------------- validation


class TestMcConfig:
    def test_accepts_minimal(self):
        mc = McConfig(eps_grid=(1e-2,), n_paths=10, threshold=0.1)
        assert mc.eps_grid == (1e-2,)
        assert mc.moment_orders == (2,)
        assert mc.threads == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_grid": ()},
            {"eps_grid": (1e-2, 1e-2)},
            {"eps_grid": (1e-3, 1e-2)},
            {"eps_grid": (2.0,)},
            {"eps_grid": (0.0,)},
            {"n_paths": 0},
            {"threshold": 0.0},
            {"moment_orders": (1,)},
            {"threads": 0},
            {"eps_grid": (float("nan"),)},
            {"threshold": float("nan")},
            {"threshold": float("inf")},
            {"threshold": -0.1},
            {"eps_grid": (1e-2, -1e-3)},
            {"master_seed": -1},
            {"master_seed": 2**64},
            {"n_paths": 20.9},
            {"master_seed": 1.5},
            {"threads": 1.5},
            {"moment_orders": (2.5,)},
            {"moment_orders": (2, 3.5)},
            {"n_paths": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        base = dict(eps_grid=(1e-2,), n_paths=10, threshold=0.1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            McConfig(**base)

    @pytest.mark.parametrize("flag", [True, np.True_])
    @pytest.mark.parametrize("name", ["n_paths", "master_seed", "threads"])
    def test_rejects_booleans(self, name, flag):
        # True would otherwise count as 1
        kwargs = dict(eps_grid=(1e-2,), n_paths=10, threshold=0.1)
        kwargs[name] = flag
        with pytest.raises(ValueError, match=f"{name} must be a whole number"):
            McConfig(**kwargs)

    def test_integral_floats_stored_as_int(self):
        mc = McConfig(
            eps_grid=(1e-2,), n_paths=20.0, threshold=0.1,
            moment_orders=(2.0, 4), master_seed=3.0, threads=2.0,
        )
        assert (mc.n_paths, mc.master_seed, mc.threads) == (20, 3, 2)
        assert mc.moment_orders == (2, 4)
        assert all(type(x) is int for x in (mc.n_paths, mc.master_seed, mc.threads))
        assert all(type(q) is int for q in mc.moment_orders)


class TestWilsonInterval:
    def test_no_hits(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert hi == pytest.approx(0.03699480747600191, rel=1e-12)

    def test_all_hits_mirrors_no_hits(self):
        lo, hi = wilson_interval(100, 100)
        lo0, hi0 = wilson_interval(0, 100)
        assert hi == 1.0
        assert lo == pytest.approx(1.0 - hi0, rel=1e-12)

    def test_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.40383, abs=1e-5)
        assert hi == pytest.approx(0.59617, abs=1e-5)

    def test_brackets_point_estimate(self):
        for hits, n in [(1, 30), (7, 50), (250, 1000), (999, 1000)]:
            lo, hi = wilson_interval(hits, n)
            assert 0.0 <= lo <= hits / n <= hi <= 1.0


# ----------------------------------------------------------------- mc_run


class TestMcRun:
    def test_sigma_zero_degenerates(self):
        g = Grid(nx=32, nt=64, T=0.5)
        u0 = SpaceField.sample(g, SIN)
        stats = mc_run(
            u0,
            g,
            SigmaSpec.constant(0.0),
            ScalingSchedule.moderate(0.25),
            McConfig(eps_grid=(1e-2, 1e-3), n_paths=16, threshold=0.1),
        )
        for rec in stats.records:
            assert rec.p_hat == 0.0
            assert rec.valid
            assert rec.method == "plain"
            assert dict(rec.moments_dev)[2] < 1e-20
            # noiseless paths all equal the limit; sup-norm moment is the
            # initial energy of the sine profile
            assert dict(rec.moments_u)[2] == pytest.approx(0.5, abs=1e-3)
            assert math.isnan(rec.neg_log_p_over_h2)

    def test_moment_slope_and_trend(self):
        g = Grid(nx=32, nt=512, T=1.0)
        u0 = SpaceField.sample(g, SIN)
        stats = mc_run(
            u0,
            g,
            SigmaSpec.cosine(1.0),
            ScalingSchedule.moderate(0.25),
            McConfig(
                eps_grid=(1e-2, 5e-3, 2.5e-3, 1.25e-3),
                n_paths=256,
                threshold=0.12,
                master_seed=2024,
            ),
        )
        recs = stats.records
        assert all(r.valid and r.failed_fraction == 0.0 for r in recs)
        # second moment of the unscaled difference decays linearly in eps
        eps = np.array([r.eps for r in recs])
        m2 = np.array([dict(r.moments_dev)[2] for r in recs])
        slope = np.polyfit(np.log(eps), np.log(m2), 1)[0]
        assert 0.85 <= slope <= 1.15
        # solution-size moments stay uniformly bounded along the grid
        mu = [dict(r.moments_u)[2] for r in recs]
        assert max(mu) <= 2.0 * mu[0]
        # exceedance probability falls as eps shrinks (CI overlap allowed)
        for a, b in zip(recs, recs[1:]):
            assert b.p_hat <= a.p_hat or b.ci_low <= a.ci_high
        # frozen pinned-seed values
        assert [r.p_hat for r in recs] == pytest.approx(
            [1.0, 0.890625, 0.58203125, 0.203125], abs=1e-12
        )

    def test_p_hat_monotone_in_threshold(self):
        g = Grid(nx=32, nt=256, T=1.0)
        u0 = SpaceField.sample(g, SIN)
        ps = []
        for r in (0.08, 0.12, 0.18):
            stats = mc_run(
                u0,
                g,
                SigmaSpec.cosine(1.0),
                ScalingSchedule.moderate(0.25),
                McConfig(
                    eps_grid=(2.5e-3,), n_paths=128, threshold=r, master_seed=314
                ),
            )
            ps.append(stats.records[0].p_hat)
        assert ps[0] >= ps[1] >= ps[2]
        assert ps == pytest.approx([0.9921875, 0.578125, 0.0390625], abs=1e-12)

    def test_eps_trend_pinned(self):
        g = Grid(nx=32, nt=256, T=1.0)
        u0 = SpaceField.sample(g, SIN)
        stats = mc_run(
            u0,
            g,
            SigmaSpec.cosine(1.0),
            ScalingSchedule.moderate(0.25),
            McConfig(
                eps_grid=(1e-2, 5e-3, 2.5e-3, 1.25e-3),
                n_paths=128,
                threshold=0.12,
                master_seed=314,
            ),
        )
        assert [r.p_hat for r in stats.records] == pytest.approx(
            [0.9765625, 0.8828125, 0.578125, 0.2265625], abs=1e-12
        )

    def test_thread_count_does_not_change_results(self):
        g = Grid(nx=24, nt=128, T=0.5)
        u0 = SpaceField.sample(g, SIN)
        runs = []
        for threads in (1, 4):
            stats = mc_run(
                u0,
                g,
                SigmaSpec.cosine(1.0),
                ScalingSchedule.moderate(0.25),
                McConfig(
                    eps_grid=(1e-2, 2.5e-3),
                    n_paths=100,
                    threshold=0.12,
                    master_seed=7,
                    threads=threads,
                ),
            )
            runs.append(stats)
        for a, b in zip(runs[0].records, runs[1].records):
            assert records_equal(a, b)

    def test_grid_mismatch(self):
        g = Grid(nx=16, nt=32, T=0.5)
        u0 = SpaceField.sample(Grid(nx=8, nt=32, T=0.5), SIN)
        with pytest.raises(DimensionError):
            mc_run(
                u0,
                g,
                SigmaSpec.cosine(1.0),
                ScalingSchedule.clt(),
                McConfig(eps_grid=(1e-2,), n_paths=4, threshold=0.1),
            )


    def test_batched_paths_match_single_path_solver(self):
        # mc_run steps every eps of a chunk in one batch; recompute each
        # path alone with solve_spde on the same sheet.  80 paths leave a
        # partial second chunk.
        g = Grid(nx=16, nt=32, T=0.5)
        u0 = SpaceField.sample(g, SIN)
        sigma = SigmaSpec.cosine(1.0)
        sched = ScalingSchedule.moderate(0.25)
        mc = McConfig(eps_grid=(1e-2, 2.5e-3), n_paths=80, threshold=0.1, master_seed=5)
        stats = mc_run(u0, g, sigma, sched, mc)
        u_det = solve_deterministic(u0, g)
        sheets = [sample_sheet(g, SeedSpec(mc.master_seed, i)) for i in range(mc.n_paths)]
        for rec in stats.records:
            sup_u, sup_dev = [], []
            for w in sheets:
                u = solve_spde(u0, g, rec.eps, sigma, w)
                sup_u.append(sup_t_l2(u, g))
                sup_dev.append(sup_t_l2(SpaceTimeField(u.frames - u_det.frames, g), g))
            sup_u, sup_dev = np.array(sup_u), np.array(sup_dev)
            hits = int(np.sum(sup_dev / sched.a(rec.eps) > mc.threshold))
            assert 0 < hits < mc.n_paths
            assert rec.p_hat * mc.n_paths == hits
            assert dict(rec.moments_u)[2] == np.mean(sup_u**2)
            assert dict(rec.moments_dev)[2] == np.mean(sup_dev**2)

class TestImportanceSampling:
    G = Grid(nx=24, nt=160, T=0.5)
    THRESHOLD = 0.2032001886166812  # calibrated so the plain estimate is ~2e-3
    BASE = dict(eps_grid=(2.5e-3,), n_paths=2000, threshold=THRESHOLD, master_seed=4242)

    def _run(self, sigma=SigmaSpec.cosine(1.0), **kwargs):
        u0 = SpaceField.sample(self.G, SIN)
        return mc_run(
            u0,
            self.G,
            sigma,
            ScalingSchedule.moderate(0.25),
            McConfig(**{**self.BASE, **kwargs}),
        ).records[0]

    def test_plain_run_is_plain_even_with_few_hits(self):
        rec = self._run()
        assert rec.method == "plain"
        assert rec.p_hat == pytest.approx(0.002, abs=1e-15)  # 4 hits / 2000

    def test_engages_only_below_hit_floor(self):
        rec = self._run(use_importance=True, n_paths=200, threshold=0.05)
        assert rec.method == "plain"  # plenty of plain hits, no tilt needed
        assert rec.p_hat == 1.0

    def test_tilted_estimate_same_decade(self):
        rec = self._run(use_importance=True)
        assert rec.method == "importance"
        assert rec.valid
        assert 2e-4 <= rec.p_hat <= 2e-2
        assert rec.ci_low <= rec.p_hat <= rec.ci_high

    def test_weak_tilt_tracks_plain_estimate(self, monkeypatch):
        plain = self._run()
        monkeypatch.setattr(deviations, "IMPORTANCE_SCALE", 0.05)
        rec = self._run(use_importance=True)
        assert rec.method == "importance"
        # a nearly-flat tilt reweights the same rare region: same decade,
        # overlapping confidence intervals
        assert 3e-4 <= rec.p_hat <= 6e-3
        assert rec.ci_low <= plain.ci_high and plain.ci_low <= rec.ci_high

    @pytest.mark.parametrize(
        "sigma",
        [SigmaSpec.constant(0.0), SigmaSpec.tabulated((-2, 2, 3), (0, 0, 1))],
        ids=["zero", "zero-on-u_det"],
    )
    def test_vanishing_sigma_keeps_plain_record(self, sigma):
        # sigma(u_det) = 0 everywhere: the skeleton response to any tilt is
        # 0, so no tilt can move a path and the plain record stands
        rec = self._run(sigma, use_importance=True, n_paths=64)
        assert rec.method == "plain"
        assert (rec.p_hat, rec.ci_low, rec.failed_fraction) == (0.0, 0.0, 0.0)
        assert rec.valid


# ----------------------------------------------------------- serialization


class TestSerialization:
    def _stats(self):
        g = Grid(nx=16, nt=32, T=0.5)
        u0 = SpaceField.sample(g, SIN)
        return mc_run(
            u0,
            g,
            SigmaSpec.cosine(1.0),
            ScalingSchedule.moderate(0.25),
            McConfig(eps_grid=(1e-2, 5e-3), n_paths=32, threshold=0.1, master_seed=1),
        )

    def test_json_round_trip(self):
        stats = self._stats()
        loaded = json.loads(json.dumps(stats.to_json_dict(), sort_keys=True))
        assert loaded["threshold"] == 0.1
        assert loaded["schedule"] == {"kind": "moderate", "theta": 0.25}
        assert len(loaded["records"]) == 2
        rec = loaded["records"][0]
        assert rec["eps"] == 1e-2
        assert rec["method"] == "plain"
        assert set(rec["moments_dev"]) == {"2"}

    def test_csv_layout(self, tmp_path):
        stats = self._stats()
        path = tmp_path / "stats.csv"
        stats.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per eps
        header = lines[0].split(",")
        for col in ("eps", "p_hat", "ci_low", "ci_high", "method"):
            assert col in header

    def test_stats_is_deviation_stats(self):
        assert isinstance(self._stats(), DeviationStats)


# ------------------------------------------------------ chunked MC passes


class TestChunkedPasses:
    EPS = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

    def _stats(self, nx, nt, n_paths, **kwargs):
        g = Grid(nx=nx, nt=nt, T=1.0)
        mc = McConfig(
            eps_grid=self.EPS, n_paths=n_paths, threshold=0.3, use_importance=True, **kwargs
        )
        return mc_run(
            SpaceField.sample(g, SIN), g, SigmaSpec.cosine(1.0),
            ScalingSchedule.moderate(0.25), mc,
        )

    def test_importance_draws_each_sheet_once_per_pass(self, monkeypatch):
        keys = []
        real = deviations._sheet_blocks

        def counted(g, master_seed, indices, rows):
            keys.extend(indices)
            return real(g, master_seed, indices, rows)

        monkeypatch.setattr(deviations, "_sheet_blocks", counted)
        stats = self._stats(32, 64, 128)
        assert [r.method for r in stats.records] == ["importance"] * 4
        # one plain pass and one tilted pass shared by all four eps
        assert len(keys) == 2 * 128
        assert sorted(keys) == sorted(list(range(128)) * 2)

    def test_dropped_tilted_paths_invalidate_record(self, monkeypatch):
        # a tilt 1e5 times the calibrated one blows every tilted path up
        monkeypatch.setattr(deviations, "IMPORTANCE_SCALE", 1e5)
        stats = self._stats(16, 32, 64)
        for rec in stats.records:
            assert rec.method == "importance"
            assert rec.failed_fraction == 1.0
            assert not rec.valid

    def test_importance_json_independent_of_threads(self):
        texts = [
            json.dumps(self._stats(16, 32, 150, threads=threads).to_json_dict(), sort_keys=True)
            for threads in (1, 2)
        ]
        assert '"importance"' in texts[0]
        assert texts[0] == texts[1]

    # sha256 of the sorted-key JSON of mc_run's stats, recorded with the
    # whole-sheet route (each chunk's sheets drawn at once, a fresh state
    # array per step); numpy 2.4, x86-64 Linux
    KNOWN_DIGESTS = {
        False: "be9d3a831987232e3e5c3d6b544a58e5ee4b48570a435683f05cc9e82fb8e726",
        True: "eb0d765c89d06e55e09ddcd342ec3ea5a229a0325f579d5d7386ebaa5e86df78",
    }

    @pytest.mark.parametrize("use_importance", [False, True])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_stats_json_known_answer(self, threads, use_importance):
        # 50 steps end on a short noise block; 80 paths leave a partial chunk;
        # with importance on, the second eps takes the tilted pass
        g = Grid(nx=16, nt=50, T=0.5)
        mc = McConfig(
            eps_grid=(1e-2, 2.5e-3), n_paths=80, threshold=0.15, master_seed=11,
            use_importance=use_importance, threads=threads,
        )
        stats = mc_run(
            SpaceField.sample(g, SIN), g, SigmaSpec.cosine(1.0),
            ScalingSchedule.moderate(0.25), mc,
        )
        methods = [r.method for r in stats.records]
        assert methods == ["plain", "importance" if use_importance else "plain"]
        text = json.dumps(stats.to_json_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == self.KNOWN_DIGESTS[use_importance]

    def test_default_grid_memory_is_bounded(self):
        # the plain pass holds a block of noise steps, not a chunk's whole
        # sheets: CHUNK_SIZE * nt * (nx-1) floats are 8.3 MB at 64x256
        from burgerslab.cli import DEFAULTS, validate_config

        rc = validate_config(copy.deepcopy(DEFAULTS), threads=1, timestamp=False)
        whole_sheets = CHUNK_SIZE * rc.grid.nt * (rc.grid.nx - 1) * 8
        tracemalloc.start()
        try:
            mc_run(rc.u0, rc.grid, rc.sigma, rc.schedule, rc.mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rc.grid.nx, rc.grid.nt, rc.mc.use_importance) == (64, 256, False)
        assert peak < whole_sheets / 2
