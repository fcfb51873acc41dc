"""The four workloads: their inputs, the command a user runs, and checks.

Every workload is one command run in a fresh process, the way a user of
the `burgerslab` CLI runs it, at the CLI's default configuration unless a
scale says otherwise (the tests pass a tiny one).  The benchmark makes the
inputs from the seed and hands the program only those.
"""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = ROOT / "perfbench" / "child.py"

# CLI config overrides (none: the defaults) and the grid (nx, nt, T) of
# the mild-form fixed point.
DEFAULT_SCALE = {"config": {}, "fp_grid": (32, 64, 0.1)}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Context:
    """One benchmark run: seed, scratch directory, scale, thread count."""

    seed: int
    workdir: Path
    scale: dict = field(default_factory=lambda: dict(DEFAULT_SCALE))
    threads: int = field(default_factory=nproc)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        return env

    def config_args(self) -> list:
        if not self.scale["config"]:
            return []
        path = self.workdir / "config.json"
        path.write_text(json.dumps(self.scale["config"]))
        return ["--config", str(path)]

    def run_config(self, sub: str = "mc", grid=None):
        """The validated config `burgerslab SUB` builds for this run."""
        return child.run_config(sub, self.config_args(), grid)[0]


@dataclass
class Outcome:
    """One process: exit code, wall time, peak RSS, and what was checked."""

    code: int
    wall_s: float
    peak_rss_mb: float
    ok: bool = False
    problems: list = field(default_factory=list)
    info: dict = field(default_factory=dict)


def spawn(cmd: list, ctx: Context, log: Path) -> Outcome:
    """Run cmd to completion; wall time and the child's own peak RSS."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ctx.env(), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


class Workload:
    name = ""
    why = ""
    sub = ""  # burgerslab subcommand
    throughput = ""  # printed name of items / (wall_s - setup_s)

    def prepare(self, ctx: Context) -> None:
        """Write the inputs the program reads; default: none."""

    def items(self, ctx: Context) -> float:
        """Work items one command completes, for the throughput line."""
        raise NotImplementedError

    def cli_args(self, ctx: Context, out: Path, threads: int) -> list:
        return ["--seed", str(ctx.seed), "--out", str(out), "--no-timestamp", *ctx.config_args()]

    def command(self, ctx: Context, out: Path, threads: int) -> list:
        return [sys.executable, "-m", "burgerslab", self.sub, *self.cli_args(ctx, out, threads)]

    def traced_command(self, ctx: Context, out: Path, threads: int, spans: Path) -> list:
        args = self.cli_args(ctx, out, threads)
        return [sys.executable, str(CHILD), "--trace", str(spans), "cli", self.sub, *args]

    def setup_command(self, ctx: Context, out: Path) -> list:
        args = self.cli_args(ctx, out, ctx.threads)
        return [sys.executable, str(CHILD), "setup", self.name, *args]

    def check(self, ctx: Context, out: Path, o: Outcome) -> None:
        """Fill o.ok, o.problems and o.info from the files the run wrote."""
        if o.code != 0:
            o.problems.append(f"exit code {o.code}")
        self._check(ctx, out, o)
        o.ok = not o.problems

    def _check(self, ctx: Context, out: Path, o: Outcome) -> None:
        raise NotImplementedError


class Mc(Workload):
    name = "mc"
    why = (
        "headline MC run at the default config, nproc threads: time splits over "
        "noise, solvers and deviations; ratefn and kernels are bypassed"
    )
    sub = "mc"
    throughput = "mc_paths_per_s"

    def items(self, ctx):
        mc = ctx.run_config().mc
        return float(mc.n_paths * len(mc.eps_grid))

    def cli_args(self, ctx, out, threads):
        return [*super().cli_args(ctx, out, threads), "--threads", str(threads)]

    def _check(self, ctx, out, o):
        stats = _read_json(out / "stats.json")
        if stats is None:
            o.problems.append("stats.json missing or unreadable")
            return
        records = stats["records"]
        bad = [r["eps"] for r in records if not r["valid"]]
        if bad:
            o.problems.append(f"invalid records at eps {bad}")
        o.info["failed_paths"] = sum(round(r["failed_fraction"] * r["n_paths"]) for r in records)
        o.info["stats_bytes"] = (out / "stats.json").read_bytes()


class Rate(Workload):
    name = "rate"
    why = (
        "rate --target on a seeded smooth response: nearly all time is ratefn CGLS "
        "sweeps, no noise or MC work"
    )
    sub = "rate"
    throughput = "target_cells_per_s"

    def _target_path(self, ctx):
        return ctx.workdir / "target.csv"

    def prepare(self, ctx):
        """Target = response of a seeded smooth control of unit H_T norm.

        The control is a 3x3 sum of sin(i pi x) cos(j pi t) modes with
        weights 1 + 0.1 z, z standard normal from the seed.  Equal weights
        with a small seeded jitter keep CGLS near one iteration count on
        every seed; independent normal weights move it from 820 to 1210
        iterations between seeds.
        """
        from burgerslab import Control, SkeletonContext, apply_forward, cli, ht_norm

        rc = ctx.run_config("rate")
        g = rc.grid
        rng = np.random.default_rng(ctx.seed)
        weights = 1.0 + 0.1 * rng.standard_normal((3, 3))
        t = g.t_nodes()[:-1]
        x = g.x_interior()
        vals = sum(
            weights[i, j] * np.outer(np.cos(j * np.pi * t), np.sin((i + 1) * np.pi * x))
            for i in range(3)
            for j in range(3)
        )
        vals = vals / ht_norm(vals, g)
        ctx_map = SkeletonContext.build(rc.u0, g, rc.sigma, rc.solver)
        target = apply_forward(Control(vals, g), ctx_map)
        path = self._target_path(ctx)
        writer = getattr(cli, "_field_to_csv", None)
        if writer is not None:
            writer(target.frames, g, str(path), "field")
        else:
            target.to_csv(str(path))
        self.v_gen = vals
        self.target = target

    def items(self, ctx):
        g = self.target.grid
        return float(g.nt * (g.nx - 1))

    def cli_args(self, ctx, out, threads):
        return [*super().cli_args(ctx, out, threads), "--target", str(self._target_path(ctx))]

    def _check(self, ctx, out, o):
        from burgerslab import cli, sup_t_l2

        res = _read_json(out / "rate_result.json")
        if res is None:
            o.problems.append("rate_result.json missing or unreadable")
            return
        tol = ctx.run_config("rate").rate_tol
        limit = tol * min(1.0, sup_t_l2(self.target, self.target.grid))
        if not res["attained"]:
            o.problems.append("rate not attained")
        if not res["residual"] <= limit:
            o.problems.append(f"residual {res['residual']:.3g} above {limit:.3g}")
        v_star, _ = cli.read_field_csv(str(out / "v_star.csv"))
        err = float(np.max(np.abs(v_star - self.v_gen)))
        if not math.isfinite(err):
            o.problems.append("v* is not finite")
        o.info.update(vstar_err=err, cgls_iters=res["iterations"])


class Girsanov(Workload):
    name = "girsanov"
    why = (
        "girsanov-check, 20000 sheets drawn one at a time and read by the density, "
        "plus single-path solve_spde and solve_controlled"
    )
    sub = "girsanov-check"
    throughput = "girsanov_sheets_per_s"

    def items(self, ctx):
        return float(ctx.run_config("girsanov-check").girsanov_n_sheets)

    def _check(self, ctx, out, o):
        rep = _read_json(out / "girsanov_report.json")
        if rep is None:
            o.problems.append("girsanov_report.json missing or unreadable")
            return
        for key in ("mean_within_3se", "route_pass"):
            if not rep[key]:
                o.problems.append(f"{key} is false")
        o.info["route_gap"] = rep["route_gap"]


class Mild(Workload):
    name = "mild"
    why = (
        "kernel-check, then the mild-form fixed point at 32x64, T=0.1 against PDE "
        "stepping: the only workload that runs kernels and the kernel cache"
    )
    sub = "kernel-check"
    throughput = "fp_cells_per_s"

    def _grid_args(self, ctx):
        return [str(v) for v in ctx.scale["fp_grid"]]

    def items(self, ctx):
        nx, nt, _ = ctx.scale["fp_grid"]
        return float(nt * (nx - 1))

    def command(self, ctx, out, threads):
        args = self.cli_args(ctx, out, threads)
        return [sys.executable, str(CHILD), "mild", *self._grid_args(ctx), *args]

    def traced_command(self, ctx, out, threads, spans):
        args = self.cli_args(ctx, out, threads)
        return [sys.executable, str(CHILD), "--trace", str(spans), "mild", *self._grid_args(ctx), *args]

    def setup_command(self, ctx, out):
        args = self.cli_args(ctx, out, ctx.threads)
        return [sys.executable, str(CHILD), "setup", "mild", *self._grid_args(ctx), *args]

    def _check(self, ctx, out, o):
        kern = _read_json(out / "kernel_report.json")
        mild = _read_json(out / "mild.json")
        if kern is None or not kern["all_pass"]:
            o.problems.append("kernel-check all_pass is not true")
        if mild is None or not mild.get("converged"):
            o.problems.append("mild fixed point did not converge")
            return
        o.info.update(
            mild_gap=mild["gap"],
            fp_iterations=mild["iterations"],
            fp_ratio_max=max(mild["ratios"], default=0.0),
        )


WORKLOADS = {w.name: w for w in (Mc, Rate, Girsanov, Mild)}
