"""Command-line front end for reproducible experiments.

Every subcommand is a pure function of the configuration file and the
flags: defaults, then file values, then flags, in increasing precedence.
Fields and controls go to CSV in the lattice layout of burgerslab.grids
(read_field_csv reads either), structured reports to JSON; with
--no-timestamp a rerun reproduces every output byte for byte.

Every config value must have the JSON type of its DEFAULTS entry: a
boolean, a string, or a finite number that is not a boolean (a whole one
where the default is an int, so 16.0 reads as 16).  A list key takes a
list of entries of its default's first entry's type, sigma.params also
lists of them (a tabulated sigma's [xs, ys]); schedule.theta may be null.
A wrong-typed value, like any invalid configuration or flag and any
unwritable output, exits 2 with a message naming it; numerical failure
exits 3 and a failed check 4.

girsanov-check tests the Girsanov density of the unit sine control at
h = 1 on girsanov.n_sheets sheets.  Each worker thread hashes its chunk's
seeds in one vectorised pass (noise._stream_words), then draws the sheets
one at a time into one buffer and reads each at once
(noise._log_densities); only sheet 0, which the route check also drives,
is kept.  On each sheet S = -sum(v dW) is exactly N(0, s2), s2 =
|v|^2_{H_T} the density's own quadratic term (1 up to rounding for the
unit control), so the weight is exp(S - s2/2).  Two
tests decide: the mean weight lies within 3.2 exact standard errors
sqrt(expm1(s2)/n) of one (reported as mean_within_3se, the name perfbench
reads), and Q = sum(S^2)/s2 fits its exact chi-squared law with n
degrees of freedom, two-sided.  Each has size erfc(3.2/sqrt(2)) = 0.137%
for a normal statistic, half that of one 3-se test; the report's
false_alarm_rate is their sum, and the comment at GIRSANOV_Z gives the
rate measured at the default n.  The check also compares the controlled
solver with the route through the shifted noise.
"""

import argparse
import copy
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .deviations import McConfig, ScalingSchedule, _map_chunks, deviation_field, mc_run
from .grids import Control, Grid, SpaceField, SpaceTimeField, ht_norm, sup_t_l2
from .grids import frame_norms, read_lattice_csv, write_lattice_csv
from .kernels import verify_kernel_estimates
from .noise import NoiseSheet, SeedSpec, _log_densities, girsanov_log_density
from .noise import girsanov_shift, sample_sheet
from .ratefn import SkeletonContext, rate_value
from .solvers import (
    HEAT_BACKEND,
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

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_CHECK = 4

DEFAULTS = {
    "grid": {"nx": 64, "nt": 256, "T": 1.0},
    "initial": {"kind": "sine", "amplitude": 1.0, "mode": 1},
    "sigma": {"kind": "cosine", "params": [1.0]},
    "schedule": {"kind": "moderate", "theta": 0.25},
    "mc": {
        "eps_grid": [1e-2, 5e-3, 2.5e-3, 1.25e-3],
        "n_paths": 256,
        "r": 0.12,
        "q_list": [2],
        "seed": 0,
        "use_importance": False,
        "importance_scale": 0.5,
    },
    "solver": {"fp_tol": 1e-4, "fp_max_iter": 40},
    # max_iter bounds CGLS, run only on targets with no exact lattice preimage
    "rate": {"tol": 1e-6, "max_iter": 2000},
    # n_sheets by power against an error delta in the density's quadratic
    # term, the fault this check exists for: it moves the mean weight by
    # about delta/2, which the 3-se mean test on 20000 sheets saw from
    # delta = 6*sqrt(expm1(1)/20000) = 0.0556, and Q/n by delta, which the
    # 3.2-se chi-squared test sees from 3.2*sqrt(2/n), 0.0553 at n = 6700
    "girsanov": {"n_sheets": 6700, "eps": 1e-3, "route_tol": 1e-10},
    "output": {"dir": "."},
}


_MC_KEYS = {  # McConfig field -> the mc key it is read from
    "eps_grid": "eps_grid", "n_paths": "n_paths", "threshold": "r",
    "moment_orders": "q_list", "master_seed": "seed",
    "use_importance": "use_importance", "importance_scale": "importance_scale",
}


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 2."""


# ------------------------------------------------------ config assembly


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if key not in base:
            raise ConfigError(f"unknown config key: {path}{key}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path}{key} must be a table")
            out[key] = _merge(base[key], val, f"{path}{key}.")
        else:
            out[key] = val
    return out


def _load_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def assemble_config(args) -> dict:
    """defaults < config file < flags."""
    cfg = copy.deepcopy(DEFAULTS)
    if args.config:
        cfg = _merge(cfg, _load_file(args.config))
    if args.seed is not None:
        cfg["mc"]["seed"] = args.seed
    if args.out is not None:
        cfg["output"]["dir"] = args.out
    return cfg


@dataclass(frozen=True)
class RunConfig:
    """Validated run: every module object constructed up front."""

    grid: Grid
    u0: SpaceField
    sigma: SigmaSpec
    schedule: ScalingSchedule
    mc: McConfig
    solver: SolverConfig
    rate_tol: float
    rate_max_iter: int
    girsanov_n_sheets: int
    girsanov_eps: float
    girsanov_route_tol: float
    out_dir: str
    timestamp: bool


def _typed(default, val, key: str):
    """val checked against the JSON type of default; numbers come back as its int or float."""
    if val is None and key == "schedule.theta":
        return None
    if isinstance(default, list):
        if not isinstance(val, list):
            raise ValueError(f"{key} must be a list, got {val!r}")
        return [
            [_typed(default[0], v, key) for v in entry]
            if isinstance(entry, list) and key == "sigma.params"
            else _typed(default[0], entry, key)
            for entry in val
        ]
    if isinstance(default, (bool, str)):
        if type(val) is not type(default):
            want = "a boolean" if isinstance(default, bool) else "a string"
            raise ValueError(f"{key} must be {want}, got {val!r}")
        return val
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValueError(f"{key} must be a number, got {val!r}")
    if isinstance(default, int):
        if isinstance(val, float) and not val.is_integer():
            raise ValueError(f"{key} must be a whole number, got {val!r}")
        return int(val)
    # an int past the float range is no finite float either
    if isinstance(val, int) and abs(val) > sys.float_info.max or not math.isfinite(val):
        raise ValueError(f"{key} must be a finite number, got {val!r}")
    return float(val)


def _build_initial(g: Grid, spec: dict) -> SpaceField:
    kind = spec["kind"]
    if kind == "zero":
        return SpaceField.zero(g)
    if kind == "sine":
        amp, mode = spec["amplitude"], spec["mode"]
        if mode < 1:
            raise ConfigError("initial.mode must be a positive integer")
        return SpaceField.sample(g, lambda x: amp * np.sin(mode * np.pi * x))
    raise ConfigError(f"initial.kind must be zero|sine, got {kind!r}")


def _build_sigma(spec: dict) -> SigmaSpec:
    kind = spec["kind"]
    if kind not in ("constant", "cosine", "tabulated"):
        raise ConfigError(f"sigma.kind must be constant|cosine|tabulated, got {kind!r}")
    try:
        return getattr(SigmaSpec, kind)(*spec["params"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sigma.params do not fit a {kind} sigma: {exc}") from exc


def _build_schedule(spec: dict) -> ScalingSchedule:
    kind = spec["kind"]
    try:
        return ScalingSchedule(kind, spec["theta"] if kind == "moderate" else None)
    except ValueError as exc:
        # a moderate schedule can only fail on its theta
        key = "schedule.theta" if kind == "moderate" else "schedule.kind"
        raise ValueError(f"{key}: {exc}") from exc


def _build_mc(spec: dict, threads: int) -> McConfig:
    try:
        return McConfig(**{f: spec[k] for f, k in _MC_KEYS.items()}, threads=threads)
    except ValueError as exc:
        field = str(exc).split()[0]
        key = f"mc.{_MC_KEYS[field]}" if field in _MC_KEYS else "--threads"
        raise ValueError(f"{key}: {exc}") from exc


def validate_config(cfg: dict, threads: int, timestamp: bool) -> RunConfig:
    try:
        # a typed copy: from here on every value has its DEFAULTS type
        cfg = {sec: {k: _typed(d, cfg[sec][k], f"{sec}.{k}") for k, d in keys.items()}
               for sec, keys in DEFAULTS.items()}
        g = Grid(**cfg["grid"])
        u0 = _build_initial(g, cfg["initial"])
        sigma = _build_sigma(cfg["sigma"])
        schedule = _build_schedule(cfg["schedule"])
        mc = _build_mc(cfg["mc"], threads)
        solver = SolverConfig(**cfg["solver"])
        rate_tol, rate_max_iter = cfg["rate"]["tol"], cfg["rate"]["max_iter"]
        if not (rate_tol > 0 and rate_max_iter >= 1):
            raise ValueError("rate.tol must be positive, rate.max_iter >= 1")
        n_sheets = cfg["girsanov"]["n_sheets"]
        geps = cfg["girsanov"]["eps"]
        rtol = cfg["girsanov"]["route_tol"]
        if not (n_sheets >= 2 and geps > 0 and rtol > 0):
            raise ValueError("girsanov needs n_sheets >= 2 and positive eps/route_tol")
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return RunConfig(
        grid=g,
        u0=u0,
        sigma=sigma,
        schedule=schedule,
        mc=mc,
        solver=solver,
        rate_tol=rate_tol,
        rate_max_iter=rate_max_iter,
        girsanov_n_sheets=n_sheets,
        girsanov_eps=geps,
        girsanov_route_tol=rtol,
        out_dir=cfg["output"]["dir"],
        timestamp=timestamp,
    )


# ------------------------------------------------------------ file output


def _metadata(rc: RunConfig, command: str) -> dict:
    meta = {"tool": "burgerslab", "version": __version__, "command": command,
            "heat_solve": HEAT_BACKEND}
    if rc.timestamp:
        meta["generated_at"] = datetime.now(timezone.utc).isoformat()
    return meta


def _write_json(obj: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _field_to_csv(frames: np.ndarray, g: Grid, path: str, label: str) -> None:
    """Field or control in the lattice layout; label is accepted, not written."""
    write_lattice_csv(path, frames, g)


def read_field_csv(path: str) -> tuple:
    """Read a field or control CSV back as (values, Grid)."""
    try:
        return read_lattice_csv(path)
    except (ValueError, IndexError, OSError) as exc:
        raise ConfigError(f"cannot read field file {path}: {exc}") from exc


# ------------------------------------------------------------- commands


def cmd_deterministic(rc: RunConfig) -> int:
    field = solve_deterministic(rc.u0, rc.grid, rc.solver)
    _field_to_csv(field.frames, rc.grid, os.path.join(rc.out_dir, "solution.csv"), "field")
    summary = {
        "metadata": _metadata(rc, "deterministic"),
        "energy": frame_norms(field.frames, rc.grid).tolist(),
        "sup_t_l2": sup_t_l2(field, rc.grid),
    }
    _write_json(summary, os.path.join(rc.out_dir, "summary.json"))
    return EXIT_OK


def cmd_simulate(rc: RunConfig, eps: float | None) -> int:
    if eps is None:
        eps = rc.mc.eps_grid[0]
    if not 0 <= eps < math.inf:
        raise ConfigError(f"eps must be finite and nonnegative, got {eps}")
    w = sample_sheet(rc.grid, SeedSpec(rc.mc.master_seed, 0))
    u_eps = solve_spde(rc.u0, rc.grid, eps, rc.sigma, w, rc.solver)
    u_det = solve_deterministic(rc.u0, rc.grid, rc.solver)
    if eps == 0.0:
        # the path coincides with the limit bit for bit; the rescaled
        # deviation is identically zero whatever the schedule says
        dev_frames = np.zeros_like(u_eps.frames)
    else:
        dev_frames = deviation_field(u_eps, u_det, rc.schedule, eps).frames
    _field_to_csv(u_eps.frames, rc.grid, os.path.join(rc.out_dir, "solution.csv"), "field")
    _field_to_csv(dev_frames, rc.grid, os.path.join(rc.out_dir, "deviation.csv"), "field")
    summary = {
        "metadata": _metadata(rc, "simulate"),
        "eps": eps,
        "seed": rc.mc.master_seed,
        "schedule": {"kind": rc.schedule.kind, "theta": rc.schedule.theta},
        "sup_t_l2_solution": sup_t_l2(u_eps, rc.grid),
        "sup_t_l2_deviation": sup_t_l2(dev_frames, rc.grid),
    }
    _write_json(summary, os.path.join(rc.out_dir, "summary.json"))
    return EXIT_OK


def cmd_mc(rc: RunConfig) -> int:
    stats = mc_run(rc.u0, rc.grid, rc.sigma, rc.schedule, rc.mc, rc.solver)
    report = {"metadata": _metadata(rc, "mc")}
    report.update(stats.to_json_dict())
    _write_json(report, os.path.join(rc.out_dir, "stats.json"))
    stats.to_csv(os.path.join(rc.out_dir, "stats.csv"))
    return EXIT_OK if all(r.valid for r in stats.records) else EXIT_CHECK


def cmd_kernel_check(rc: RunConfig) -> int:
    g = rc.grid
    report = verify_kernel_estimates(g)
    # the mild fixed point against PDE stepping, for the unit sine control
    v = _unit_profile_control(g)
    u_det = solve_deterministic(rc.u0, g, rc.solver)
    fp = solve_skeleton_fixed_point(rc.u0, g, v, rc.sigma, u_det, rc.solver)
    pde = solve_skeleton(rc.u0, g, v, rc.sigma, u_det)
    gap = sup_t_l2(fp.field.frames - pde.frames, g)
    budget = max(5.0 * g.dx**2, 10.0 * rc.solver.fp_tol)
    mild = {
        "iterations": fp.iterations,
        "ratios": list(fp.ratios),
        "gap": gap,
        "budget": budget,
        "pass": gap <= budget,
    }
    payload = {
        "metadata": _metadata(rc, "kernel-check"),
        "items": report.to_json_list(),
        "all_pass": report.all_pass(),
        "mild": mild,
    }
    _write_json(payload, os.path.join(rc.out_dir, "kernel_report.json"))
    return EXIT_OK if report.all_pass() and mild["pass"] else EXIT_CHECK


def cmd_rate(rc: RunConfig, target_path: str | None) -> int:
    if not target_path:
        raise ConfigError("rate needs --target FILE (field CSV)")
    frames, tg = read_field_csv(target_path)
    if tg != rc.grid:
        raise ConfigError(
            f"target grid {tg} does not match configured grid {rc.grid}"
        )
    try:
        target = SpaceTimeField(frames, rc.grid)
        ctx = SkeletonContext.build(rc.u0, rc.grid, rc.sigma, rc.solver)
        result = rate_value(
            target, ctx, tol=rc.rate_tol, max_iter=rc.rate_max_iter
        )
    except ValueError as exc:
        raise ConfigError(f"invalid rate target: {exc}") from exc
    v_path = os.path.join(rc.out_dir, "v_star.csv")
    _field_to_csv(result.v_star.values, rc.grid, v_path, "control")
    payload = {"metadata": _metadata(rc, "rate")}
    payload.update(result.to_json_dict(v_star_csv_path="v_star.csv"))
    _write_json(payload, os.path.join(rc.out_dir, "rate_result.json"))
    return EXIT_OK


def _unit_profile_control(g: Grid) -> Control:
    vals = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
    return Control(vals / ht_norm(vals, g), g)


# Each test of girsanov-check rejects a true density with probability
# erfc(3.2/sqrt(2)) = 0.137% when its statistic is normal, so a seed fails
# one of them with probability at most 0.275%.  The mean of lognormal
# weights has slightly heavier tails: drawing S from its exact law, 200000
# runs of 6700 sheets read 0.15% (mean), 0.15% (chi-squared) and 0.29%
# (either); one 3-se test with the sample stderr on 20000 sheets reads 0.31%.
GIRSANOV_Z = 3.2
GIRSANOV_P_MIN = math.erfc(GIRSANOV_Z / math.sqrt(2.0))


def _chi2_sf(x: float, k: int) -> float:
    """P(X > x) for X chi-squared with k degrees of freedom.

    This is the regularized upper incomplete gamma function Q(k/2, x/2):
    one minus its power series below x/2 = k/2 + 1, where Q stays above
    about 0.08, its continued fraction (modified Lentz) above, each summed
    to double precision (Numerical Recipes, 3rd ed., section 6.2).  The
    prefactor y^a e^-y / Gamma(a) is formed from logs of size k, so the
    relative error grows like k times the rounding unit: 3e-12 at k = 6000.
    """
    if k < 1:
        raise ValueError(f"chi-squared tail needs k >= 1 degrees of freedom, got {k}")
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    a, y = 0.5 * k, 0.5 * x
    prefactor = math.exp(a * math.log(y) - y - math.lgamma(a))
    # both expansions converge in O(sqrt(a)) terms; the cap only stops a loop
    cap = 100 + 20 * math.isqrt(int(a) + 1)
    if y < a + 1.0:
        # P(a, y) = prefactor * sum_n y^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        for n in range(1, cap):
            term *= y / (a + n)
            total += term
            if term < total * 1e-17:
                break
        return 1.0 - prefactor * total
    # Q(a, y) = prefactor / (y+1-a - 1(1-a)/(y+3-a - 2(2-a)/(y+5-a - ...)))
    tiny = 1e-300
    b = y + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    f = d
    for n in range(1, cap):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        f *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return prefactor * f


def _density_tests(log_dens: np.ndarray, s2: float) -> dict:
    """girsanov-check's two tests of n log-densities -S - s2/2, S ~ N(0, s2).

    The mean weight against its exact standard error, and Q = sum(S^2)/s2
    against chi-squared with n degrees of freedom, two-sided.
    """
    n = log_dens.size
    # libm's exp per sheet; numpy's vectorised exp may round differently
    mean = float(np.mean([math.exp(x) for x in log_dens]))
    stderr = math.sqrt(math.expm1(s2) / n)
    s = log_dens + 0.5 * s2
    q = float(np.sum(s * s)) / s2
    sf = _chi2_sf(q, n)
    p_value = 2.0 * min(sf, 1.0 - sf)
    return {
        "mean": mean,
        "stderr": stderr,
        "mean_within_3se": abs(mean - 1.0) <= GIRSANOV_Z * stderr,
        "variance_ratio": q / n,
        "variance_p_value": p_value,
        "variance_pass": p_value >= GIRSANOV_P_MIN,
    }


def cmd_girsanov_check(rc: RunConfig) -> int:
    g = rc.grid
    v = _unit_profile_control(g)
    seed = rc.mc.master_seed

    # density with no shift is exp(0) on every sheet
    w0 = sample_sheet(g, SeedSpec(seed, 0))
    zero_mean = float(math.exp(girsanov_log_density(w0, Control.zero(g), 1.0)))

    # the density's quadratic term, read off the zero sheet: log-density -s2/2
    s2 = -2.0 * girsanov_log_density(NoiseSheet(np.zeros_like(w0.dW), seed=0, grid=g), v, 1.0)

    # log-density per independent sheet, h = 1; each worker streams its
    # chunk's sheets through one buffer and keeps none of them
    def chunk_log_densities(indices):
        return _log_densities(g, seed, indices, v, 1.0)

    n = rc.girsanov_n_sheets
    log_dens = np.concatenate(_map_chunks(chunk_log_densities, n, rc.mc.threads))
    tests = _density_tests(log_dens, s2)

    # the controlled solver against the shifted-noise route; the zero and
    # shifted sheets are temporaries, so neither stays live to the report
    eps = rc.girsanov_eps
    h = rc.schedule.h(eps)
    u_det = solve_deterministic(rc.u0, g, rc.solver)
    via = deviation_field(
        solve_spde(rc.u0, g, eps, rc.sigma, girsanov_shift(w0, v, h), rc.solver),
        u_det,
        rc.schedule,
        eps,
    )
    direct = solve_controlled(
        rc.u0, g, eps, rc.schedule, rc.sigma, v, w0, rc.solver, u_det=u_det
    )
    gap = sup_t_l2(direct.frames - via.frames, g)
    route_pass = gap <= rc.girsanov_route_tol

    payload = {
        "metadata": _metadata(rc, "girsanov-check"),
        "seed": seed,
        "zero_control_mean": zero_mean,
        "n_sheets": n,
        "s2": s2,
        **tests,
        "false_alarm_rate": 2.0 * GIRSANOV_P_MIN,
        "eps": eps,
        "route_gap": gap,
        "route_tol": rc.girsanov_route_tol,
        "route_pass": route_pass,
    }
    _write_json(payload, os.path.join(rc.out_dir, "girsanov_report.json"))
    ok = (
        tests["mean_within_3se"]
        and tests["variance_pass"]
        and route_pass
        and zero_mean == 1.0
    )
    return EXIT_OK if ok else EXIT_CHECK


# ----------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", help="JSON config file; its values override the defaults"
    )
    common.add_argument("--seed", type=int, metavar="U64", help="override mc.seed")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="worker threads for mc and girsanov-check (default: available cores)",
    )
    common.add_argument("--out", metavar="DIR", help="override output.dir")
    common.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the timestamp so reruns are byte-identical",
    )
    common.add_argument(
        "--dump-config",
        action="store_true",
        help="print the effective configuration and exit",
    )

    parser = argparse.ArgumentParser(
        prog="burgerslab",
        description="Stochastic Burgers equation laboratory",
        epilog="A run reads only its config file and its flags; flags override file "
        "values, which override the defaults.  Fields and controls are written "
        "as lattice CSV.",
    )
    parser.add_argument(
        "--version", action="version", version=f"burgerslab {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "deterministic", parents=[common], help="zero-noise solution and energy"
    )
    sim = sub.add_parser(
        "simulate", parents=[common], help="one noisy path plus its deviation field"
    )
    sim.add_argument(
        "--eps", type=float, default=None, help="noise amplitude (default mc.eps_grid[0])"
    )
    sub.add_parser("mc", parents=[common], help="Monte Carlo deviation statistics")
    sub.add_parser(
        "kernel-check",
        parents=[common],
        help="re-measure the heat-kernel estimates; check the mild fixed point",
    )
    rate = sub.add_parser(
        "rate", parents=[common], help="least control energy of a target profile"
    )
    rate.add_argument("--target", metavar="CSV", help="target field file")
    sub.add_parser(
        "girsanov-check",
        parents=[common],
        help="test the Girsanov density's mean and its exact chi-squared variance "
        "law; compare the controlled solver with the shifted-noise route",
    )
    return parser


def _available_cores() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = assemble_config(args)
        if args.dump_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        threads = _available_cores() if args.threads is None else args.threads
        rc = validate_config(cfg, threads=threads, timestamp=not args.no_timestamp)
        os.makedirs(rc.out_dir, exist_ok=True)
        if args.command == "deterministic":
            return cmd_deterministic(rc)
        if args.command == "simulate":
            return cmd_simulate(rc, args.eps)
        if args.command == "mc":
            return cmd_mc(rc)
        if args.command == "kernel-check":
            return cmd_kernel_check(rc)
        if args.command == "rate":
            return cmd_rate(rc, args.target)
        return cmd_girsanov_check(rc)
    except ConfigError as exc:
        print(f"burgerslab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # creating the output directory or writing a file in it
        print(f"burgerslab: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstabilityError, ContractionFailureError) as exc:
        print(f"burgerslab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
