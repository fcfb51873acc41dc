"""Processes the benchmark starts: set-up probe, mild-form run, traced runs.

    python3 perfbench/child.py [--trace SPANS.npz] cli SUBCOMMAND ARGS...
    python3 perfbench/child.py [--trace SPANS.npz] mild NX NT T ARGS...
    python3 perfbench/child.py setup WORKLOAD [NX NT T] ARGS...

`cli` runs `burgerslab SUBCOMMAND ARGS...` in this process.  `mild` runs
`burgerslab kernel-check ARGS...`, then the mild-form fixed point of the
skeleton equation at NX x NT up to time T against PDE stepping, and writes
mild.json next to the kernel report.  `setup` does only the work a
workload does before its first call into its main layer, then exits.

With --trace every layer boundary in BOUNDARIES records spans, which are
written to SPANS.npz when the run ends.  `burgerslab` must be importable
(src on PYTHONPATH).
"""

import importlib
import json
import math
import os
import sys

import numpy as np

from spans import SpanRecorder


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _sheet_probe(rec, args, kwargs, result):
    s = _arg(args, kwargs, 1, "s")
    rec.note_key("noise.sample_sheet", (s.master_seed, s.path_index))
    return float(result.dW.nbytes)


def _cols_probe(rec, args, kwargs, result):
    rhs = np.asarray(_arg(args, kwargs, 1, "rhs"))
    return float(rhs.shape[1] if rhs.ndim == 2 else 1)


def _points_probe(rec, args, kwargs, result):
    return float(np.broadcast(*(_arg(args, kwargs, i, n) for i, n in enumerate("txy"))).size)


# (owner inside burgerslab, attribute, span name, probe).  Each entry is a
# name through which one layer calls another; solvers.solve_deterministic
# is also wrapped inside solvers, so the base flow that solve_controlled
# rebuilds is counted.
BOUNDARIES = (
    ("cli", "validate_config", "cli.validate_config", None),
    ("cli", "read_field_csv", "cli.read_field_csv", None),
    ("cli", "_write_json", "cli.write", None),
    ("cli", "_field_to_csv", "cli.write", None),
    ("deviations.DeviationStats", "to_csv", "cli.write", None),
    ("cli", "mc_run", "deviations.mc_run", None),
    ("cli", "verify_kernel_estimates", "kernels.verify_kernel_estimates", None),
    ("ratefn.SkeletonContext", "build", "ratefn.SkeletonContext.build", None),
    ("cli", "rate_value", "ratefn.rate_value", None),
    ("cli", "sample_sheet", "noise.sample_sheet", _sheet_probe),
    ("deviations", "sample_sheet", "noise.sample_sheet", _sheet_probe),
    ("cli", "girsanov_log_density", "noise.girsanov_log_density", None),
    ("cli", "solve_spde", "solvers.solve_spde", None),
    ("cli", "solve_controlled", "solvers.solve_controlled", None),
    ("cli", "solve_deterministic", "solvers.solve_deterministic", None),
    ("deviations", "solve_deterministic", "solvers.solve_deterministic", None),
    ("ratefn", "solve_deterministic", "solvers.solve_deterministic", None),
    ("solvers", "solve_deterministic", "solvers.solve_deterministic", None),
    ("solvers", "solve_skeleton_fixed_point", "solvers.solve_skeleton_fixed_point", None),
    ("deviations", "heat_solve", "solvers.heat_solve", _cols_probe),
    ("ratefn", "heat_solve", "solvers.heat_solve", _cols_probe),
    ("solvers", "eval_G", "kernels.eval_G", _points_probe),
    ("solvers", "eval_dG_dy", "kernels.eval_dG_dy", _points_probe),
)


def _owner(path: str):
    module, _, cls = path.partition(".")
    obj = importlib.import_module(f"burgerslab.{module}")
    return getattr(obj, cls, None) if cls else obj


def install(rec: SpanRecorder) -> None:
    """Wrap every boundary; absent ones are listed in rec.missing."""
    for owner_path, attr, name, probe in BOUNDARIES:
        owner = _owner(owner_path)
        if owner is None:
            rec.missing.append(owner_path)
            continue
        rec.wrap(owner, attr, name, probe)


def run_config(sub: str, cli_args: list, grid=None):
    """Validated RunConfig exactly as `burgerslab SUB ARGS` builds it."""
    from burgerslab import cli

    args = cli.build_parser().parse_args([sub, *cli_args])
    cfg = cli.assemble_config(args)
    if grid is not None:
        cfg["grid"] = {"nx": grid[0], "nt": grid[1], "T": grid[2]}
    threads = args.threads if args.threads else (os.cpu_count() or 1)
    return cli.validate_config(cfg, threads=threads, timestamp=False), args


def unit_sine_control(g):
    """The unit-H_T control sin(pi x), constant in time."""
    from burgerslab import Control, ht_norm

    vals = np.tile(np.sin(np.pi * g.x_interior()), (g.nt, 1))
    return Control(vals / ht_norm(vals, g), g)


def mild_inputs(grid, cli_args: list):
    """Config, base flow and unit control of the mild-form fixed point."""
    from burgerslab import solvers

    rc, args = run_config("kernel-check", cli_args, grid)
    u_det = solvers.solve_deterministic(rc.u0, rc.grid)
    return rc, args, u_det, unit_sine_control(rc.grid)


def run_mild(grid, cli_args: list) -> int:
    """kernel-check, then the mild fixed point against PDE stepping."""
    from burgerslab import SpaceTimeField, cli, solvers, sup_t_l2

    code = cli.main(["kernel-check", *cli_args])
    rc, args, u_det, v = mild_inputs(grid, cli_args)
    g = rc.grid
    report = {"kernel_check_exit": code, "grid": list(grid)}
    try:
        fp = solvers.solve_skeleton_fixed_point(rc.u0, g, v, rc.sigma, u_det)
    except solvers.ContractionFailureError as exc:
        report.update(converged=False, error=str(exc))
        code = code or 3
    else:
        pde = solvers.solve_skeleton(rc.u0, g, v, rc.sigma, u_det)
        gap = sup_t_l2(SpaceTimeField(fp.field.frames - pde.frames, g), g)
        report.update(
            converged=True,
            iterations=fp.iterations,
            ratios=list(fp.ratios),
            gap=gap,
        )
        if not math.isfinite(gap):
            code = code or 3
    with open(os.path.join(args.out or ".", "mild.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return code


def run_setup(workload: str, rest: list) -> int:
    """Set-up work only: import, config validation, base flow or context."""
    from burgerslab import cli, ratefn, solvers

    if workload == "mild":
        mild_inputs((int(rest[0]), int(rest[1]), float(rest[2])), rest[3:])
        return 0
    sub = {"girsanov": "girsanov-check"}.get(workload, workload)
    rc, args = run_config(sub, rest)
    if workload == "rate":
        cli.read_field_csv(args.target)
        ratefn.SkeletonContext.build(rc.u0, rc.grid, rc.sigma, rc.solver)
    else:
        solvers.solve_deterministic(rc.u0, rc.grid, rc.solver)
        if workload == "girsanov":
            unit_sine_control(rc.grid)
    return 0


def _dispatch(argv: list) -> int:
    from burgerslab import cli

    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return cli.main(rest)
    if mode == "mild":
        return run_mild((int(rest[0]), int(rest[1]), float(rest[2])), rest[3:])
    raise SystemExit(f"child.py: unknown mode {mode!r}")


def main(argv: list) -> int:
    if argv[:1] == ["setup"]:
        return run_setup(argv[1], argv[2:])
    if argv[:1] != ["--trace"]:
        return _dispatch(argv)
    path, argv = argv[1], argv[2:]
    rec = SpanRecorder()
    install(rec)
    try:
        with rec.span("run"):
            code = _dispatch(argv)
    finally:
        rec.restore()
        rec.spans().save(path)
        if rec.missing:
            print("untraced (absent): " + ", ".join(rec.missing), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
