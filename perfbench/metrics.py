"""Metric tables and how each metric is derived from a run.

END_TO_END is what a CLI user sees and what BENCHMARK.json bounds; every
workload reports all of it.  PER_LAYER comes from the traced run; a
metric that belongs to another workload (a layer the workload bypasses,
or a ratio whose base is zero) reads 0 there.
"""

import statistics

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "noise.sample_sheet.calls": ("count", "lower"),
    "noise.sample_sheet.s": ("s", "lower"),
    "noise.sample_sheet.bytes": ("B", "lower"),
    "noise.sample_sheet.one_ms": ("ms", "lower"),
    "noise.sheet_reuse": ("ratio", "higher"),
    "noise.girsanov_log_density.calls": ("count", "lower"),
    "noise.girsanov_log_density.s": ("s", "lower"),
    "solvers.heat_solve.calls": ("count", "lower"),
    "solvers.heat_solve.s": ("s", "lower"),
    "solvers.heat_solve.rhs_cols": ("count", "lower"),
    "solvers.heat_solve.b64_us": ("us", "lower"),
    "solvers.solve_deterministic.calls": ("count", "lower"),
    "solvers.solve_deterministic.s": ("s", "lower"),
    "solvers.solve_spde.s": ("s", "lower"),
    "solvers.solve_spde.one_ms": ("ms", "lower"),
    "solvers.solve_controlled.s": ("s", "lower"),
    "solvers.solve_controlled.one_ms": ("ms", "lower"),
    "solvers.solve_skeleton_fixed_point.s": ("s", "lower"),
    "solvers.solve_skeleton_fixed_point.peak_mb": ("MB", "lower"),
    "solvers.fp_iterations": ("count", "lower"),
    "solvers.fp_ratio_max": ("ratio", "lower"),
    "solvers.mild_gap": ("abs", "lower"),
    "deviations.mc_run.s": ("s", "lower"),
    "deviations.mc_run.peak_mb": ("MB", "lower"),
    "deviations.mc_run_64.s": ("s", "lower"),
    "deviations.self_s": ("s", "lower"),
    "deviations.path_steps": ("count", "lower"),
    "deviations.s_per_path_step": ("s", "lower"),
    "deviations.failed_paths": ("count", "lower"),
    "deviations.thread_speedup": ("ratio", "higher"),
    "ratefn.SkeletonContext.build.s": ("s", "lower"),
    "ratefn.rate_value.s": ("s", "lower"),
    "ratefn.cgls_iters": ("count", "lower"),
    "ratefn.sweeps": ("count", "lower"),
    "ratefn.s_per_sweep": ("s", "lower"),
    "ratefn.self_s": ("s", "lower"),
    "ratefn.vstar_err": ("abs", "lower"),
    "ratefn.apply_forward.s": ("s", "lower"),
    "ratefn.apply_adjoint.s": ("s", "lower"),
    "kernels.eval_G.calls": ("count", "lower"),
    "kernels.eval_G.s": ("s", "lower"),
    "kernels.eval_G.points": ("count", "lower"),
    "kernels.eval_dG_dy.calls": ("count", "lower"),
    "kernels.eval_dG_dy.s": ("s", "lower"),
    "kernels.eval_dG_dy.points": ("count", "lower"),
    "kernels.ns_per_point": ("ns", "lower"),
    "kernels.verify_kernel_estimates.s": ("s", "lower"),
    "kernels.mild_cache_mb": ("MB", "lower"),
    "cli.validate_config.s": ("s", "lower"),
    "cli.read_field_csv.s": ("s", "lower"),
    "cli.write.s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0


def end_to_end(setups: list, ops: list) -> dict:
    """Medians over the run's set-up probes and commands."""
    return {
        "wall_s": statistics.median(o.wall_s for o in ops),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o in ops),
    }


def per_layer(spans, traced, untraced, extra: dict, nt: int, spans_1thread=None) -> dict:
    """Per-layer metrics of one traced command.

    spans: Spans of the traced command; traced/untraced: the Outcomes of the
    traced command and of the same command untraced; extra: metrics taken
    elsewhere (standalone rows, peaks, computed sizes); nt: time steps of
    the grid, so heat solves convert to sweeps; spans_1thread: spans of the
    same traced command at one thread, for the thread speed-up.
    """
    m = {name: 0.0 for name in PER_LAYER}

    def put(prefix, name, keys=("calls", "s")):
        t = spans.total(name)
        for key in keys:
            m[f"{prefix}.{key}"] = float(t[key])
        return t

    sheets = put("noise.sample_sheet", "noise.sample_sheet")
    m["noise.sample_sheet.bytes"] = sheets["amount"]
    m["noise.sheet_reuse"] = ratio(spans.distinct.get("noise.sample_sheet", 0), sheets["calls"])
    put("noise.girsanov_log_density", "noise.girsanov_log_density")

    heat = put("solvers.heat_solve", "solvers.heat_solve")
    m["solvers.heat_solve.rhs_cols"] = heat["amount"]
    put("solvers.solve_deterministic", "solvers.solve_deterministic")
    for name in ("solve_spde", "solve_controlled", "solve_skeleton_fixed_point"):
        put(f"solvers.{name}", f"solvers.{name}", ("s",))

    mc = put("deviations.mc_run", "deviations.mc_run", ("s",))
    m["deviations.self_s"] = mc["self_s"]
    steps = float(spans.amount[spans.under("solvers.heat_solve", "deviations.mc_run")].sum())
    m["deviations.path_steps"] = steps
    m["deviations.s_per_path_step"] = ratio(mc["s"], steps)
    m["deviations.failed_paths"] = float(traced.info.get("failed_paths", 0))
    if spans_1thread is not None:
        m["deviations.thread_speedup"] = ratio(
            spans_1thread.total("deviations.mc_run")["s"], mc["s"]
        )

    put("ratefn.SkeletonContext.build", "ratefn.SkeletonContext.build", ("s",))
    rate = put("ratefn.rate_value", "ratefn.rate_value", ("s",))
    sweeps = spans.under("solvers.heat_solve", "ratefn.rate_value").sum() / nt
    m["ratefn.sweeps"] = float(sweeps)
    m["ratefn.s_per_sweep"] = ratio(rate["s"], sweeps)
    m["ratefn.self_s"] = rate["self_s"]
    m["ratefn.cgls_iters"] = float(traced.info.get("cgls_iters", 0))
    m["ratefn.vstar_err"] = float(traced.info.get("vstar_err", 0.0))

    for name in ("eval_G", "eval_dG_dy"):
        t = put(f"kernels.{name}", f"kernels.{name}")
        m[f"kernels.{name}.points"] = t["amount"]
    put("kernels.verify_kernel_estimates", "kernels.verify_kernel_estimates", ("s",))
    m["solvers.fp_iterations"] = float(traced.info.get("fp_iterations", 0))
    m["solvers.fp_ratio_max"] = float(traced.info.get("fp_ratio_max", 0.0))
    m["solvers.mild_gap"] = float(traced.info.get("mild_gap", 0.0))

    for name in ("validate_config", "read_field_csv", "write"):
        put(f"cli.{name}", f"cli.{name}", ("s",))
    m["cli.bytes_written"] = float(traced.info.get("bytes_written", 0))
    m["cli.self_s"] = spans.total("run")["self_s"]

    m["trace.wall_s"] = traced.wall_s
    m["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    m["trace.spans"] = float(len(spans))
    m.update(extra)
    unknown = set(m) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"metrics not in PER_LAYER: {sorted(unknown)}")
    return m
