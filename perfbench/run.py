"""Benchmark of the burgerslab CLI: four seeded workloads, checked outputs.

    python3 perfbench/run.py --workload {mc,rate,girsanov,mild} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the run first times several fresh set-up processes,
then runs the workload's command again and again in fresh processes for
about S seconds, checks every command's output, and reports the
end-to-end metrics (medians).  With --trace 1 it runs the command once
untraced and once with spans recorded at every layer boundary (for `mc`
also at one thread), adds the standalone per-layer timings, and reports
the per-layer metrics; it does fixed work and ignores --seconds.

Lines before the last describe the machine, the versions and each metric
with its unit; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check
passed, 1 when one failed, 2 when the checkout has no program to run.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import standalone
from child import mild_inputs
from spans import Spans
from workloads import DEFAULT_SCALE, WORKLOADS, Context, nproc, spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    notes: dict = field(default_factory=dict)  # name -> text; printed, not in the JSON


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _read(path) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:]).strip() or None
    return head or None


def _blas(mod) -> str:
    try:
        dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{dep.get('name')} {dep.get('version')}"


def environment(workload, seed: int) -> dict:
    """Machine, library versions and commit that every result is tied to."""
    import numpy
    import scipy

    model = platform.processor()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level").strip(), _read(idx / "type").strip()
        caches[f"L{level}-{kind}"] = _read(idx / "size").strip()
    return {
        "nproc": nproc(),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "commit": _git_commit(),
        "seed": seed,
        "workload": workload.name,
        "why": workload.why,
    }


def timed_run(w, ctx, seconds: float) -> Result:
    """End-to-end: set-up probes, then repeated commands for `seconds`."""
    w.prepare(ctx)
    setups = [
        spawn(w.setup_command(ctx, ctx.workdir / "setup"), ctx, ctx.workdir / f"setup{i}.log")
        for i in range(SETUP_REPEATS)
    ]
    problems = [f"set-up probe exited {o.code}" for o in setups if o.code != 0]
    ops = []
    t0 = time.perf_counter()
    # start another command while the run, ending with it, is expected to
    # overrun `seconds` by less than half a command: long commands then give
    # two or three samples instead of one or two
    while not ops or time.perf_counter() - t0 + statistics.median(o.wall_s for o in ops) / 2 <= seconds:
        out = ctx.workdir / f"op{len(ops)}"
        out.mkdir()
        o = spawn(w.command(ctx, out, ctx.threads), ctx, out / "log.txt")
        w.check(ctx, out, o)
        if ops and o.info.get("stats_bytes") != ops[0].info.get("stats_bytes"):
            o.problems.append("stats.json differs from the first command of the same seed")
            o.ok = False
        ops.append(o)
        shutil.rmtree(out)
    problems += [p for o in ops for p in o.problems]
    m = metrics.end_to_end([o.wall_s for o in setups], ops)
    failed = sum(o.code != 0 for o in setups) + sum(not o.ok for o in ops)
    notes = {
        "failed_frac": f"{failed / (len(setups) + len(ops))!r} ratio",
        w.throughput: f"{metrics.ratio(w.items(ctx), m['wall_s'] - m['setup_s'])!r} 1/s",
        "commands": f"{len(ops)} count",
        "wall_s_each": " ".join(f"{o.wall_s:.3f}" for o in ops) + " s",
        "setup_s_each": " ".join(f"{o.wall_s:.3f}" for o in setups) + " s",
    }
    for key, name in (("vstar_err", "rate_vstar_err"), ("mild_gap", "mild_gap")):
        values = [o.info[key] for o in ops if key in o.info]
        if values:
            notes[name] = f"{statistics.median(values)!r} abs"
    return Result(m, len(setups) + len(ops), failed, problems, notes)


def traced_run(w, ctx) -> Result:
    """Per-layer: one untraced and one traced command, standalone rows."""
    w.prepare(ctx)
    plan = [("untraced", ctx.threads, False), ("traced", ctx.threads, True)]
    if w.name == "mc":
        plan.append(("traced1", 1, True))
    runs = {}
    for label, threads, traced in plan:
        out = ctx.workdir / label
        out.mkdir()
        spans_path = ctx.workdir / f"{label}.npz"
        if traced:
            cmd = w.traced_command(ctx, out, threads, spans_path)
        else:
            cmd = w.command(ctx, out, threads)
        o = spawn(cmd, ctx, ctx.workdir / f"{label}.log")
        w.check(ctx, out, o)
        o.info["bytes_written"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
        if traced and not spans_path.exists():
            o.problems.append("no spans written")
            o.ok = False
        runs[label] = (o, Spans.load(spans_path) if o.ok and traced else None)
    if w.name == "mc" and len({o.info.get("stats_bytes") for o, _ in runs.values()}) != 1:
        runs["traced1"][0].problems.append(
            f"stats.json is not byte-identical at threads=1 and threads={ctx.threads}"
        )
        runs["traced1"][0].ok = False
    problems = [f"{label}: {p}" for label, (o, _) in runs.items() for p in o.problems]
    failed = sum(not o.ok for o, _ in runs.values())
    traced, spans = runs["traced"]
    if spans is None:
        return Result({}, len(runs), failed, problems)

    rc = ctx.run_config()
    extra = standalone.timings(rc, ctx.seed)
    if w.name == "mc":
        extra["deviations.mc_run.peak_mb"] = _mc_peak(ctx)
    if w.name == "mild":
        extra.update(_mild_extra(ctx))
    spans_1 = runs["traced1"][1] if "traced1" in runs else None
    m = metrics.per_layer(spans, traced, runs["untraced"][0], extra, rc.grid.nt, spans_1)
    notes = {"untraced_absent_boundaries": ", ".join(spans.missing) or "none"}
    return Result(m, len(runs), failed, problems, notes)


def _mc_peak(ctx) -> float:
    """tracemalloc peak of the workload's mc_run, in MiB."""
    from burgerslab import mc_run

    rc = ctx.run_config()
    mc = dataclasses.replace(rc.mc, threads=ctx.threads)
    return standalone.peak_mb(lambda: mc_run(rc.u0, rc.grid, rc.sigma, rc.schedule, mc, rc.solver))


def _mild_extra(ctx) -> dict:
    """Fixed-point peak memory and the computed size of its kernel cache."""
    from burgerslab import solve_skeleton_fixed_point

    nx, nt, _ = ctx.scale["fp_grid"]
    rc, _, u_det, v = mild_inputs(ctx.scale["fp_grid"], ctx.config_args())
    n_quad = 32  # solve_skeleton_fixed_point's default
    return {
        "solvers.solve_skeleton_fixed_point.peak_mb": standalone.peak_mb(
            lambda: solve_skeleton_fixed_point(rc.u0, rc.grid, v, rc.sigma, u_det)
        ),
        "kernels.mild_cache_mb": nt * n_quad * (nx - 1) ** 2 * 8 / 2**20,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None) -> Result:
    """One benchmark run; the scratch directory is removed afterwards."""
    w = WORKLOADS[workload]()
    out_root = HERE / ".out"
    out_root.mkdir(exist_ok=True)
    workdir = out_root / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    ctx = Context(seed=seed, workdir=workdir, scale=scale or DEFAULT_SCALE)
    print("# environment " + json.dumps(environment(w, seed), sort_keys=True))
    try:
        return traced_run(w, ctx) if trace else timed_run(w, ctx, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "burgerslab" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {src / 'burgerslab'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    for name, value in res.metrics.items():
        print(f"{name} = {value!r} {table[name][0]}")
    for name, text in res.notes.items():
        print(f"{name} = {text}")
    for p in res.problems:
        print(f"CHECK FAILED: {p}")
    correct = not res.problems and res.failed == 0 and bool(res.metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in res.metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
