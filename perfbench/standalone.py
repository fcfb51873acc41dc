"""Standalone per-layer timings of the baseline rows, through public functions.

Each row times one call of a layer on the run's grid and reports the
median of several repeats.  Peak memory of a whole call is measured
separately with tracemalloc, which slows the traced code down, so it is
never taken from a timed call.
"""

import itertools
import statistics
import time
import tracemalloc

import numpy as np


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def timings(rc, seed: int) -> dict:
    """The ROADMAP baseline rows on the grid of rc (a validated RunConfig)."""
    from burgerslab import (
        Control,
        McConfig,
        SeedSpec,
        SkeletonContext,
        apply_adjoint,
        apply_forward,
        eval_dG_dy,
        mc_run,
        sample_sheet,
        solve_controlled,
        solve_spde,
        solvers,
    )

    g = rc.grid
    rng = np.random.default_rng(seed)
    eps = rc.mc.eps_grid[0]
    sheet = sample_sheet(g, SeedSpec(seed, 0))
    factor = solvers.heat_factor(g)
    rhs64 = rng.standard_normal((g.nx - 1, 64))
    ctx = SkeletonContext.build(rc.u0, g, rc.sigma, rc.solver)
    v = Control(rng.standard_normal((g.nt, g.nx - 1)), g)
    field = apply_forward(v, ctx)
    mc64 = McConfig(
        eps_grid=(eps,),
        n_paths=64,
        threshold=rc.mc.threshold,
        master_seed=seed,
        threads=1,
    )
    # the 32 Gauss times the mild solver uses for the final frame
    nodes = np.polynomial.legendre.leggauss(32)[0]
    tau = (0.5 * np.sqrt(g.T) * (nodes + 1.0)) ** 2
    xi = g.x_interior()
    points = tau.size * xi.size**2
    path_index = itertools.count(1)

    return {
        "noise.sample_sheet.one_ms": 1e3
        * median_time(lambda: sample_sheet(g, SeedSpec(seed, next(path_index))), 20),
        "solvers.heat_solve.b64_us": 1e6
        * median_time(lambda: solvers.heat_solve(factor, rhs64), 200),
        "solvers.solve_spde.one_ms": 1e3
        * median_time(lambda: solve_spde(rc.u0, g, eps, rc.sigma, sheet, rc.solver), 5),
        "solvers.solve_controlled.one_ms": 1e3
        * median_time(
            lambda: solve_controlled(rc.u0, g, eps, rc.schedule, rc.sigma, v, sheet, rc.solver),
            5,
        ),
        "ratefn.apply_forward.s": median_time(lambda: apply_forward(v, ctx), 10),
        "ratefn.apply_adjoint.s": median_time(lambda: apply_adjoint(field, ctx), 10),
        "deviations.mc_run_64.s": median_time(
            lambda: mc_run(rc.u0, g, rc.sigma, rc.schedule, mc64, rc.solver), 3
        ),
        "kernels.ns_per_point": 1e9
        / points
        * median_time(
            lambda: eval_dG_dy(tau[:, None, None], xi[None, :, None], xi[None, None, :]), 5
        ),
    }
