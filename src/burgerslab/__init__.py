"""Numerical laboratory for the stochastic Burgers equation on [0,1].

Semi-implicit solvers for the viscous Burgers equation driven by small
multiplicative space-time white noise under Dirichlet walls, the Dirichlet
heat kernel and its estimate checklist, deviation scalings and Monte Carlo
tail statistics, the controlled/skeleton equations, and the quadratic
energy (rate) functional of the noise-to-solution map.
"""

from .deviations import (
    DeviationStats,
    EpsRecord,
    McConfig,
    ScalingSchedule,
    TailReport,
    check_scaling,
    deviation_field,
    mc_run,
    tail_check,
    wilson_interval,
)
from .grids import (
    Control,
    DimensionError,
    Grid,
    SpaceField,
    SpaceTimeField,
    ht_norm,
    l2_norm,
    sup_t_l2,
)
from .kernels import (
    EstimateItem,
    EstimateReport,
    KernelDomainError,
    eval_G,
    eval_dG_dy,
    kernel_mass,
    verify_kernel_estimates,
)
from .noise import (
    NoiseSheet,
    SeedSpec,
    girsanov_log_density,
    girsanov_shift,
    sample_sheet,
    sheet_from_csv,
    sheet_to_csv,
)
from .ratefn import (
    RateResult,
    SkeletonContext,
    apply_adjoint,
    apply_forward,
    rate_value,
)
from .solvers import (
    ContractionFailureError,
    FixedPointResult,
    InstabilityError,
    SigmaSpec,
    SolverConfig,
    solve_controlled,
    solve_deterministic,
    solve_skeleton,
    solve_skeleton_fixed_point,
    solve_spde,
)

__version__ = "0.1.0"

__all__ = [
    "Control",
    "ContractionFailureError",
    "DeviationStats",
    "DimensionError",
    "EpsRecord",
    "EstimateItem",
    "EstimateReport",
    "FixedPointResult",
    "Grid",
    "InstabilityError",
    "KernelDomainError",
    "McConfig",
    "NoiseSheet",
    "RateResult",
    "ScalingSchedule",
    "SeedSpec",
    "SigmaSpec",
    "SkeletonContext",
    "SolverConfig",
    "SpaceField",
    "SpaceTimeField",
    "TailReport",
    "apply_adjoint",
    "apply_forward",
    "check_scaling",
    "deviation_field",
    "eval_G",
    "eval_dG_dy",
    "girsanov_log_density",
    "girsanov_shift",
    "ht_norm",
    "kernel_mass",
    "l2_norm",
    "mc_run",
    "rate_value",
    "sample_sheet",
    "sheet_from_csv",
    "sheet_to_csv",
    "solve_controlled",
    "solve_deterministic",
    "solve_skeleton",
    "solve_skeleton_fixed_point",
    "solve_spde",
    "sup_t_l2",
    "tail_check",
    "verify_kernel_estimates",
    "wilson_interval",
    "__version__",
]
