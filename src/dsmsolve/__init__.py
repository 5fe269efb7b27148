"""Stable solvers for ill-conditioned linear systems with noisy right-hand sides."""

from .continuous import find_t_delta, propagate, residual_t, spectral_q, spectral_t
from .linalg import (
    DenseOperator,
    EigenDecomposition,
    as_operator,
    cond_estimate,
    op_norm,
    sym_eigen,
)
from .operators import Preconditioner, build_preconditioner
from .params import ParamStep, ParamTrace, choose_a, phi, vr_newton, vr_solve
from .problems import (
    ProblemInstance,
    add_noise,
    exact_solution,
    heat_instance,
    heat_kernel,
    heat_matrix,
    load_matrix,
    load_vector,
    save_matrix,
    save_vector,
    volterra_instance,
)
from .solvers import (
    SolveConfig,
    SolveResult,
    apriori_steps,
    dsm_step,
    landweber_solve,
    residuals_nonincreasing,
    solve_dsm,
)

__version__ = "0.1.0"

__all__ = [
    "DenseOperator",
    "EigenDecomposition",
    "ParamStep",
    "ParamTrace",
    "Preconditioner",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "add_noise",
    "apriori_steps",
    "as_operator",
    "build_preconditioner",
    "choose_a",
    "cond_estimate",
    "dsm_step",
    "exact_solution",
    "find_t_delta",
    "heat_instance",
    "heat_kernel",
    "heat_matrix",
    "landweber_solve",
    "load_matrix",
    "load_vector",
    "op_norm",
    "phi",
    "propagate",
    "residual_t",
    "residuals_nonincreasing",
    "save_matrix",
    "save_vector",
    "solve_dsm",
    "spectral_q",
    "spectral_t",
    "sym_eigen",
    "volterra_instance",
    "vr_newton",
    "vr_solve",
]
