"""Damped iterative solvers with discrepancy and a-priori stopping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, as_vector, op_norm
from .operators import Preconditioner

STOPPING_MODES = ("discrepancy", "apriori")

RESIDUAL_SLACK = 1e-12


@dataclass(frozen=True)
class SolveConfig:
    """Iteration parameters shared by the damped and plain gradient solvers.

    h          step size (the damped iteration tolerates h * ||T|| < 2)
    C          discrepancy constant, must lie in (1, 2)
    gamma      exponent of the a-priori step count rule, in (0, 1)
    apriori_C  numerator constant of the a-priori rule
    stopping   "discrepancy" or "apriori"
    max_iter   hard iteration cap
    """

    h: float = 1.0
    C: float = 1.01
    gamma: float = 0.5
    apriori_C: float = 1.0
    stopping: str = "discrepancy"
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError(f"step size h must be positive, got {self.h}")
        if not 1.0 < self.C < 2.0:
            raise ValueError(f"discrepancy constant C must lie in (1, 2), got {self.C}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.apriori_C > 0.0:
            raise ValueError(f"apriori_C must be positive, got {self.apriori_C}")
        if self.stopping not in STOPPING_MODES:
            raise ValueError(f"stopping must be one of {STOPPING_MODES}, got {self.stopping!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveResult:
    """Outcome of one solver run.

    residual_history[k] is ||A u_k - f_delta||, starting at the initial guess,
    so its length is iterations + 1. stop_reason is one of "discrepancy_met",
    "apriori_reached", "max_iter", "initial_already_small".
    """

    solution: np.ndarray
    iterations: int
    residual_history: list[float] = field(repr=False)
    stop_reason: str = "max_iter"
    a_used: float | None = None


def apriori_steps(delta: float, h: float, apriori_C: float, gamma: float) -> int:
    """Step count ceil(apriori_C / (h * delta**gamma)) of the a-priori rule."""
    if not delta > 0.0:
        raise ValueError("a-priori rule needs delta > 0")
    if not h > 0.0:
        raise ValueError(f"step size h must be positive, got {h}")
    if not apriori_C > 0.0:
        raise ValueError(f"apriori_C must be positive, got {apriori_C}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    return max(1, math.ceil(apriori_C / (h * delta**gamma)))


def dsm_step(precond: Preconditioner, h: float, u: np.ndarray, f_delta: np.ndarray) -> np.ndarray:
    """One damped update u - h P (A u - f_delta)."""
    u = as_vector(u)
    f_delta = as_vector(f_delta)
    return u - h * precond.apply_p(precond.A @ u - f_delta)


def _run_iteration(step, A, f_delta, delta, config, u0, a_used):
    """Shared stopping logic: first discrepancy crossing, or a fixed step count."""
    u = u0
    residual = float(np.linalg.norm(A @ u - f_delta))
    history = [residual]

    if config.stopping == "discrepancy":
        threshold = config.C * delta
        if residual <= threshold:
            return SolveResult(u, 0, history, "initial_already_small", a_used)
        for n in range(1, config.max_iter + 1):
            u = step(u)
            residual = float(np.linalg.norm(A @ u - f_delta))
            history.append(residual)
            if residual <= threshold:
                return SolveResult(u, n, history, "discrepancy_met", a_used)
        return SolveResult(u, config.max_iter, history, "max_iter", a_used)

    target = apriori_steps(delta, config.h, config.apriori_C, config.gamma)
    steps = min(target, config.max_iter)
    for _ in range(steps):
        u = step(u)
        history.append(float(np.linalg.norm(A @ u - f_delta)))
    reason = "apriori_reached" if target <= config.max_iter else "max_iter"
    return SolveResult(u, steps, history, reason, a_used)


def solve_dsm(A, f_delta, delta: float, precond: Preconditioner,
              config: SolveConfig | None = None, u0=None) -> SolveResult:
    """Run the damped iteration u_{n+1} = u_n - h P (A u_n - f_delta).

    Parameters
    ----------
    A : array_like
        Operator of the linear system, shape (m, n).
    f_delta : array_like
        Noisy right-hand side, length m.
    delta : float
        Noise level bound. Must be positive for discrepancy stopping and
        for the a-priori step rule.
    precond : Preconditioner
        Damped preconditioner built from the same operator.
    config : SolveConfig, optional
        Step size, stopping mode and constants. Defaults to SolveConfig().
    u0 : array_like, optional
        Initial guess, default zero.

    Returns
    -------
    SolveResult
        Final iterate, iteration count, residual norms per step and the
        reason the run stopped.

    Notes
    -----
    With discrepancy stopping the run halts at the first n where
    ||A u_n - f_delta|| <= C delta; the residual norms are nonincreasing
    because the residual propagates through I - h Q, whose spectrum lies
    in (0, 1] for h * ||T|| < 2.
    """
    if config is None:
        config = SolveConfig()
    A = as_matrix(A)
    f_delta = as_vector(f_delta)
    m, n = A.shape
    if f_delta.shape[0] != m:
        raise ValueError(f"dimension mismatch: operator is {A.shape}, data has length {f_delta.shape[0]}")
    if (precond.rows, precond.cols) != (m, n):
        raise ValueError(
            f"preconditioner was built for a {precond.rows}x{precond.cols} operator, got {A.shape}"
        )
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if config.stopping == "discrepancy" and delta == 0.0:
        raise ValueError("discrepancy stopping needs delta > 0")
    # ||T|| = s^2 / (s^2 + a) <= 1 also in floating point, so only h >= 2
    # can violate the bound, and the norm is needed only then.
    if config.h >= 2.0 and config.h * precond.t_norm >= 2.0:
        raise ValueError(
            f"step size too large: h * ||T|| = {config.h * precond.t_norm:.6g} >= 2"
        )
    u = np.zeros(n) if u0 is None else as_vector(u0).copy()
    if u.shape[0] != n:
        raise ValueError(f"initial guess has length {u.shape[0]}, expected {n}")

    def step(current):
        return dsm_step(precond, config.h, current, f_delta)

    return _run_iteration(step, A, f_delta, delta, config, u, precond.a)


def landweber_solve(A, f_delta, delta: float, config: SolveConfig | None = None,
                    u0=None) -> SolveResult:
    """Plain gradient iteration u_{n+1} = u_n - h A^T (A u_n - f_delta).

    Same stopping contracts as solve_dsm. Requires h < 2 / ||A||^2, which is
    the undamped analog of the step size bound. Kept as the baseline the
    damped iteration is measured against.
    """
    if config is None:
        config = SolveConfig()
    A = as_matrix(A)
    f_delta = as_vector(f_delta)
    m, n = A.shape
    if f_delta.shape[0] != m:
        raise ValueError(f"dimension mismatch: operator is {A.shape}, data has length {f_delta.shape[0]}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if config.stopping == "discrepancy" and delta == 0.0:
        raise ValueError("discrepancy stopping needs delta > 0")
    s2 = op_norm(A) ** 2
    if config.h * s2 >= 2.0:
        raise ValueError(f"step size too large: h * ||A||^2 = {config.h * s2:.6g} >= 2")
    u = np.zeros(n) if u0 is None else as_vector(u0).copy()
    if u.shape[0] != n:
        raise ValueError(f"initial guess has length {u.shape[0]}, expected {n}")

    def step(current):
        return current - config.h * (A.T @ (A @ current - f_delta))

    return _run_iteration(step, A, f_delta, delta, config, u, None)


def residuals_nonincreasing(history, slack: float = RESIDUAL_SLACK) -> bool:
    """True when each residual is at most its predecessor plus slack."""
    return all(later <= earlier + slack for earlier, later in zip(history, history[1:]))
