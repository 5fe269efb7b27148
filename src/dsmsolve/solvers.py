"""Damped iterative solvers with discrepancy and a-priori stopping."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_operator, as_vector
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
        if not 0.0 < self.h < math.inf:
            raise ValueError(f"step size h must be positive and finite, got {self.h}")
        if not 1.0 < self.C < 2.0:
            raise ValueError(f"discrepancy constant C must lie in (1, 2), got {self.C}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if not self.apriori_C > 0.0:
            raise ValueError(f"apriori_C must be positive, got {self.apriori_C}")
        if self.stopping not in STOPPING_MODES:
            raise ValueError(f"stopping must be one of {STOPPING_MODES}, got {self.stopping!r}")
        if not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass
class SolveResult:
    """Outcome of one solver run.

    residual_history[k] is ||A u_k - f_delta||, starting at the initial guess,
    so its length is iterations + 1. solve_dsm takes each one directly;
    landweber_solve takes them from its residual recurrence, within 5e-14
    relative of the direct values on heat data. stop_reason is one of
    "discrepancy_met", "apriori_reached", "max_iter", "initial_already_small".
    """

    solution: np.ndarray
    iterations: int
    residual_history: list[float] = field(repr=False)
    stop_reason: str = "max_iter"
    a_used: float | None = None


def apriori_steps(delta: float, h: float, apriori_C: float, gamma: float) -> int:
    """Step count ceil(apriori_C / (h * delta**gamma)) of the a-priori rule.

    Raises ValueError when that budget is not finite, as when h * delta**gamma
    underflows to zero.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"a-priori rule needs a finite delta > 0, got {delta}")
    if not h > 0.0:
        raise ValueError(f"step size h must be positive, got {h}")
    if not apriori_C > 0.0:
        raise ValueError(f"apriori_C must be positive, got {apriori_C}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    scale = h * delta**gamma
    budget = apriori_C / scale if scale > 0.0 else math.inf
    if budget == math.inf:
        raise ValueError(
            f"a-priori step budget apriori_C / (h * delta**gamma) = {apriori_C:.6g} / {scale:.6g} "
            "is not finite; raise h or delta, or lower apriori_C"
        )
    return max(1, math.ceil(budget))


def dsm_step(precond: Preconditioner, h: float, u: np.ndarray, f_delta: np.ndarray) -> np.ndarray:
    """One damped update u - h P (A u - f_delta)."""
    u = as_vector(u, precond.op.shape[1], name="u")
    f_delta = precond.op.check_data(f_delta)
    return u - h * precond.apply_p(precond.op.matvec(u) - f_delta)


def _checked_inputs(A, f_delta, delta, config):
    """The operator, data and config of a solver call, validated."""
    config = SolveConfig() if config is None else config
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    if config.stopping == "discrepancy" and delta == 0.0:
        raise ValueError("discrepancy stopping needs delta > 0")
    return op, f_delta, config


def _start(op, f_delta, u0):
    """The initial guess u0, default zero, and its residual A u0 - f_delta."""
    cols = op.shape[1]
    u = np.zeros(cols) if u0 is None else as_vector(u0, cols, name="initial guess").copy()
    return u, op.matvec(u) - f_delta


def _run_iteration(step, finish, state, r, delta, config, a_used):
    """Shared stopping logic: first discrepancy crossing, or a fixed step count.

    r is the residual A u - f_delta of the iterate u = finish(state), the
    one the history records. step(state, r) returns the next (state, r)
    pair, and finish maps the last state to the solution. The a-priori rule
    runs the same loop with threshold -inf, which no residual crosses.
    """
    residual = float(np.linalg.norm(r))
    history = [residual]

    if config.stopping == "discrepancy":
        threshold, steps, finished = config.C * delta, config.max_iter, "max_iter"
    else:
        target = apriori_steps(delta, config.h, config.apriori_C, config.gamma)
        threshold, steps = -math.inf, min(target, config.max_iter)
        finished = "apriori_reached" if target <= config.max_iter else "max_iter"
    if residual <= threshold:
        return SolveResult(finish(state), 0, history, "initial_already_small", a_used)
    for n in range(1, steps + 1):
        state, r = step(state, r)
        residual = float(np.linalg.norm(r))
        history.append(residual)
        if residual <= threshold:
            return SolveResult(finish(state), n, history, "discrepancy_met", a_used)
    return SolveResult(finish(state), steps, history, finished, a_used)


def solve_dsm(A, f_delta, delta: float, precond: Preconditioner,
              config: SolveConfig | None = None, u0=None) -> SolveResult:
    """Run the damped iteration u_{n+1} = u_n - h P (A u_n - f_delta).

    Parameters
    ----------
    A : array_like or operator (see linalg.as_operator)
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
    op, f_delta, config = _checked_inputs(A, f_delta, delta, config)
    if precond.op.shape != op.shape:
        rows, cols = precond.op.shape
        raise ValueError(f"preconditioner was built for a {rows}x{cols} operator, got {op.shape}")
    # ||T|| = s^2 / (s^2 + a) <= 1 also in floating point, so only h >= 2
    # can violate the bound, and the norm is needed only then.
    if config.h >= 2.0 and (h_t := config.h * precond.t_norm) >= 2.0:
        raise ValueError(f"step size too large: h * ||T|| = {h_t:.6g} >= 2")

    def step(u, r):
        u = u - config.h * precond.apply_p(r)
        return u, op.matvec(u) - f_delta

    return _run_iteration(step, lambda u: u, *_start(op, f_delta, u0), delta, config, precond.a)


def landweber_solve(A, f_delta, delta: float, config: SolveConfig | None = None,
                    u0=None) -> SolveResult:
    """Plain gradient iteration u_{n+1} = u_n - h A^T (A u_n - f_delta).

    A is an array or an operator (see linalg.as_operator). Same stopping
    contracts as solve_dsm. Requires h < 2 / ||A||^2, which is the undamped
    analog of the step size bound. Kept as the baseline the damped iteration
    is measured against.

    The loop carries the residual, not the iterate: r_{n+1} = r_n - h A A^T r_n
    and u_N = u_0 - h A^T (r_0 + ... + r_{N-1}) (Landweber 1951; Engl, Hanke
    and Neubauer 1996, 6.1). So each step is one product with A A^T, and A
    and A^T are applied once per call, for r_0 and for u_N. The product is
    the operator's: one dsymv on the lower triangle of A A^T, its one Gram
    matrix, which ||A|| reads too (m x m, so a tall A pays for the larger
    Gram matrix, as every method does), or the FFT pair A (A^T r) of a
    ToeplitzOperator, which forms no Gram matrix. The history is ||r_n|| as
    the recurrence carries it; on heat data (n = 100-1000, 0.1-5% noise, up
    to 10,000 steps) it agrees with ||A u_n - f_delta|| taken directly
    within 5e-14 relative.
    """
    op, f_delta, config = _checked_inputs(A, f_delta, delta, config)
    s2 = op.norm_squared
    if config.h * s2 >= 2.0:
        raise ValueError(
            f"step size too large: h * ||A||^2 = {config.h * s2:.6g} >= 2; "
            f"use h < 2/||A||^2 = {2.0 / s2:.6g}"
        )
    u, r = _start(op, f_delta, u0)
    product = op._gram_product(0.0)

    def step(total, r):
        total += r
        return total, r - config.h * product(r)

    def finish(total):
        return u - config.h * op.rmatvec(total)

    return _run_iteration(step, finish, np.zeros_like(r), r, delta, config, None)


def residuals_nonincreasing(history, slack: float = RESIDUAL_SLACK) -> bool:
    """True when each residual is at most its predecessor plus slack."""
    return all(later <= earlier + slack for earlier, later in zip(history, history[1:]))
