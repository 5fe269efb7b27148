"""Damped iterative solvers with discrepancy and a-priori stopping."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import _check_max_iter, _norm, _settled_on_basis, as_operator, as_vector
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
        _check_max_iter(self.max_iter)


@dataclass
class SolveResult:
    """Outcome of one solver run.

    residual_history[k] is ||A u_k - f_delta||, starting at the initial guess,
    so its length is iterations + 1. landweber_solve and solve_dsm take the
    first directly and the rest from their run on a Golub-Kahan basis, as
    ||A u_k - f_delta|| of the projected iterates u_k: within 4.9e-14
    relative of Landweber's iterate form, and within 7.5e-13 of the damped
    iteration's direct residuals, on heat and Volterra data. When no basis
    is accepted, solve_dsm takes each one directly, and landweber_solve
    takes them from its exact residual recurrence (see landweber_solve).
    stop_reason is one of
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
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
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
    """The initial guess u0, default zero, and its residual A u0 - f_delta;
    raises ValueError, naming the initial guess, when ||A u0 - f_delta||^2,
    which the filters and the history's norms square, overflows float64."""
    cols = op.shape[1]
    u = np.zeros(cols) if u0 is None else as_vector(u0, cols, name="initial guess").copy()
    r = op.matvec(u) - f_delta
    norm = _norm(r)
    if not math.isfinite(norm * norm):
        raise ValueError(f"residual of the initial guess, ||A u0 - f_delta|| = {norm:.6g}, overflows "
                         "float64 when squared; scale u0, f_delta and delta down by a common factor")
    return u, r


def _stop_rule(delta, config) -> tuple[float, int, str]:
    """(threshold, steps, finished) of the call's stopping rule: stop at the
    first residual at or below threshold, else after steps steps, for the
    reason finished. The a-priori rule has threshold -inf, which no
    residual crosses."""
    if config.stopping == "discrepancy":
        return config.C * delta, config.max_iter, "max_iter"
    target = apriori_steps(delta, config.h, config.apriori_C, config.gamma)
    finished = "apriori_reached" if target <= config.max_iter else "max_iter"
    return -math.inf, min(target, config.max_iter), finished


def _run_iteration(step, finish, state, r, rule, a_used):
    """Shared stopping logic: first discrepancy crossing, or a fixed step count.

    r is the residual A u - f_delta of the iterate u = finish(state), the
    one the history records. step(state, r) returns the next (state, r)
    pair, and finish maps the last state to the solution. rule is
    _stop_rule's (threshold, steps, finished).
    """
    residual = float(np.linalg.norm(r))
    history = [residual]
    threshold, steps, finished = rule
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

    The run is taken as landweber_solve takes its own: n steps apply the
    filter 1 - (1 - h s^2 / (s^2 + a))^n to A's singular values s, so the
    whole run, stop rule included, is evaluated on a Golub-Kahan basis
    started at d = f_delta - A u0, at O(k) per step, with landweber_solve's
    rule for accepting a k. It then makes no damped solve, so the preconditioner,
    which contributes only a, factors nothing. When no k is accepted by 60
    steps, and when the initial residual already meets the stop, each step
    is the exact update above.
    """
    op, f_delta, config = _checked_inputs(A, f_delta, delta, config)
    if precond.op.shape != op.shape:
        rows, cols = precond.op.shape
        raise ValueError(f"preconditioner was built for a {rows}x{cols} operator, got {op.shape}")
    # ||T|| = s^2 / (s^2 + a) <= 1 also in floating point, so only h >= 2
    # can violate the bound, and the norm is needed only then.
    if config.h >= 2.0 and (h_t := config.h * precond.t_norm) >= 2.0:
        raise ValueError(f"step size too large: h * ||T|| = {h_t:.6g} >= 2")

    u, r = _start(op, f_delta, u0)
    rule = _stop_rule(delta, config)
    projected = _projected_run(op, u, -r, lambda s: config.h * s * s / (s * s + precond.a), rule, precond.a)
    if projected is not None:
        return projected

    def step(u, r):
        u = u - config.h * precond.apply_p(r)
        return u, op.matvec(u) - f_delta

    return _run_iteration(step, lambda u: u, u, r, rule, precond.a)


# Steps of a projected run whose residuals are evaluated at once: the first
# block has _FIRST_BLOCK, and each next one twice as many, up to
# _FILTER_BLOCK, so that a run that stops within a few steps evaluates few.
_FIRST_BLOCK = 16
_FILTER_BLOCK = 1024


def _landweber_filter(s, g, x, rule):
    """A run of steps that each keep 1 - x of every residual component,
    with rule its _stop_rule, on the projected data g = ||d|| P^T e_1 of
    B_k = P diag(s) Q^T (see landweber_solve): (iterations, reason, history,
    c), where history() returns the residual norms of steps 1.. as an array
    and c = phi(s^2) g / s are the coefficients in Q of the last iterate. x
    is the step fraction per component: h s^2 for Landweber, and
    h s^2 / (s^2 + a) for the damped iteration.

    With q = 1 - x, N steps keep q^N of each component of the residual,
    so ||r_N||^2 = sum (q_i^N g_i)^2 + g_{k+1}^2, and the iterate applies
    phi_N = 1 - q^N. Where q > 0, q^N is exp(N log1p(-x)) and phi_N is
    -expm1 of the same exponent, so neither loses digits to 1 - x or to
    cancellation; elsewhere, where x >= 1 and |q| is not near 1, q^N
    is a power.
    The residuals are taken in blocks of _FIRST_BLOCK steps, doubling up to
    _FILTER_BLOCK, up to the first at or below the threshold; each is
    computed on its own, so the blocks do not change its bits. No residual
    falls below |g_{k+1}|, so when that is above the threshold the run takes
    all its steps, and its residuals are taken only once history() asks for
    them: a basis that is rejected never pays for them.
    """
    threshold, steps, finished = rule
    k = s.shape[0]
    q = 1.0 - x
    positive = x < 1.0
    log_q = np.full(k, -math.inf)  # q = 0 decays to 0 in one step
    log_q[positive] = np.log1p(-x[positive])
    negative = ~positive & (q != 0.0)
    log_q[negative] = np.log(-q[negative])
    weights = g[:k] ** 2
    floor = g[k] ** 2

    def residuals():
        """(first, block): the residual norms of steps first.. of a block."""
        first, size = 1, _FIRST_BLOCK
        while first <= steps:
            exponents = np.multiply.outer(2.0 * np.arange(first, min(first + size, steps + 1)), log_q)
            yield first, np.sqrt((np.exp(exponents) * weights).sum(axis=1) + floor)
            first, size = first + size, min(2 * size, _FILTER_BLOCK)

    blocks = []
    iterations, reason = steps, finished
    if math.sqrt(floor) <= threshold:
        for first, block in residuals():
            blocks.append(block)
            crossed = np.flatnonzero(block <= threshold)
            if crossed.size:
                iterations, reason = first + int(crossed[0]), "discrepancy_met"
                break

    @functools.cache
    def history():
        if not blocks:
            blocks.extend(block for _, block in residuals())
        return np.concatenate(blocks)[:iterations]

    phi = np.empty(k)
    phi[positive] = -np.expm1(iterations * log_q[positive])
    phi[~positive] = 1.0 - q[~positive] ** iterations
    return iterations, reason, history, phi * g[:k] / s


def _projected_run(op, u0, d, fraction, rule, a_used) -> SolveResult | None:
    """A run from u0 on the data A u0 + d whose steps keep 1 - fraction(s)
    of each residual component, taken on a Golub-Kahan basis started at d
    by _landweber_filter, with landweber_solve's rule for accepting a k
    (linalg._settled_on_basis); None when no k is accepted, and, with no
    basis built, when ||d|| already meets the stop or is zero. The history
    starts at ||d||."""
    norm_d = float(np.linalg.norm(d))
    if norm_d <= max(rule[0], 0.0):
        return None

    def run(s, g, V, Qt):
        iterations, reason, history, coefficients = _landweber_filter(s, g, fraction(s), rule)
        return iterations, reason, history, u0 + V.T @ (Qt.T @ coefficients)

    def agree(new, old):
        iterations, reason, history, u = new
        return (old[:2] == (iterations, reason) and np.all(np.abs(history() - old[2]()) <= 1e-12 * history())
                and np.linalg.norm(u - old[3]) <= 1e-12 * np.linalg.norm(u))

    settled = _settled_on_basis(op, d, run, agree)
    if settled is None:
        return None
    iterations, reason, history, u = settled
    return SolveResult(u, iterations, [norm_d, *history().tolist()], reason, a_used)


def landweber_solve(A, f_delta, delta: float, config: SolveConfig | None = None,
                    u0=None) -> SolveResult:
    """Plain gradient iteration u_{n+1} = u_n - h A^T (A u_n - f_delta).

    A is an array or an operator (see linalg.as_operator). Same stopping
    contracts as solve_dsm. Requires h < 2 / ||A||^2, which is the undamped
    analog of the step size bound. Kept as the baseline the damped iteration
    is measured against.

    From u0, N steps apply the filter phi_N(s^2) = 1 - (1 - h s^2)^N to A's
    singular values s (Landweber 1951; Engl, Hanke and Neubauer 1996, 6.1;
    Hansen 1998). So the run is taken on a Golub-Kahan bidiagonalization
    A V_k = U_{k+1} B_k started at d = f_delta - A u0 (Paige and Saunders
    1982), where each step costs O(k), not a product with A A^T: with
    B_k = P diag(s) Q^T and g = ||d|| P^T e_1, the projected iterate is
    u_N = u0 + V_k Q diag(phi_N(s^2) / s) g_{1..k}, and its residual norm
    ||A u_N - f_delta|| is sqrt(sum ((1 - h s_i^2)^N g_i)^2 + g_{k+1}^2)
    (see _landweber_filter). The basis grows 5 steps at a time, and the
    whole run, stop rule included, is taken on each B_k; the first k whose
    run has the step count and stop reason of the run on B_{k-5}, and whose
    solution and every history entry agree with that run's within 1e-12
    relative, is accepted. The history is then ||A u_N - f_delta|| of the
    projected iterates. On heat (n = 100-2000) and Volterra (n = 100-1000)
    data at 0.1-5% noise, with h = 1 and 1/||A||^2 and up to 10,000
    steps, a basis of 15-35 steps was accepted in every one of 42 runs,
    with the iterate form's step counts and stop reasons, its solutions
    within 5.2e-15 and its histories within 4.9e-14 relative. One call
    makes at most k + 1 products with A and k with A^T, for k <= 60, plus
    ||A||'s power iteration on an operator that has not taken it yet.

    When no k is accepted by min(m, n, 60) steps, or the Krylov space is
    exhausted (an exact zero in B_k), the run is exact: the loop carries
    the residual, r_{n+1} = r_n - h A A^T r_n, and forms
    u_N = u_0 - h A^T (r_0 + ... + r_{N-1}) once. Each of its steps is one
    dsymv on the lower triangle of A A^T, which this route forms on first
    use, or the FFT pair A (A^T r) of a ToeplitzOperator; its history is
    ||r_n|| as the recurrence carries it. An initial residual already small,
    the step-size guard and the a-priori budget are settled before any
    basis is built.
    """
    op, f_delta, config = _checked_inputs(A, f_delta, delta, config)
    s2 = op.norm_squared
    if config.h * s2 >= 2.0:
        raise ValueError(
            f"step size too large: h * ||A||^2 = {config.h * s2:.6g} >= 2; "
            f"use h < 2/||A||^2 = {2.0 / s2:.6g}"
        )
    u, r = _start(op, f_delta, u0)
    rule = _stop_rule(delta, config)
    projected = _projected_run(op, u, -r, lambda s: config.h * s * s, rule, None)
    if projected is not None:
        return projected
    product = op._gram_product(0.0)

    def step(total, r):
        total += r
        return total, r - config.h * product(r)

    def finish(total):
        return u - config.h * op.rmatvec(total)

    return _run_iteration(step, finish, np.zeros_like(r), r, rule, None)


def residuals_nonincreasing(history, slack: float = RESIDUAL_SLACK) -> bool:
    """True when each residual is at most its predecessor plus slack."""
    return all(later <= earlier + slack for earlier, later in zip(history, history[1:]))
