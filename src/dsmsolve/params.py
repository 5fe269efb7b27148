"""Selection of the damping parameter from the noise level."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import _factor_shifted, _gram_norm, as_matrix, as_vector, gram
from .operators import Preconditioner, _damped_factor

MAX_EVALUATIONS = 100


@dataclass(frozen=True)
class ParamStep:
    """One trial during parameter selection: damping tried, misfit, ratio to delta."""

    a: float
    phi: float
    ratio: float
    action: str  # accept | shrink | triple | fallback_triple


@dataclass(frozen=True)
class ParamTrace:
    """Full record of a parameter search, ending at chosen_a."""

    chosen_a: float
    phi_at_chosen: float
    steps: tuple[ParamStep, ...]

    @property
    def evaluations(self) -> int:
        return len(self.steps)


def vr_solve(A, f_delta, a: float) -> np.ndarray:
    """Damped least-squares solution (A^T A + a I)^{-1} A^T f_delta."""
    return Preconditioner(A, a).apply_p(f_delta)


def phi(A, f_delta, a: float) -> float:
    """Data misfit ||A u_a - f_delta|| of the damped solution at damping a.

    Increasing in a; analytically equal to a * ||(A A^T + a I)^{-1} f_delta||.
    """
    A = as_matrix(A)
    f_delta = as_vector(f_delta)
    u = vr_solve(A, f_delta, a)
    return float(np.linalg.norm(A @ u - f_delta))


def _damped_solution(A: np.ndarray, G: np.ndarray, f_delta: np.ndarray, a: float) -> np.ndarray:
    """vr_solve(A, f_delta, a) given the Gram matrix G = gram(A)."""
    return _damped_factor(G, a).solve(A.T @ f_delta)


def choose_a(A, f_delta, delta: float) -> ParamTrace:
    """Pick a damping parameter whose misfit lands in [delta, 2 delta].

    Starting from a = delta ||A||^2 / (3 ||f_delta||), each trial evaluates
    c = phi(a) / delta and then either accepts (1 <= c <= 2), shrinks
    (c > 2, a <- a / (2 (c - 1))) or triples (c < 1, a <- 3 a). A second
    undershoot ends the search with 3 a, recorded as fallback_triple; the
    misfit at that fallback value can sit outside the target band.

    Raises ValueError on zero data, a zero operator, or after 100 trials.
    """
    A = as_matrix(A)
    f_delta = as_vector(f_delta)
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if A.shape[0] != f_delta.shape[0]:
        raise ValueError(f"dimension mismatch: operator is {A.shape}, data has length {f_delta.shape[0]}")
    norm_f = float(np.linalg.norm(f_delta))
    if norm_f == 0.0:
        raise ValueError("data vector is zero; no damping parameter to select")
    # One Gram matrix serves the norm and every misfit evaluation.
    G = gram(A)
    s2 = _gram_norm(G) ** 2
    if s2 == 0.0:
        raise ValueError("operator norm is zero; the misfit does not depend on a")

    def misfit(a: float) -> float:
        return float(np.linalg.norm(A @ _damped_solution(A, G, f_delta, a) - f_delta))

    a = delta * s2 / (3.0 * norm_f)
    undershot_before = False
    steps: list[ParamStep] = []
    for _ in range(MAX_EVALUATIONS):
        value = misfit(a)
        c = value / delta
        if delta <= value <= 2.0 * delta:
            steps.append(ParamStep(a, value, c, "accept"))
            return ParamTrace(a, value, tuple(steps))
        if c > 2.0:
            steps.append(ParamStep(a, value, c, "shrink"))
            a = a / (2.0 * (c - 1.0))
        else:
            if undershot_before:
                steps.append(ParamStep(a, value, c, "fallback_triple"))
                chosen = 3.0 * a
                return ParamTrace(chosen, misfit(chosen), tuple(steps))
            steps.append(ParamStep(a, value, c, "triple"))
            undershot_before = True
            a = 3.0 * a
    raise ValueError(f"no damping parameter found within {MAX_EVALUATIONS} misfit evaluations")


def vr_newton(A, f_delta, delta: float, C: float = 1.01,
              max_iter: int = 100) -> tuple[float, np.ndarray, int]:
    """Solve phi(a) = C delta for the damping parameter by safeguarded Newton.

    Works on G(a) = phi(a)^2 - (C delta)^2 through the identity
    phi(a) = a ||z||, z = (A A^T + a I)^{-1} f_delta, whose derivative is
    G'(a) = 2 a <z, z> - 2 a^2 <z, (A A^T + a I)^{-1} z>. Each step factors
    the shifted Gram matrix once and back-solves twice. Steps that leave the
    current bracket fall back to its geometric midpoint, so iterates stay
    inside the initial bracket.

    Returns (a, u_a, iterations) with |phi(a) - C delta| <= 1e-8 * C delta.
    When C delta sits below the roundoff noise of the misfit itself, that
    band contains no representable point; the search then ends at the last
    bracket point once no interior float is left, which is the root at
    working precision.
    """
    A = as_matrix(A)
    f_delta = as_vector(f_delta)
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    if A.shape[0] != f_delta.shape[0]:
        raise ValueError(f"dimension mismatch: operator is {A.shape}, data has length {f_delta.shape[0]}")
    target = C * delta
    norm_f = float(np.linalg.norm(f_delta))
    if target >= norm_f:
        raise ValueError(
            f"no root: C*delta = {target:.6g} is not below ||f_delta|| = {norm_f:.6g}"
        )
    # A^T A serves the norm and the final damped solve; A A^T the misfits.
    G_left = gram(A)
    s2 = _gram_norm(G_left) ** 2
    if s2 == 0.0:
        raise ValueError("no root: operator is zero, the misfit is constant")

    G = gram(A, right=True)

    def misfit_parts(a: float):
        factor = _factor_shifted(G, a)
        z = factor.solve(f_delta)
        return a * float(np.linalg.norm(z)), z, factor

    lo = 1e-16 * s2
    # The floor of the bracket can defeat the factorization when the shift
    # drowns in roundoff of the Gram matrix; back off until it succeeds.
    for _ in range(8):
        try:
            phi_lo, _, _ = misfit_parts(lo)
            break
        except ValueError:
            lo *= 100.0
    else:
        raise ValueError("could not factor the shifted Gram matrix anywhere near a = 0")
    if phi_lo >= target:
        raise ValueError(
            f"no root: the misfit floor {phi_lo:.6g} already exceeds C*delta = {target:.6g}"
        )

    hi = s2
    for _ in range(200):
        phi_hi, _, _ = misfit_parts(hi)
        if phi_hi > target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError("no root: the misfit stays below C*delta for every tried damping")

    a = min(max(delta * s2 / (3.0 * norm_f), lo), hi)
    for iteration in range(1, max_iter + 1):
        value, z, factor = misfit_parts(a)
        if abs(value - target) <= 1e-8 * target:
            return a, _damped_solution(A, G_left, f_delta, a), iteration
        if value < target:
            lo = a
        else:
            hi = a
        if hi <= np.nextafter(lo, np.inf):
            return a, _damped_solution(A, G_left, f_delta, a), iteration
        zz = float(z @ z)
        w = factor.solve(z)
        g = a * a * zz - target * target
        g_prime = 2.0 * a * zz - 2.0 * a * a * float(z @ w)
        if g_prime > 0.0:
            candidate = a - g / g_prime
        else:
            candidate = lo  # forces the midpoint fallback
        if not lo < candidate < hi:
            candidate = float(np.sqrt(lo * hi))
        a = candidate
    raise ValueError(f"no convergence within {max_iter} Newton steps")
