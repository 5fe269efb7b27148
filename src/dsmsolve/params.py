"""Selection of the damping parameter from the noise level.

Every function here takes A as an array or as an operator from
linalg.as_operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_operator
from .operators import Preconditioner

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


def start_damping(delta: float, norm_a: float, norm_f: float) -> float:
    """Untuned damping delta ||A||^2 / (3 ||f_delta||), where choose_a starts."""
    return delta * norm_a**2 / (3.0 * norm_f)


def vr_solve(A, f_delta, a: float) -> np.ndarray:
    """Damped least-squares solution (A^T A + a I)^{-1} A^T f_delta."""
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    return Preconditioner(op, a).apply_p(f_delta)


def phi(A, f_delta, a: float) -> float:
    """Data misfit ||A u_a - f_delta|| of the damped solution at damping a.

    Increasing in a; analytically equal to a * ||(A A^T + a I)^{-1} f_delta||.
    """
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    u = vr_solve(op, f_delta, a)
    return float(np.linalg.norm(op.matvec(u) - f_delta))


def choose_a(A, f_delta, delta: float) -> ParamTrace:
    """Pick a damping parameter whose misfit lands in [delta, 2 delta].

    Starting from start_damping(delta, ||A||, ||f_delta||), each trial evaluates
    c = phi(a) / delta and then either accepts (1 <= c <= 2), shrinks
    (c > 2, a <- a / (2 (c - 1))) or triples (c < 1, a <- 3 a). A second
    undershoot ends the search with 3 a, recorded as fallback_triple; the
    misfit at that fallback value can sit outside the target band.

    Raises ValueError on zero data, a zero operator, or after 100 trials.
    """
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"needs a finite delta > 0, got {delta}")
    norm_f = float(np.linalg.norm(f_delta))
    if norm_f == 0.0:
        raise ValueError("data vector is zero; no damping parameter to select")
    if op.norm**2 == 0.0:
        raise ValueError("operator norm is zero; the misfit does not depend on a")

    a = start_damping(delta, op.norm, norm_f)
    undershot_before = False
    steps: list[ParamStep] = []
    for _ in range(MAX_EVALUATIONS):
        value = phi(op, f_delta, a)
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
                return ParamTrace(chosen, phi(op, f_delta, chosen), tuple(steps))
            steps.append(ParamStep(a, value, c, "triple"))
            undershot_before = True
            a = 3.0 * a
    raise ValueError(f"no damping parameter found within {MAX_EVALUATIONS} misfit evaluations")


def _discrepancy_root(lam: np.ndarray, gamma: np.ndarray, target: float, s2: float,
                      start: float, max_iter: int) -> tuple[float, int]:
    """(a, iterations): the root of phi(a) = target for the misfit
    phi(a)^2 = sum (a gamma_i / (lam_i + a))^2 of the spectrum (lam, gamma),
    by the bracket and safeguarded Newton search that vr_newton describes,
    from start clamped into the bracket; s2 is ||A||^2. Each probe costs
    O(len(lam)). The one root finder on a misfit spectrum: vr_newton runs
    it on the spectrum that the operator's misfit_spectrum returns, and
    ToeplitzOperator.misfit_spectrum runs it to decide how far to extend a
    bidiagonalization. Raises
    ValueError, naming the reason, when there is no root or no convergence
    within max_iter Newton steps."""

    def misfit_parts(a: float):
        shifted = lam + a
        z = gamma / shifted
        return a * float(np.linalg.norm(z)), z, shifted

    lo = 1e-16 * s2
    phi_lo, _, _ = misfit_parts(lo)
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

    a = min(max(start, lo), hi)
    for iteration in range(1, max_iter + 1):
        value, z, shifted = misfit_parts(a)
        if abs(value - target) <= 1e-8 * target:
            return a, iteration
        if value < target:
            lo = a
        else:
            hi = a
        if hi <= np.nextafter(lo, np.inf):
            return a, iteration
        zz = float(z @ z)
        w = z / shifted
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


def vr_newton(A, f_delta, delta: float, C: float = 1.01,
              max_iter: int = 100) -> tuple[float, np.ndarray, int]:
    """Solve phi(a) = C delta for the damping parameter by safeguarded Newton.

    Works on G(a) = phi(a)^2 - (C delta)^2 through the identity
    phi(a) = a ||z||, z = (A A^T + a I)^{-1} f_delta, whose derivative is
    G'(a) = 2 a <z, z> - 2 a^2 <z, (A A^T + a I)^{-1} z>. The search runs on
    a misfit spectrum (lambda, gamma), in which z = gamma / (lambda + a), so
    each bracket probe and Newton step costs O(len(lambda)), and the only
    factorization is the final vr_solve. The spectrum comes from the
    operator's misfit_spectrum: for a DenseOperator the eigenpairs of A A^T,
    from one tridiagonal reduction per call; for a ToeplitzOperator that of
    a Golub-Kahan bidiagonalization from f_delta, extended until its root
    settles, with the eigenpairs as fallback (see
    ToeplitzOperator.misfit_spectrum). Steps that leave the current bracket
    fall back to its geometric midpoint, so iterates stay inside the
    initial bracket.

    Returns (a, u_a, iterations) with |phi(a) - C delta| <= 1e-8 * C delta.
    When C delta sits below the roundoff noise of the misfit itself, that
    band contains no representable point; the search then ends at the last
    bracket point once no interior float is left, which is the root at
    working precision.
    """
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    target = C * delta
    norm_f = float(np.linalg.norm(f_delta))
    if target >= norm_f:
        raise ValueError(
            f"no root: C*delta = {target:.6g} is not below ||f_delta|| = {norm_f:.6g}"
        )
    s2 = op.norm**2
    if s2 == 0.0:
        raise ValueError("no root: operator is zero, the misfit is constant")
    start = start_damping(delta, op.norm, norm_f)

    def root(lam: np.ndarray, gamma: np.ndarray) -> tuple[float, int]:
        return _discrepancy_root(lam, gamma, target, s2, start, max_iter)

    a, iterations = root(*op.misfit_spectrum(f_delta, root))
    return a, vr_solve(op, f_delta, a), iterations
