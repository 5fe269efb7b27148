"""Continuous-time limit of the damped iteration, evaluated spectrally.

The flow u'(t) = -T u(t) + P f has the closed form solution

    u(t) = exp(-t T) u0 + g(t, T) P f,   g(t, lam) = (1 - exp(-t lam)) / lam,

so for test-scale problems we diagonalize the assembled operator once and
propagate coefficients. Intended for moderate dimensions (a few hundred).
"""

from __future__ import annotations

import numpy as np

from .linalg import EigenDecomposition, as_vector, sym_eigen
from .operators import Preconditioner


def spectral_t(precond: Preconditioner) -> EigenDecomposition:
    """Diagonalized T = P A of a damped preconditioner."""
    return sym_eigen(precond.assemble_t())


def spectral_q(precond: Preconditioner) -> EigenDecomposition:
    """Diagonalized Q = A P of a damped preconditioner."""
    return sym_eigen(precond.assemble_q())


def _source_weight(eigenvalues: np.ndarray, t: float) -> np.ndarray:
    """g(t, lam) = (1 - exp(-t lam)) / lam with the t limit at lam -> 0.

    expm1 keeps the small t*lam regime accurate; eigenvalues at or below
    roundoff scale take the limit value directly.
    """
    cutoff = 1e-14 * max(float(eigenvalues[-1]), 0.0)
    safe = np.where(eigenvalues > cutoff, eigenvalues, 1.0)
    weight = -np.expm1(-t * safe) / safe
    return np.where(eigenvalues > cutoff, weight, t)


def propagate(operator: EigenDecomposition, u0, pf, t: float) -> np.ndarray:
    """Solution of the flow at time t from initial state u0 with source pf."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    u0 = as_vector(u0)
    pf = as_vector(pf)
    n = operator.dimension
    if u0.shape[0] != n or pf.shape[0] != n:
        raise ValueError(
            f"dimension mismatch: operator is {n}-dimensional, "
            f"got state of length {u0.shape[0]} and source of length {pf.shape[0]}"
        )
    lam = operator.eigenvalues
    c0 = operator.to_basis(u0)
    cp = operator.to_basis(pf)
    out = np.exp(-t * lam) * c0 + _source_weight(lam, t) * cp
    return operator.from_basis(out)


def residual_t(operator: EigenDecomposition, r0, t: float) -> float:
    """Norm of exp(-t Q) r0, the data misfit of the flow at time t."""
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    r0 = as_vector(r0)
    if r0.shape[0] != operator.dimension:
        raise ValueError(
            f"dimension mismatch: operator is {operator.dimension}-dimensional, "
            f"residual has length {r0.shape[0]}"
        )
    c = operator.to_basis(r0)
    return float(np.linalg.norm(np.exp(-t * operator.eigenvalues) * c))


def find_t_delta(operator: EigenDecomposition, r0, C: float, delta: float,
                 value_rtol: float = 1e-10) -> float:
    """First time the flow's residual norm reaches C * delta.

    Brackets the crossing by doubling from 1 / lam_max, then bisects until
    the residual value matches C * delta to value_rtol relative.
    """
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    target = C * delta
    r0 = as_vector(r0)
    initial = residual_t(operator, r0, 0.0)
    if initial <= target:
        raise ValueError(
            f"initial residual {initial:.6g} is already at or below C*delta = {target:.6g}"
        )
    lam_max = float(operator.eigenvalues[-1])
    if lam_max <= 0.0:
        raise ValueError("residual never decays: operator has no positive eigenvalues")

    t_lo = 0.0
    t_hi = 1.0 / lam_max
    for _ in range(200):
        if residual_t(operator, r0, t_hi) <= target:
            break
        t_lo = t_hi
        t_hi *= 2.0
    else:
        raise ValueError(
            f"residual plateaus above C*delta = {target:.6g}; no crossing exists"
        )

    for _ in range(400):
        mid = 0.5 * (t_lo + t_hi)
        value = residual_t(operator, r0, mid)
        if abs(value - target) <= value_rtol * target:
            return mid
        if mid == t_lo or mid == t_hi:
            break
        if value > target:
            t_lo = mid
        else:
            t_hi = mid
    raise ValueError("bisection failed to localize the crossing time")
