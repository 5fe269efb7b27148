"""Continuous-time limit of the damped iteration, evaluated spectrally.

The flow u'(t) = -T u(t) + P f has the closed form solution

    u(t) = exp(-t T) u0 + g(t, T) P f,   g(t, lam) = (1 - exp(-t lam)) / lam,

so it is propagated coefficient-wise in an eigenbasis of T. With the SVD
A = U diag(s) V^T, T = A^T (A A^T + a I)^{-1} A and Q = (A A^T + a I)^{-1} A A^T
share the spectrum s^2 / (s^2 + a), with eigenvectors V and U; one SVD of A,
kept in the entry of the preconditioner's operator (for a triangular
Toeplitz A, shared by every operator of its structure, and by every
method's give-up), gives both at every damping a. The flow is dense-only
and test-scale: the SVD costs O(n^3) time and keeps two n x n factors, so it
suits dimensions up to a few hundred.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import EigenDecomposition, as_vector
from .operators import Preconditioner


def _filtered(precond: Preconditioner, vectors: np.ndarray) -> EigenDecomposition:
    """Eigenvalues s^2 / (s^2 + a) for the ascending s, with zeros in front for
    the null-space columns of vectors, which is referenced, not copied.

    Evaluated as 1 / (1 + a / s^2): every rounded operation there is monotone
    in s, so near-equal singular values cannot come out of order, which
    s^2 / (s^2 + a) allows; both are accurate to a few ulps, and s = 0 gives 0.
    """
    s, _, _ = precond.op.ascending_svd
    with np.errstate(divide="ignore"):
        lam = 1.0 / (1.0 + precond.a / (s * s))
    eigenvalues = np.concatenate((np.zeros(vectors.shape[1] - lam.shape[0]), lam))
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=vectors)


def spectral_t(precond: Preconditioner) -> EigenDecomposition:
    """Diagonalized T = P A of a damped preconditioner: V diag(s^2 / (s^2 + a)) V^T."""
    _, _, V = precond.op.ascending_svd
    return _filtered(precond, V)


def spectral_q(precond: Preconditioner) -> EigenDecomposition:
    """Diagonalized Q = A P of a damped preconditioner: U diag(s^2 / (s^2 + a)) U^T."""
    _, U, _ = precond.op.ascending_svd
    return _filtered(precond, U)


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
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    u0 = as_vector(u0, operator.dimension, name="state")
    pf = as_vector(pf, operator.dimension, name="source")
    lam = operator.eigenvalues
    c0 = operator.to_basis(u0)
    cp = operator.to_basis(pf)
    out = np.exp(-t * lam) * c0 + _source_weight(lam, t) * cp
    return operator.from_basis(out)


def _basis_residual(operator: EigenDecomposition, r0) -> np.ndarray:
    """Coefficients of r0 in the eigenbasis of Q, checked for length."""
    return operator.to_basis(as_vector(r0, operator.dimension, name="residual"))


def _decayed_norm(eigenvalues: np.ndarray, c: np.ndarray, t: float) -> float:
    return float(np.linalg.norm(np.exp(-t * eigenvalues) * c))


def residual_t(operator: EigenDecomposition, r0, t: float) -> float:
    """Norm of exp(-t Q) r0, the data misfit of the flow at time t."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    return _decayed_norm(operator.eigenvalues, _basis_residual(operator, r0), t)


def find_t_delta(operator: EigenDecomposition, r0, C: float, delta: float,
                 value_rtol: float = 1e-10) -> float:
    """First time the flow's residual norm reaches C * delta.

    Brackets the crossing by doubling from 1 / lam_max, then bisects until
    the residual value, taken in Q's eigenbasis, matches C * delta to
    value_rtol / 8 relative. The margin is for roundoff: the residual
    recomputed directly as ||A u(t) - f_delta|| differs from the basis
    value by about 1e-11 relative, and stays within value_rtol. Should the
    bisection run out of floats first, a crossing within value_rtol is
    still returned.
    """
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    if not 0.0 < value_rtol < math.inf:
        raise ValueError(f"value_rtol must be positive and finite, got {value_rtol}")
    target = C * delta
    # r0 is mapped into Q's eigenbasis once; every probe below is then O(n)
    # and gives the bits residual_t gives.
    lam = operator.eigenvalues
    c = _basis_residual(operator, r0)
    initial = _decayed_norm(lam, c, 0.0)
    if initial <= target:
        raise ValueError(
            f"initial residual {initial:.6g} is already at or below C*delta = {target:.6g}"
        )
    lam_max = float(lam[-1])
    if lam_max <= 0.0:
        raise ValueError("residual never decays: operator has no positive eigenvalues")

    t_lo = 0.0
    t_hi = 1.0 / lam_max
    for _ in range(200):
        if _decayed_norm(lam, c, t_hi) <= target:
            break
        t_lo = t_hi
        t_hi *= 2.0
    else:
        raise ValueError(
            f"residual plateaus above C*delta = {target:.6g}; no crossing exists"
        )

    for _ in range(400):
        mid = 0.5 * (t_lo + t_hi)
        value = _decayed_norm(lam, c, mid)
        miss = abs(value - target)
        if miss <= 0.125 * value_rtol * target:
            return mid
        if mid == t_lo or mid == t_hi:
            if miss <= value_rtol * target:
                return mid
            break
        if value > target:
            t_lo = mid
        else:
            t_hi = mid
    raise ValueError("bisection failed to localize the crossing time")
