"""Damped normal-equations preconditioner and the smoothed operators built from it."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import SpdFactorization, _factor_shifted, as_matrix, as_vector, gram, op_norm


def _damped_factor(G: np.ndarray, a: float) -> SpdFactorization:
    """Factor G + a I for the Gram matrix G = A^T A of an operator.

    Preconditioner builds on it, and the parameter searches call it directly
    to evaluate many dampings against one Gram matrix.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"damping parameter must be positive and finite, got {a}")
    try:
        return _factor_shifted(G, a)
    except ValueError:
        raise ValueError(
            f"damped Gram matrix could not be factored; a={a} is too small "
            "for this operator at working precision"
        ) from None


class Preconditioner:
    """Applies P = (A^T A + a I)^{-1} A^T and the contractions T = P A, Q = A P.

    One Cholesky factorization of A^T A + a I is built at construction and
    reused by every apply. T and Q are symmetric positive semidefinite with
    spectral norm strictly below 1, which is what makes the damped iteration
    stable for unit step size.
    """

    def __init__(self, A, a: float):
        A = as_matrix(A)
        a = float(a)
        self.gram_factor: SpdFactorization = _damped_factor(gram(A), a)
        self.A = A
        self.a = a

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    @property
    def cols(self) -> int:
        return self.A.shape[1]

    @cached_property
    def operator_norm(self) -> float:
        return op_norm(self.A)

    @property
    def t_norm(self) -> float:
        """Spectral norm of T = P A, equal to s^2 / (s^2 + a) for s = ||A||."""
        s2 = self.operator_norm**2
        return s2 / (s2 + self.a)

    def apply_p(self, r) -> np.ndarray:
        r = as_vector(r)
        if r.shape[0] != self.rows:
            raise ValueError(f"dimension mismatch: operator has {self.rows} rows, residual has length {r.shape[0]}")
        return self.gram_factor.solve(self.A.T @ r)

    def apply_t(self, x) -> np.ndarray:
        x = as_vector(x)
        if x.shape[0] != self.cols:
            raise ValueError(f"dimension mismatch: operator has {self.cols} columns, input has length {x.shape[0]}")
        return self.apply_p(self.A @ x)

    def apply_q(self, y) -> np.ndarray:
        return self.A @ self.apply_p(y)

    def assemble_t(self) -> np.ndarray:
        """Dense T = (A^T A + a I)^{-1} A^T A, symmetrized. Test-scale sizes only."""
        T = self.gram_factor.solve_matrix(gram(self.A))
        return 0.5 * (T + T.T)

    def assemble_q(self) -> np.ndarray:
        """Dense Q = A (A^T A + a I)^{-1} A^T, symmetrized. Test-scale sizes only."""
        Q = self.A @ self.gram_factor.solve_matrix(self.A.T)
        return 0.5 * (Q + Q.T)


def build_preconditioner(A, a: float) -> Preconditioner:
    """Construct the damped preconditioner for a given operator and damping a > 0."""
    return Preconditioner(A, a)
