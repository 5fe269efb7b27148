"""Damped normal-equations preconditioner and the smoothed operators built from it."""

from __future__ import annotations

import numpy as np

from .linalg import as_operator, as_vector


class Preconditioner:
    """Applies P = A^T (A A^T + a I)^{-1} and the contractions T = P A, Q = A P.

    P equals (A^T A + a I)^{-1} A^T. A plain (operator, a) pair: A is an
    array or an operator, kept as op = as_operator(A).
    Every product with A is op.matvec or op.rmatvec, and every damped solve
    is op.damped_solve(a, .), which reuses the factor the operator keeps for
    its last a. The factor is built at construction,
    so an a the operator cannot take fails here. T and Q are symmetric
    positive semidefinite with spectral norm strictly below 1, which is what
    makes the damped iteration stable for unit step size.
    """

    def __init__(self, A, a: float):
        self.op, self.a = as_operator(A), float(a)
        self.op._factor_shifted(self.a)

    @property
    def t_norm(self) -> float:
        """Spectral norm of T = P A, equal to s^2 / (s^2 + a) for s = ||A||."""
        s2 = self.op.norm_squared
        return s2 / (s2 + self.a)

    def apply_p(self, r) -> np.ndarray:
        r = as_vector(r, self.op.shape[0], name="residual")
        return self.op.rmatvec(self.op.damped_solve(self.a, r))

    def apply_t(self, x) -> np.ndarray:
        return self.apply_p(self.op.matvec(as_vector(x, self.op.shape[1], name="input")))

    def apply_q(self, y) -> np.ndarray:
        return self.op.matvec(self.apply_p(y))

    def _damped_columns(self) -> np.ndarray:
        """(A A^T + a I)^{-1} A, one damped solve per column of A."""
        Z = np.empty(self.op.shape)
        for j, column in enumerate(self.op.A.T):
            Z[:, j] = self.op.damped_solve(self.a, column)
        return Z

    def assemble_t(self) -> np.ndarray:
        """Dense T = A^T (A A^T + a I)^{-1} A, symmetrized. Dense-only, test-scale sizes.

        Built from one damped solve per column of A, independently of the SVD
        behind continuous.spectral_t, and the reference that path is checked
        against.
        """
        T = self.op.A.T @ self._damped_columns()
        return 0.5 * (T + T.T)

    def assemble_q(self) -> np.ndarray:
        """Dense Q = (A A^T + a I)^{-1} A A^T, symmetrized. Dense-only, test-scale sizes.

        Built from one damped solve per column of A, independently of the SVD
        behind continuous.spectral_q, and the reference that path is checked
        against.
        """
        Q = self._damped_columns() @ self.op.A.T
        return 0.5 * (Q + Q.T)


def build_preconditioner(A, a: float) -> Preconditioner:
    """Construct the damped preconditioner for a given operator and damping a > 0."""
    return Preconditioner(A, a)
