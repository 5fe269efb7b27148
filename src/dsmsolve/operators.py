"""Damped normal-equations preconditioner and the smoothed operators built from it."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .linalg import SpdFactorization, as_operator, as_vector, gram


class Preconditioner:
    """Applies P = (A^T A + a I)^{-1} A^T and the contractions T = P A, Q = A P.

    One Cholesky factorization of A^T A + a I is built at construction and
    reused by every apply. T and Q are symmetric positive semidefinite with
    spectral norm strictly below 1, which is what makes the damped iteration
    stable for unit step size.

    A is an array or a DenseOperator. The operator is kept, as op, so
    t_norm reads the ||A|| it holds; the factor already keeps the operator's
    A^T A triangle, so an array argument's operator costs no extra memory.
    """

    def __init__(self, A, a: float):
        op = as_operator(A)
        a = float(a)
        if not (math.isfinite(a) and a > 0.0):
            raise ValueError(f"damping parameter must be positive and finite, got {a}")
        self.gram_factor: SpdFactorization = op.factor_shifted(a)
        self.op = op
        self.A = op.A
        self.a = a

    @property
    def rows(self) -> int:
        return self.A.shape[0]

    @property
    def cols(self) -> int:
        return self.A.shape[1]

    @property
    def t_norm(self) -> float:
        """Spectral norm of T = P A, equal to s^2 / (s^2 + a) for s = ||A||."""
        return self.op.t_norm(self.a)

    @cached_property
    def ascending_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, U, V) of the full SVD A = U diag(s) V^T, in ascending order.

        Computed once, on first use; dense and test-scale. s holds the
        min(m, n) singular values ascending. The columns of U (m x m) and
        V (n x n) are reordered to match, each copied once into contiguous
        memory: their first m - len(s), respectively n - len(s), columns
        lie in the null spaces of A^T and A, the rest pair with s in order.
        """
        U, s, Vt = np.linalg.svd(self.A, full_matrices=True)
        return s[::-1], U[:, ::-1].copy(), Vt[::-1].copy().T

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
        """Dense T = (A^T A + a I)^{-1} A^T A, symmetrized. Test-scale sizes only.

        Built from the Cholesky factor, independently of the SVD behind
        continuous.spectral_t, and the reference that path is checked against.
        """
        T = self.gram_factor.solve_matrix(gram(self.A))
        return 0.5 * (T + T.T)

    def assemble_q(self) -> np.ndarray:
        """Dense Q = A (A^T A + a I)^{-1} A^T, symmetrized. Test-scale sizes only.

        Built from the Cholesky factor, independently of the SVD behind
        continuous.spectral_q, and the reference that path is checked against.
        """
        Q = self.A @ self.gram_factor.solve_matrix(self.A.T)
        return 0.5 * (Q + Q.T)


def build_preconditioner(A, a: float) -> Preconditioner:
    """Construct the damped preconditioner for a given operator and damping a > 0."""
    return Preconditioner(A, a)
