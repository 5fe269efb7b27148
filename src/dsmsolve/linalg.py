"""Dense linear algebra kernels shared by the solvers.

Everything is float64. Matrices are 2-d numpy arrays, vectors 1-d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-d float array, rejecting non-finite entries."""
    M = np.asarray(values, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def as_vector(values) -> np.ndarray:
    """Coerce to a 1-d float array, rejecting non-finite entries."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


def gram(M: np.ndarray, right: bool = False) -> np.ndarray:
    """Gram matrix M^T M (or M M^T when right=True), symmetrized exactly.

    Raises ValueError, rather than return inf, when an entry overflows.
    """
    M = as_matrix(M)
    G = M @ M.T if right else M.T @ M
    # BLAS accumulation order can leave the two triangles a few ulp apart.
    G = 0.5 * (G + G.T)
    if not np.all(np.isfinite(G)):
        raise ValueError("Gram matrix overflows float64; scale A, f_delta and delta down by a common factor")
    return G


def _require_symmetric(M: np.ndarray, context: str) -> np.ndarray:
    scale = np.max(np.abs(M)) if M.size else 0.0
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{context}: matrix must be square, got {M.shape}")
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"{context}: matrix is not symmetric")
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class SpdFactorization:
    """Cholesky factor of a symmetric positive definite matrix, M = L L^T.

    solve() runs two passes of residual correction against the stored
    matrix; a bare triangular solve loses too many digits once the
    condition number gets near 1e12.

    The triangular solves hand LAPACK the transposed view L^T as an upper
    factor. numpy returns L in row-major order, so L^T is already
    column-major and is passed through without a copy, whereas L itself
    would be copied in full, n^2 entries, on every solve. Upper solves with
    L^T give the same bits as lower solves with L.
    """

    lower: np.ndarray
    original: np.ndarray

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve((self.lower.T, False), b, check_finite=False)

    def _refined_solve(self, b: np.ndarray) -> np.ndarray:
        x = self._raw_solve(b)
        for _ in range(2):
            x = x + self._raw_solve(b - self.original @ x)
        return x

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = as_vector(b)
        if b.shape[0] != self.dimension:
            raise ValueError(
                f"dimension mismatch: factor is {self.dimension}x{self.dimension}, "
                f"right-hand side has length {b.shape[0]}"
            )
        return self._refined_solve(b)

    def solve_matrix(self, B: np.ndarray) -> np.ndarray:
        B = as_matrix(B)
        if B.shape[0] != self.dimension:
            raise ValueError(
                f"dimension mismatch: factor is {self.dimension}x{self.dimension}, "
                f"block has {B.shape[0]} rows"
            )
        return self._refined_solve(B)

    def matrix(self) -> np.ndarray:
        """Re-multiply the factor, recovering the original matrix."""
        return self.lower @ self.lower.T


def _cholesky(S: np.ndarray) -> SpdFactorization:
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        raise ValueError("spd_factor: matrix is not positive definite") from None
    return SpdFactorization(lower=L, original=S)


def spd_factor(M: np.ndarray) -> SpdFactorization:
    """Factor a symmetric positive definite matrix.

    Raises ValueError on non-symmetric input and on matrices that are not
    positive definite to working precision.
    """
    M = as_matrix(M)
    return _cholesky(_require_symmetric(M, "spd_factor"))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition M = V diag(eigenvalues) V^T.

    Eigenvalues are sorted ascending; eigenvector k is the column
    eigenvectors[:, k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        V = self.eigenvectors
        return (V * self.eigenvalues) @ V.T

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of x in the eigenvector basis."""
        return self.eigenvectors.T @ as_vector(x)

    def from_basis(self, c: np.ndarray) -> np.ndarray:
        return self.eigenvectors @ as_vector(c)


def sym_eigen(M: np.ndarray) -> EigenDecomposition:
    """Full spectral decomposition of a symmetric matrix."""
    M = as_matrix(M)
    S = _require_symmetric(M, "sym_eigen")
    eigenvalues, eigenvectors = np.linalg.eigh(S)
    return EigenDecomposition(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def op_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value) of a rectangular matrix."""
    return DenseOperator(M).norm


class DenseOperator:
    """Dense A with A^T A, A A^T and ||A|| each formed once, on first use.

    gram, gram_right and norm carry the bits of gram(A), gram(A, right=True)
    and op_norm(A); norm is the one place ||A|| is computed. A is validated
    and used as given, flags untouched; it must not change while the operator
    is in use.
    """

    def __init__(self, A):
        self.A = as_matrix(A)

    @cached_property
    def gram(self) -> np.ndarray:
        return gram(self.A)

    @cached_property
    def gram_right(self) -> np.ndarray:
        return gram(self.A, right=True)

    @cached_property
    def norm(self) -> float:
        """||A|| by power iteration on A^T A from a fixed all-ones start vector,
        so repeated calls give the same value. Zero for an empty or zero A."""
        G = self.gram
        n = G.shape[0]
        if n == 0:
            return 0.0
        v = np.full(n, 1.0 / np.sqrt(n))
        rayleigh = 0.0
        previous = -np.inf
        for _ in range(10_000):
            w = G @ v
            rayleigh = float(v @ w)
            if abs(rayleigh - previous) <= 1e-10 * max(abs(rayleigh), 1e-300):
                break
            previous = rayleigh
            norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return 0.0
            v = w / norm_w
        return float(np.sqrt(max(rayleigh, 0.0)))

    def t_norm(self, a: float) -> float:
        """Spectral norm of T = (A^T A + a I)^{-1} A^T A: s^2 / (s^2 + a), s = ||A||."""
        s2 = self.norm**2
        return s2 / (s2 + a)

    def check_data(self, f_delta) -> np.ndarray:
        """f_delta as a vector, checked to have one entry per row of A and a
        norm that is finite in float64."""
        f_delta = as_vector(f_delta)
        if f_delta.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"dimension mismatch: operator is {self.A.shape}, data has length {f_delta.shape[0]}"
            )
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(f_delta)
        if not np.isfinite(norm):
            # Name an overflowing A^T A first, since A must then be scaled too.
            _ = self.gram
            raise ValueError(
                "data norm overflows float64; scale f_delta and delta down by a common factor"
            )
        return f_delta

    def factor_shifted(self, a: float, right: bool = False) -> SpdFactorization:
        """Cholesky factor of A^T A + a I, or of A A^T + a I when right=True.

        The Gram matrix is exactly symmetric by construction, so spd_factor's
        symmetry check and symmetrization, a bitwise no-op here, are skipped.
        The cached Gram matrix is not modified. Raises ValueError when the
        shifted matrix is not finite or not positive definite.
        """
        S = (self.gram_right if right else self.gram).copy()
        S[np.diag_indices_from(S)] += a
        try:
            return _cholesky(as_matrix(S))
        except ValueError:
            raise ValueError(
                f"damped Gram matrix could not be factored; a={a} is too small "
                "for this operator at working precision"
            ) from None


def as_operator(A) -> DenseOperator:
    """A itself if it is a DenseOperator, else a fresh one for this call."""
    return A if isinstance(A, DenseOperator) else DenseOperator(A)


def cond_estimate(M: np.ndarray) -> float:
    """Two-norm condition number estimate of a square matrix.

    Ratio of extreme singular values taken from the spectral decomposition
    of the Gram matrix. Returns +inf when the smallest computed eigenvalue
    is not positive, which is how severe rank deficiency shows up at this
    precision.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"cond_estimate: matrix must be square, got {M.shape}")
    eig = sym_eigen(gram(M))
    lam_min = float(eig.eigenvalues[0])
    lam_max = float(eig.eigenvalues[-1])
    if lam_min <= 0.0:
        return float("inf")
    return float(np.sqrt(lam_max / lam_min))
