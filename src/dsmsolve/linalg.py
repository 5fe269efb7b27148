"""Dense linear algebra kernels shared by the solvers.

Everything is float64. Matrices are 2-d numpy arrays, vectors 1-d.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix-vector product with an explicit dimension check."""
    M = as_matrix(M)
    x = as_vector(x)
    if M.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {M.shape}, vector has length {x.shape[0]}")
    return M @ x


def gram(M: np.ndarray, right: bool = False) -> np.ndarray:
    """Gram matrix M^T M (or M M^T when right=True), symmetrized exactly."""
    M = as_matrix(M)
    G = M @ M.T if right else M.T @ M
    # BLAS accumulation order can leave the two triangles a few ulp apart.
    return 0.5 * (G + G.T)


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


def _factor_shifted(G: np.ndarray, a: float) -> SpdFactorization:
    """Factor G + a I for a Gram matrix G from gram().

    G is exactly symmetric by construction, so spd_factor's symmetry check
    and symmetrization, a bitwise no-op here, are skipped. G is not modified.
    Raises spd_factor's errors on non-finite entries and on matrices that
    are not positive definite.
    """
    S = G.copy()
    S[np.diag_indices_from(S)] += a
    return _cholesky(as_matrix(S))


def spd_solve(factorization: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Solve M x = b given a factorization of M."""
    return factorization.solve(b)


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
    """Spectral norm (largest singular value) of a rectangular matrix.

    Power iteration on the Gram matrix with a fixed all-ones start vector,
    so repeated calls on the same input give the same value.
    """
    return _gram_norm(gram(M))


def _gram_norm(G: np.ndarray) -> float:
    """op_norm(M) given G = gram(M): square root of G's largest eigenvalue.

    Zero for an empty or zero G.
    """
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
