"""Dense linear algebra kernels shared by the solvers.

Everything is float64. Matrices are 2-d numpy arrays, vectors 1-d.
"""

from __future__ import annotations

import math
import numbers
import threading
from collections.abc import Callable
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


def as_vector(values, length: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array, rejecting non-finite entries and, when
    length is given, any other length; the error names the vector as name.
    The one place a vector's length is checked."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d array, got ndim={v.ndim}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if length is not None and v.shape[0] != length:
        raise ValueError(f"dimension mismatch: {name} has length {v.shape[0]}, expected {length}")
    return v


def _check_operand(x, length: int) -> None:
    """Raise ValueError unless x is one vector of the given length: the one
    operand check of every product with A or A^T, on either operator."""
    if np.ndim(x) != 1:
        raise ValueError(f"expected a 1-d array, got ndim={np.ndim(x)}")
    if len(x) != length:
        raise ValueError(f"dimension mismatch: operand has length {len(x)}, expected {length}")


def _triangular_toeplitz(M: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """(c, lower) when the square M is L (lower=True) or L^T for the
    lower-triangular Toeplitz L with first column c, else None.

    The test is exact, entry by entry. A general dense M fails the O(n)
    check on its first row and column, so only a triangular M pays for the
    O(n^2) comparison of its diagonals.
    """
    n = M.shape[0]
    if M.shape[1] != n or n < 2:
        return None
    if not M[0, 1:].any():
        lower = True
    elif not M[1:, 0].any():
        lower = False
    else:
        return None
    if not np.array_equal(M[1:, 1:], M[:-1, :-1]):
        return None
    return np.ascontiguousarray(M[:, 0] if lower else M[0, :]), lower


# Order from which as_operator makes a ToeplitzOperator of a triangular
# Toeplitz A. At 1 BLAS thread the FFT product pair overtakes gemv between
# n = 400 and 600 (27-34 against 39-45 us at 400, 140 against 35-47 at 600),
# and below it the Schur factor of a damped Gram matrix is no faster than
# dpotrf (heat, a = 1e-4: 0.39 against 0.08 ms at n = 100, 1.68 against 1.51
# at 400, 2.19 against 3.21 at 511, where both pay dsyrk's 0.08, 2.2 and 4.9
# ms).
_FFT_FLOOR = 512


class _ToeplitzFFT:
    """A x and A^T y for the triangular Toeplitz A given by (c, lower), as
    _triangular_toeplitz returns it, as zero-padded real-FFT convolutions.

    The transform length N is the power of two at or above 2n - 1, so each
    circular convolution of length N is the linear one: with C = rfft(c, N)
    and L the lower-triangular Toeplitz with first column c,
    L x = irfft(C rfft(x))[:n] and L^T y = irfft(conj(C) rfft(y))[:n]. C is
    computed once. Each product is O(n log n) and within a small multiple of
    log2(N) eps ||A||_F ||x|| of the dense one, normwise. Only C and its
    conjugate are held, never A or its operator.
    """

    def __init__(self, c: np.ndarray, lower: bool):
        self.n = c.shape[0]
        self.length = 1 << (2 * self.n - 2).bit_length()
        spectrum = np.fft.rfft(c, self.length)
        self._forward, self._adjoint = (spectrum, spectrum.conj()) if lower else (spectrum.conj(), spectrum)

    def _apply(self, spectrum: np.ndarray, x: np.ndarray) -> np.ndarray:
        _check_operand(x, self.n)
        return np.fft.irfft(spectrum * np.fft.rfft(x, self.length), self.length)[: self.n]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._apply(self._forward, x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self._apply(self._adjoint, y)


def _gram_in_range(peak: float, nonzero: bool) -> None:
    """Raise ValueError, rather than let a route run on inf or zeros, when
    peak, the largest entry of the Gram matrix of a matrix that is nonzero
    when nonzero is true, overflows, or when it underflows to zero although
    the matrix is nonzero (DenseOperator._check_gram_range)."""
    if not math.isfinite(peak):
        raise ValueError("Gram matrix overflows float64; scale A, f_delta and delta down by a common factor")
    if peak == 0.0 and nonzero:
        raise ValueError("Gram matrix underflows float64; scale A, f_delta and delta up by a common factor")


def _gram_lower(M: np.ndarray) -> np.ndarray:
    """Lower triangle of M M^T, in Fortran order, with the strict upper
    triangle zero; its range is checked before it is formed
    (DenseOperator._check_gram_range).

    One dsyrk, numpy's bit for bit, from whichever of M and M^T is
    F-contiguous, so M is not copied; a strided M is copied once into
    Fortran order. M must be a validated float64 matrix.
    """
    if M.size == 0:  # BLAS rejects empty operands
        return np.zeros((M.shape[0], M.shape[0]), order="F")
    if M.flags.c_contiguous and not M.flags.f_contiguous:
        return scipy.linalg.blas.dsyrk(1.0, M.T, trans=1, lower=1)  # M M^T = (M^T)^T M^T
    return scipy.linalg.blas.dsyrk(1.0, np.asfortranarray(M), lower=1)


def _require_symmetric(M: np.ndarray, context: str) -> np.ndarray:
    scale = np.max(np.abs(M)) if M.size else 0.0
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"{context}: matrix must be square, got {M.shape}")
    if np.max(np.abs(M - M.T), initial=0.0) > 1e-10 * max(scale, 1e-300):
        raise ValueError(f"{context}: matrix is not symmetric")
    return 0.5 * (M + M.T)


def _triangle_product(triangle: np.ndarray, shift: float) -> Callable[[np.ndarray], np.ndarray]:
    """x -> (triangle + shift I) x for a vector x, by one dsymv that reads
    the lower triangle only, so no shifted copy is kept."""

    def product(x: np.ndarray) -> np.ndarray:
        if x.shape[0] == 0:  # BLAS rejects empty operands
            return np.zeros_like(x)
        return scipy.linalg.blas.dsymv(1.0, triangle, x, beta=shift, y=x, lower=1)

    return product


def _norm(v: np.ndarray) -> float:
    """||v|| by BLAS dnrm2, which scales as it sums, so it overflows only
    when the norm itself does; an empty v, which BLAS rejects, has norm 0."""
    return float(scipy.linalg.blas.dnrm2(v)) if v.size else 0.0


def _check_damping(a: float) -> None:
    """Raise ValueError unless the damping a is positive and finite."""
    if not 0.0 < a < np.inf:
        raise ValueError(f"damping parameter must be positive and finite, got {a}")


def _check_max_iter(max_iter) -> None:
    """Raise ValueError unless the iteration cap max_iter is an integer >= 1."""
    if not isinstance(max_iter, numbers.Integral):
        raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")


def _check_solution_bound(norm_b: float, a: float) -> None:
    """Raise ValueError, naming a, when ||b|| / a, a bound on the norm of
    (A A^T + a I)^{-1} b, overflows float64."""
    if norm_b / float(a) == math.inf:
        raise ValueError(f"damping parameter a={a} is too small for this right-hand side: "
                         "(A A^T + a I)^{-1} b overflows float64")


# A refined solve stops after its first correction once the residual
# ||b - M x|| is at most _REFINE_STOP eps (mu ||x|| + ||b||), mu >= ||M||:
# x then has a normwise backward error of a few eps (Rigal and Gaches 1967;
# Higham, Accuracy and Stability of Numerical Algorithms, 7.1 and 12.2), and
# a second correction moves it by roundoff.
_REFINE_STOP = 4.0


@dataclass(frozen=True)
class SpdFactorization:
    """Cholesky factor of a symmetric positive definite M, M = L L^T, with
    bound an upper bound on ||M||.

    lower is L in Fortran order, its strict upper triangle zero. product
    applies M to a vector; it is the only way to M, so it must not refer
    back to whoever keeps the factor. solve() takes a checked vector of
    matching length. A raw solve is two triangular solves (dtrsv) with L and
    L^T, refined by residual correction, each residual taken as
    b - product(x): after one correction it stops when that residual is at
    most _REFINE_STOP eps (bound ||x|| + ||b||), and otherwise makes a
    second, the last; a bare triangular solve loses too many digits once
    the condition number gets near 1e12.
    """

    lower: np.ndarray
    product: Callable[[np.ndarray], np.ndarray]
    bound: float

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        if b.shape[0] == 0:  # BLAS rejects empty operands
            return np.zeros(0)
        y = scipy.linalg.blas.dtrsv(self.lower, b, lower=1)
        return scipy.linalg.blas.dtrsv(self.lower, y, lower=1, trans=1, overwrite_x=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = self._raw_solve(b)
        x = x + self._raw_solve(b - self.product(x))
        r = b - self.product(x)
        if _norm(r) <= _REFINE_STOP * np.finfo(float).eps * (self.bound * _norm(x) + _norm(b)):
            return x
        return x + self._raw_solve(r)


class _ReversedFactorization(SpdFactorization):
    """A factorization M = J L L^T J, J the reversal, with lower, product and
    bound as in SpdFactorization: each raw solve is J (L L^T)^{-1} J b."""

    def _raw_solve(self, b: np.ndarray) -> np.ndarray:
        return super()._raw_solve(b[::-1])[::-1]


def _toeplitz_cholesky(c: np.ndarray, lower: bool, product: Callable[[np.ndarray], np.ndarray],
                       shift: float, bound: float) -> SpdFactorization:
    """Factor M = A A^T + shift I, with bound >= ||M||, for the triangular
    Toeplitz A given by (c, lower), as _triangular_toeplitz returns it, in
    O(n^2) by the generalized Schur algorithm; M is never formed, and the
    solves refine against product, which applies M.

    The lower-triangular Toeplitz L with first column c commutes with the
    down-shift Z, so M = L L^T + shift I has M - Z M Z^T = g g^T + h h^T for
    the generator g = c, h = sqrt(shift) e_0. Step k turns (g, h) by one
    Givens rotation so that h[k] = 0; g[k:] is then column k of M's lower
    Cholesky factor R, and (Z g, h) generates the Schur complement. g lives
    in one buffer whose first n - k entries are its rows k.., so the shift
    moves nothing. Each pivot is the hypot of the one before, which g[0]
    then holds, and h[k], so up to rounding none falls below sqrt(shift)
    and the algorithm never breaks down. It can still lose a to roundoff
    in M, so the caller keeps shift well above it (see
    ToeplitzOperator._factor). A lower A = L has A A^T + shift I = M,
    factored by R; an upper A = L^T has L^T L = J L L^T J, as L is
    persymmetric, so its factorization is R with reversed solves.
    """
    n = c.shape[0]
    R = np.zeros((n, n), order="F")
    g = c.copy()
    h = np.zeros(n)
    h[0] = math.sqrt(shift)
    drot = scipy.linalg.blas.drot
    for k in range(n):
        r = math.hypot(g[0], h[k])
        drot(g, h, g[0] / r, h[k] / r, n=n - k, offy=k, overwrite_x=1, overwrite_y=1)
        R[k:, k] = g[: n - k]
    factorization = SpdFactorization if lower else _ReversedFactorization
    return factorization(lower=R, product=product, bound=bound)


def _cholesky(triangle: np.ndarray, shift: float = 0.0) -> SpdFactorization:
    """Factor triangle + shift I, reading the lower triangle of triangle only.

    The triangle is copied once into Fortran order, shifted on the diagonal
    and factored in place; triangle itself is not modified. Its entries are
    taken as finite, so only the shifted diagonal is checked. The factor's
    bound on the 2-norm is the shifted triangle's largest row sum plus its
    largest column sum (dlantr), at least the symmetric matrix's row sums.
    """
    W = triangle.copy(order="F")
    diagonal = W.reshape(-1, order="F")[:: W.shape[0] + 1]
    diagonal += shift
    if np.all(np.isfinite(diagonal)):
        bound = sum(scipy.linalg.lapack.dlantr(norm, W, uplo="L") for norm in ("I", "1"))
        try:
            L = scipy.linalg.cholesky(W, lower=True, overwrite_a=True, check_finite=False)
            return SpdFactorization(lower=L, product=_triangle_product(triangle, shift), bound=bound)
        except np.linalg.LinAlgError:
            pass
    raise ValueError("matrix is not positive definite")


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


def _eigen_coefficients(S: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of the symmetric S, ascending and clamped at 0, and the
    coefficients of b in the matching orthonormal eigenvectors.

    S is reduced once to tridiagonal form Q^T S Q by Householder reflections
    (dsytrd), Q^T b is applied from the stored reflectors (dormqr), and the
    tridiagonal's eigenpairs come from the MRRR solver (stemr). Only the two
    vectors leave the call; the m x m reflectors and eigenvectors are freed.
    Roundoff can leave eigenvalues of a semidefinite S slightly negative,
    hence the clamp. Only the lower triangle of S is read, and S is not
    modified. Raises ValueError when a LAPACK routine or the eigensolver
    fails.
    """
    m = S.shape[0]
    lwork, info = scipy.linalg.lapack.dsytrd_lwork(m, lower=1)
    if info == 0:
        c, d, e, tau, info = scipy.linalg.lapack.dsytrd(S, lower=1, lwork=int(lwork))
    if info != 0:
        raise ValueError(f"tridiagonal reduction (dsytrd) failed with info={info}")
    qb = b
    if m > 1:
        # With lower=1 the reflectors sit below the subdiagonal: Q acts on rows
        # 1.. as the QR-form product of c[1:, :m-1] and leaves row 0 alone. A
        # single column needs only the minimal workspace, lwork = 1.
        tail, _, info = scipy.linalg.lapack.dormqr("L", "T", c[1:, : m - 1], tau, b[1:, None], lwork=1)
        if info != 0:
            raise ValueError(f"applying the tridiagonal reflectors (dormqr) failed with info={info}")
        qb = np.concatenate((b[:1], tail[:, 0]))
    del c
    try:
        eigenvalues, Z = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"tridiagonal eigensolver (stemr) failed: {exc}") from None
    return np.maximum(eigenvalues, 0.0), Z.T @ qb


def _orthogonalize(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """x less its components along the orthonormal rows of basis, by
    classical Gram-Schmidt run twice (two gemv pairs), which keeps the
    result orthogonal to working precision; x is overwritten."""
    for _ in range(2):
        x -= basis.T @ (basis @ x)
    return x


# Golub-Kahan steps a basis takes at most before its caller falls back to
# an exact route, on either operator: the eigenpairs of A A^T for
# vr_newton's root, the residual recurrence for Landweber, the damped solves
# for choose_a, vr_solve and solve_dsm. Heat data settle within it down to
# 0.01% noise (k = 20 at 5%); by FFT products 60 steps cost 2-30% of the
# tridiagonal route from n = 2000 down to n = 512, and the bound does not
# grow with n. An A with min(m, n) < 10 (k_max < 10) always takes the exact
# route.
_GOLUB_KAHAN_MAX_STEPS = 60


class _Bidiagonalization:
    """Golub-Kahan bidiagonalization of an m x n A, started at the nonzero
    f of length m, kept as it grows: U, V, B and the number of steps taken.

    k steps give A V_k = U_{k+1} B_k, U_{k+1} e_1 = f / ||f||, with B_k lower
    bidiagonal, (k + 1) x k, and U and V orthonormal, kept so by full
    reorthogonalization; U and V hold their columns as rows. It holds no A
    and no operator: bases(matvec, rmatvec) replays the stored steps, and
    the read-only SVD of each B_k, and takes new ones, past the stored count
    only, with the products it is given, under the object's lock. Step k
    depends only on A, f and the steps before it, so a replay gives the bits
    of a fresh build. It ends after
    k_max = min(m, n, _GOLUB_KAHAN_MAX_STEPS) steps, rounded down to a
    multiple of 5, or at an exact zero alpha or beta (an exhausted Krylov
    space), which it remembers.
    """

    def __init__(self, f: np.ndarray, n: int):
        m = f.shape[0]
        self.k_max = min(m, n, _GOLUB_KAHAN_MAX_STEPS) // 5 * 5
        self.U = np.empty((self.k_max + 1, m))
        self.V = np.empty((self.k_max, n))
        self.B = np.zeros((self.k_max + 1, self.k_max))
        self.U[0] = f / float(np.linalg.norm(f))
        self.steps = 0
        self.exhausted = False
        self._svds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._lock = threading.Lock()

    def bases(self, matvec: Callable[[np.ndarray], np.ndarray], rmatvec: Callable[[np.ndarray], np.ndarray]):
        """((P, s, Q^T), V) for k = 5, 10, .. up to k_max or the exhaustion:
        the SVD B_k = P diag(s) Q^T, taken by the first call that reaches k,
        and V_k's k columns as rows, a view that later steps leave unchanged."""
        for index, k in enumerate(range(5, self.k_max + 1, 5)):
            if len(self._svds) == index:
                with self._lock:
                    self._extend(matvec, rmatvec, k)
                    if self.steps < k:
                        return
                    if len(self._svds) == index:
                        svd = np.linalg.svd(self.B[: k + 1, :k])
                        for factor in svd:
                            factor.flags.writeable = False
                        self._svds.append(svd)
            yield self._svds[index], self.V[:k]

    def _extend(self, matvec, rmatvec, k: int) -> None:
        """Take steps until there are k, unless the space is exhausted."""
        U, V, B = self.U, self.V, self.B
        while self.steps < k and not self.exhausted:
            j = self.steps
            v = rmatvec(U[j])
            if j:
                v -= B[j, j - 1] * V[j - 1]
            alpha = float(np.linalg.norm(_orthogonalize(v, V[:j])))
            if alpha == 0.0:
                self.exhausted = True
                return
            V[j] = v / alpha
            B[j, j] = alpha
            u = matvec(V[j])
            u -= alpha * U[j]
            beta = float(np.linalg.norm(_orthogonalize(u, U[: j + 1])))
            if beta == 0.0:
                self.exhausted = True
                return
            U[j + 1] = u / beta
            B[j + 1, j] = beta
            self.steps = j + 1


@dataclass
class _StructureEntry:
    """What is kept of one A across calls (DenseOperator._entry): its ||A||,
    once known, and the bidiagonalization from one start vector, keyed by
    that vector's bytes. key is (lower, the bytes of c) for a triangular
    Toeplitz structure, None for the entry of one DenseOperator."""

    key: tuple[bool, bytes] | None = None
    norm: float | None = None
    start: bytes | None = None
    basis: _Bidiagonalization | None = None

    def basis_at(self, f: np.ndarray, n: int) -> _Bidiagonalization:
        """The bidiagonalization started at f, built when f's bytes are not
        those the kept one was started at; that one is dropped first."""
        start = f.tobytes()
        with _structure_lock:
            if self.start != start:
                self.start = self.basis = None
                self.basis = _Bidiagonalization(f, n)
                self.start = start
            return self.basis


# The one entry kept across operators, for the last triangular Toeplitz
# structure a ToeplitzOperator asked for, and the lock that guards the slot
# and every entry's start and basis, a DenseOperator's own included.
_last_structure: _StructureEntry | None = None
_structure_lock = threading.Lock()


def _structure_entry(c: np.ndarray, lower: bool) -> _StructureEntry:
    """The entry for (c, lower), which replaces, and so frees, another
    structure's entry and its bidiagonalization."""
    global _last_structure
    key = (lower, c.tobytes())
    with _structure_lock:
        if _last_structure is None or _last_structure.key != key:
            _last_structure = _StructureEntry(key)
        return _last_structure


def _settled_on_basis(op: DenseOperator, d: np.ndarray, evaluate, agree):
    """The first settled result of a method taken as a filter on a
    Golub-Kahan basis of op's A started at the nonzero d, or None when none
    settles, so that the caller takes its exact route. The one acceptance
    loop of every filter on the basis; its callers are choose_a's search,
    vr_solve, vr_newton's root, and landweber_solve and solve_dsm (through
    solvers._projected_run).

    Every 5 steps (_Bidiagonalization.bases), with B_k = P diag(s) Q^T and
    g = ||d|| P^T e_1, the result is evaluate(s, g, V, Q^T), V holding
    V_k's columns as rows; evaluate returns None, or raises ValueError, for
    "not yet". The first result for which agree(result, result on B_{k-5})
    holds is returned. None comes once the bidiagonalization ends, after
    _GOLUB_KAHAN_MAX_STEPS steps or at an exact zero alpha or beta. An A A^T
    out of float64's range is named before any product
    (op._check_gram_range). The basis is op._basis(d), the one kept in op's
    entry for d, which this call replays and extends.
    """
    op._check_gram_range()
    norm_d = float(np.linalg.norm(d))
    previous = None
    for (P, s, Qt), V in op._basis(d).bases(op.matvec, op.rmatvec):
        try:
            result = evaluate(s, norm_d * P[0], V, Qt)
        except ValueError:
            result = None
        if result is not None and previous is not None and agree(result, previous):
            return result
        previous = result
    return None


def op_norm(M: np.ndarray) -> float:
    """Spectral norm (largest singular value) of a rectangular matrix."""
    return as_operator(M).norm


class DenseOperator:
    """Dense A, the one owner of every product with A and every
    decomposition of A: A A^T, ||A||, the Golub-Kahan basis, the SVD and the
    Cholesky factor of A A^T + a I for the last a, each formed on first use.

    matvec and rmatvec apply A and A^T to one vector of matching length,
    which _check_operand checks as a ToeplitzOperator's products do, and
    give numpy's A @ x and A.T @ y bit for bit; ||A|| and the Golub-Kahan
    basis take A only through them. gram_right holds the lower triangle of
    A A^T, the one Gram matrix, in Fortran order, its strict upper triangle
    zero, one dsyrk (_gram_lower); mirrored, it is numpy's A A^T bit for
    bit. Only the exact routes read it: the damped solves, Landweber's
    residual recurrence and vr_newton's exact misfit spectrum (the
    eigenpairs of A A^T, _eigen_coefficients). A is validated and used as
    given, flags untouched; it must not change while the operator is in
    use.

    ||A|| and the Golub-Kahan basis of the last data are kept in the
    operator's own entry (_entry), which holds no operator and no A and is
    filled on first use: every call on the same data replays and extends
    that basis, bit for bit as a fresh build (_StructureEntry.basis_at).

    Every A takes these dense products when the class is called directly, and
    from as_operator unless it is exactly triangular Toeplitz of order
    n >= 512: a ToeplitzOperator, which overrides the products, the largest
    entry of A A^T, the damped factor and the entry.
    """

    _damped: tuple[float, SpdFactorization] | None = None

    def __init__(self, A):
        self.A = as_matrix(A)
        self._own_entry = _StructureEntry()

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x for a float vector x of length n."""
        _check_operand(x, self.shape[1])
        return self.A @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y for a float vector y of length m."""
        _check_operand(y, self.shape[0])
        return self.A.T @ y

    def _gram_product(self, shift: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> (A A^T + shift I) x by one dsymv on gram_right, formed once
        per operator. The product refers to the triangle, never to the
        operator. Raises the Gram matrix's overflow or underflow error."""
        return _triangle_product(self.gram_right, shift)

    @cached_property
    def gram_right(self) -> np.ndarray:
        self._check_gram_range()
        return _gram_lower(self.A)

    @cached_property
    def _gram_peak(self) -> float:
        """The largest entry of A A^T, max_i ||row_i||^2, in O(mn); inf when
        it overflows."""
        with np.errstate(over="ignore"):  # _gram_in_range names an overflow
            return float(np.einsum("ij,ij->i", self.A, self.A).max(initial=0.0))

    def _check_gram_range(self) -> None:
        """The one Gram range check, told from the largest entry of A A^T
        (_gram_peak), which is zero only when every entry is; it runs
        before ||A||, any damped factor, Gram triangle or basis."""
        peak = self._gram_peak
        _gram_in_range(peak, peak != 0.0 or self.A.any())

    def _entry(self) -> _StructureEntry:
        """The entry that keeps ||A|| and the Golub-Kahan basis across calls:
        this operator's own."""
        return self._own_entry

    def _basis(self, f: np.ndarray) -> _Bidiagonalization:
        """The Golub-Kahan bidiagonalization of A started at f that is kept
        in the entry, shared by every call on this A and f."""
        return self._entry().basis_at(f, self.shape[1])

    @cached_property
    def norm(self) -> float:
        """||A||, kept in the entry, where every operator that shares it
        reads it (_power_norm), after the range check."""
        self._check_gram_range()
        entry = self._entry()
        if entry.norm is None:
            entry.norm = self._power_norm()
        return entry.norm

    def _power_norm(self) -> float:
        """||A|| by power iteration on A A^T, one matvec(rmatvec(v)) per step,
        from a fixed all-ones start vector, until the Rayleigh quotient
        settles within 1e-10 relative, so repeated calls give the same value.
        Zero for an empty or zero A. Once the quotient's change has not
        shrunk tenfold over 100 steps (a top singular value nearly double,
        say), or once the quotient or the iterate's norm overflows (which
        an A A^T in range can do: ||A||^2 or the norm of A A^T v above
        1.8e308), ||A|| is the largest of A's singular values from LAPACK."""
        m = self.shape[0]
        if m == 0:
            return 0.0
        v = np.full(m, 1.0 / np.sqrt(m))
        previous = -np.inf
        checkpoint = np.inf
        for step in range(1, 10_001):
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite quotient ends the iteration
                w = self.matvec(self.rmatvec(v))
                rayleigh = float(v @ w)
            if not math.isfinite(rayleigh):
                break
            change = abs(rayleigh - previous)
            if change <= 1e-10 * max(abs(rayleigh), 1e-300):
                return float(np.sqrt(max(rayleigh, 0.0)))
            if step % 100 == 0:
                if change > 0.1 * checkpoint:
                    break
                checkpoint = change
            previous = rayleigh
            with np.errstate(over="ignore"):  # an overflow ends the iteration
                norm_w = float(np.linalg.norm(w))
            if norm_w == 0.0:
                return 0.0
            if norm_w == math.inf:
                break
            v = w / norm_w
        return float(scipy.linalg.svdvals(self.A)[0])

    @property
    def norm_squared(self) -> float:
        """||A||^2, the scale of every step-size bound and damping; raises
        ValueError when it overflows float64, as it can although A A^T and
        ||A|| do not."""
        s2 = self.norm * self.norm  # a Python float's product rounds to inf, its power raises
        if s2 == math.inf:
            raise ValueError("||A||^2 overflows float64; scale A, f_delta and delta down by a common factor")
        return s2

    def check_data(self, f_delta) -> np.ndarray:
        """f_delta as a vector, checked to have one entry per row of A and a
        norm that is finite in float64, and nonzero unless f_delta is."""
        f_delta = as_vector(f_delta, self.shape[0], name="data")
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(f_delta)
        if not np.isfinite(norm):
            # Name an overflowing A A^T first, since A must then be scaled too.
            self._check_gram_range()
            raise ValueError(
                "data norm overflows float64; scale f_delta and delta down by a common factor"
            )
        if norm == 0.0 and f_delta.any():
            # Likewise an underflowing A A^T.
            self._check_gram_range()
            raise ValueError(
                "data norm underflows float64; scale f_delta and delta up by a common factor"
            )
        return f_delta

    def damped_solve(self, a: float, b) -> np.ndarray:
        """(A A^T + a I)^{-1} b for a vector b of length m. a must be
        positive and finite, b a finite vector of length m, and ||b|| / a, a
        bound on the solution's norm, finite: checked in that order."""
        factor = self._factor_shifted(a)
        b = as_vector(b, self.shape[0], name="right-hand side")
        _check_solution_bound(_norm(b), a)
        return factor.solve(b)

    def _factor_shifted(self, a: float) -> SpdFactorization:
        """The factor of A A^T + a I from _factor(a), kept for the last a
        only, keyed by the exact float; another a drops it before factoring,
        so no two m x m factors are held at once. Raises ValueError when a is
        not positive and finite, then when A A^T is out of float64's range
        (_check_gram_range), and as _factor does."""
        _check_damping(a)
        self._check_gram_range()
        if self._damped is not None and self._damped[0] == a:
            return self._damped[1]
        self._damped = None
        factor = self._factor(a)
        self._damped = (a, factor)
        return factor

    def _factor(self, a: float) -> SpdFactorization:
        """Cholesky factor of A A^T + a I in O(m^3), by LAPACK's Cholesky of
        the shifted triangle, its solves refined against that triangle.
        Raises ValueError when the shifted matrix is not finite or not
        positive definite."""
        triangle = self.gram_right  # outside the try: a Gram error keeps its own message
        try:
            return _cholesky(triangle, a)
        except ValueError:
            raise ValueError(
                f"damped Gram matrix could not be factored; a={a} is too small "
                "for this operator at working precision"
            ) from None

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


class ToeplitzOperator(DenseOperator):
    """A square A that is exactly L (lower=True) or L^T for the
    lower-triangular Toeplitz L with first column c, such as heat_matrix, as
    _triangular_toeplitz finds it; A is the validated matrix. as_operator
    makes one from order n = 512; built directly, it works at any order.

    A is applied by FFT in O(n log n), so neither ||A||, the damped factor
    nor Landweber's exact route form A A^T: each takes A (A^T x) from the
    FFT pair, and the Golub-Kahan basis takes its products from it too.
    That basis, and ||A||, are kept across operators too: the entry
    (_entry) is one module-level entry for the last structure, keyed by
    (lower, the bytes of c) (_structure_entry), so a call on the same A and
    data replays the stored steps and extends them with this operator's own
    products. Another structure drops the entry, and its basis, before a
    new one is made. The factor of A A^T + a I takes O(n^2) by the
    generalized Schur algorithm when a > eps (sum |c_i|)^2 (see _factor).
    The largest entry of A A^T, which the range check reads, is c . c
    (_gram_peak), in O(n); the Gram triangle, when an exact route forms it,
    is DenseOperator's, by dsyrk.
    """

    def __init__(self, A: np.ndarray, c: np.ndarray, lower: bool):
        self.A, self.c, self.lower = A, c, lower
        self._fft = _ToeplitzFFT(c, lower)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A x by zero-padded real FFTs of a length N < 4n in O(n log n),
        within a small multiple of log2(N) eps ||A||_F ||x|| of numpy's
        A @ x, normwise."""
        return self._fft.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """A^T y by FFT, as matvec applies A."""
        return self._fft.rmatvec(y)

    def _entry(self) -> _StructureEntry:
        """The module-level entry of the structure (c, lower), shared by every
        operator of that structure."""
        return _structure_entry(self.c, self.lower)

    @cached_property
    def _gram_peak(self) -> float:
        """The largest entry of A A^T, c . c, in O(n), inf when it overflows."""
        with np.errstate(over="ignore"):  # _gram_in_range names an overflow
            return float(self.c @ self.c)

    def _gram_product(self, shift: float) -> Callable[[np.ndarray], np.ndarray]:
        """x -> A (A^T x) + shift x by FFT; it forms no Gram matrix and refers
        only to the FFT spectra."""
        fft = self._fft
        return lambda x: fft.matvec(fft.rmatvec(x)) + shift * x

    def _factor(self, a: float) -> SpdFactorization:
        """The factor of A A^T + a I in O(n^2) by the generalized Schur
        algorithm (_toeplitz_cholesky) when a > eps (sum |c_i|)^2, which
        never fails; its solves refine against _gram_product(a), so it forms
        no A A^T, with the bound (sum |c_i|)^2 + a, as
        ||A||^2 <= ||A||_1 ||A||_inf = (sum |c_i|)^2.
        At or below eps times that, a floor that scales exactly with A by
        powers of two, roundoff in A A^T can swamp a, and A is factored as
        DenseOperator factors it."""
        l1 = float(np.sum(np.abs(self.c)))
        if a > np.finfo(float).eps * l1 * l1:
            return _toeplitz_cholesky(self.c, self.lower, self._gram_product(a), a, float(l1 * l1 + a))
        return super()._factor(a)


def as_operator(A) -> DenseOperator:
    """A itself if it is an operator, else a fresh one for this call: A is
    validated once, and a ToeplitzOperator is returned when A is exactly
    lower- or upper-triangular Toeplitz (_triangular_toeplitz) of order
    n >= 512, a DenseOperator otherwise. The one place the class is decided.

    The structure test runs first, so a triangular Toeplitz A is checked
    finite on c alone, in O(n): the exact test makes every entry of A an
    entry of c or zero. Every other A, one whose NaN breaks the structure
    included, goes to DenseOperator, which validates all of it."""
    if isinstance(A, DenseOperator):
        return A
    M = np.asarray(A, dtype=float)
    structure = _triangular_toeplitz(M) if M.ndim == 2 and M.shape[0] >= _FFT_FLOOR else None
    if structure is None or not np.all(np.isfinite(structure[0])):
        return DenseOperator(M)
    return ToeplitzOperator(M, *structure)


def cond_estimate(M: np.ndarray) -> float:
    """Two-norm condition number s_1 / s_n of a square matrix, from its
    singular values, as np.linalg.cond gives it.

    Returns +inf only when s_n is exactly zero. Digits beyond 1 / eps
    (about 4.5e15) carry no meaning: s_n is then below the roundoff in s_1,
    and the ratio says only that M is singular to working precision.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError(f"cond_estimate: matrix must be square and nonempty, got {M.shape}")
    s = scipy.linalg.svdvals(M)
    if s[-1] == 0.0:
        return float("inf")
    return float(s[0] / s[-1])
