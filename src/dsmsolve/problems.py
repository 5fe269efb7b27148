"""Test problems: the inverse heat benchmark (sideways heat kernel) and a
first-kind Volterra operator, the noise model, matrix file I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import as_matrix, as_vector

# exp underflows to zero past this; avoids inf * 0 from the power prefactor
_EXP_ARG_MAX = 745.0


def heat_kernel(t: float, kappa: float = 1.0) -> float:
    """Surface flux kernel t^{-3/2} exp(-1 / (4 kappa^2 t)) / (2 kappa sqrt(pi)).

    Continuously extended by 0 at t = 0 (the exponential wins every power).
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0.0 <= t < math.inf:
        raise ValueError(f"kernel is defined for finite t >= 0, got {t}")
    if t == 0.0:
        return 0.0
    arg = 1.0 / (4.0 * kappa * kappa * t)
    if arg > _EXP_ARG_MAX:
        return 0.0
    return t**-1.5 / (2.0 * kappa * math.sqrt(math.pi)) * math.exp(-arg)


def heat_matrix(n: int, kappa: float = 1.0) -> np.ndarray:
    """Collocated Volterra operator of the sideways heat problem on [0, 1].

    Lower-triangular Toeplitz, entry (i, j) = heat_kernel((i - j + 1/2) / n) / n
    for j <= i. Severely ill-conditioned already for moderate n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    column = np.array([heat_kernel((m + 0.5) / n, kappa) / n for m in range(n)])
    row = np.zeros(n)
    row[0] = column[0]
    return scipy.linalg.toeplitz(column, row)


def exact_solution(n: int) -> np.ndarray:
    """Reference flux profile 4 t (1 - t) at the midpoint nodes t_j = (j - 1/2) / n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = (np.arange(1, n + 1) - 0.5) / n
    return 4.0 * t * (1.0 - t)


def add_noise(b, delta_rel: float, seed: int) -> tuple[np.ndarray, float]:
    """Perturb b with seeded Gaussian noise rescaled to exactly delta_rel * ||b||.

    Returns (b_noisy, delta) with delta = delta_rel * ||b|| by construction.
    """
    b = as_vector(b)
    if not 0.0 <= delta_rel < math.inf:
        raise ValueError(f"delta_rel must be finite and nonnegative, got {delta_rel}")
    delta = delta_rel * float(np.linalg.norm(b))
    if delta == 0.0:
        return b.copy(), 0.0
    rng = np.random.default_rng(seed)
    e = rng.standard_normal(b.shape[0])
    norm_e = float(np.linalg.norm(e))
    if norm_e == 0.0:
        raise ValueError("degenerate noise draw")
    return b + e * (delta / norm_e), delta


@dataclass(frozen=True)
class ProblemInstance:
    """One benchmark realization: operator, truth, clean and noisy data."""

    A: np.ndarray
    u_exact: np.ndarray
    b_exact: np.ndarray
    b_noisy: np.ndarray
    delta: float
    delta_rel: float
    seed: int

    @property
    def n(self) -> int:
        return self.A.shape[1]


def _instance(A: np.ndarray, u: np.ndarray, delta_rel: float, seed: int) -> ProblemInstance:
    """The instance with operator A and truth u: b = A u plus add_noise's draw."""
    b = A @ u
    b_noisy, delta = add_noise(b, delta_rel, seed)
    return ProblemInstance(A=A, u_exact=u, b_exact=b, b_noisy=b_noisy,
                           delta=delta, delta_rel=delta_rel, seed=seed)


def heat_instance(n: int, delta_rel: float, seed: int, kappa: float = 1.0) -> ProblemInstance:
    """Assemble the inverse heat benchmark at size n with one noise draw."""
    return _instance(heat_matrix(n, kappa), exact_solution(n), delta_rel, seed)


def volterra_instance(n: int, delta_rel: float, seed: int) -> ProblemInstance:
    """A first-kind Volterra problem at size n with one noise draw.

    A = tril(ones(n, n)) / n is a rectangle rule for u -> the integral of u
    from 0 to t, lower-triangular Toeplitz as heat_matrix is, but its
    singular values fall like 1/k, where heat's fall faster than
    exponentially. The truth is
    u(t_j) = sin(pi t_j) + t_j at t_j = (j - 1/2) / n; the noise is
    add_noise's.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    t = (np.arange(1, n + 1) - 0.5) / n
    return _instance(np.tril(np.ones((n, n))) / n, np.sin(np.pi * t) + t, delta_rel, seed)


def save_matrix(path, M) -> None:
    """Write a matrix as comma-separated rows, 17 significant digits."""
    np.savetxt(path, as_matrix(M), fmt="%.17g", delimiter=",")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix. Errors name the offending line."""
    rows = []
    width = None
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(part) for part in parts]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a comma-separated row of numbers") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}: line {lineno}: expected {width} entries, found {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows found")
    return np.array(rows)


def save_vector(path, v) -> None:
    """Write a vector one entry per line, 17 significant digits."""
    np.savetxt(path, as_vector(v), fmt="%.17g")


def load_vector(path) -> np.ndarray:
    """Read a vector written by save_vector. Errors name the offending line."""
    values = []
    with open(path, "r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not a number") from None
    if not values:
        raise ValueError(f"{path}: no entries found")
    return np.array(values)
