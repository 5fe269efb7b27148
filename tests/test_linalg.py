"""Tests for the dense kernels: coercion, factorization, eigen, norms."""

import numpy as np
import pytest
import scipy.linalg

from dsmsolve import (
    build_preconditioner,
    choose_a,
    cond_estimate,
    gram,
    landweber_solve,
    op_norm,
    phi,
    solve_dsm,
    spd_factor,
    sym_eigen,
    vr_newton,
)
from dsmsolve.linalg import as_matrix, as_vector
from dsmsolve.problems import heat_instance


def rotated_spd(seed, n, cond):
    """SPD matrix with geometric spectrum [1, 1/cond] in a random orthogonal basis."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, 1.0 / cond, n)
    return (Q * lam) @ Q.T, Q, lam


def test_as_matrix_accepts_lists_and_arrays():
    M = as_matrix([[1, 2], [3, 4]])
    assert M.dtype == np.float64
    assert M.shape == (2, 2)


def test_as_matrix_rejects_wrong_rank_and_nonfinite():
    with pytest.raises(ValueError, match="2-d"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="2-d"):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[np.inf, 0.0]])


def test_as_vector_rejects_wrong_rank_and_nonfinite():
    assert as_vector([1, 2, 3]).shape == (3,)
    with pytest.raises(ValueError, match="1-d"):
        as_vector([[1.0]])
    with pytest.raises(ValueError, match="finite"):
        as_vector([1.0, np.nan])


def test_gram_left_and_right():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3))
    assert np.allclose(gram(M), M.T @ M, rtol=1e-15, atol=1e-15)
    assert np.allclose(gram(M, right=True), M @ M.T, rtol=1e-15, atol=1e-15)
    assert gram(M).shape == (3, 3)
    assert gram(M, right=True).shape == (5, 5)


def test_gram_is_exactly_symmetric():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        G = gram(rng.standard_normal((17, 11)))
        assert np.array_equal(G, G.T)
    # Doubly strided views: here the raw products M^T M and M M^T come back
    # a few ulp from symmetric, so only gram's symmetrization makes them exact.
    rng = np.random.default_rng(10)
    wide = rng.standard_normal((400, 900))[::2, ::3]
    tall = rng.standard_normal((600, 600))[::2, ::3]
    for G in (gram(wide), gram(tall, right=True)):
        assert G.shape == (300, 300)
        assert np.array_equal(G, G.T)


def test_spd_factor_rejects_bad_matrices():
    with pytest.raises(ValueError, match="square"):
        spd_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="not symmetric"):
        spd_factor(np.array([[1.0, 5.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        spd_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="not positive definite"):
        spd_factor(np.zeros((3, 3)))


def test_spd_solve_consistent_systems_across_conditioning():
    """Systems with a known solution stay accurate up to cond = 1e12."""
    for seed, cond in enumerate([1e2, 1e6, 1e10, 1e12]):
        M, _, _ = rotated_spd(seed, 24, cond)
        rng = np.random.default_rng(100 + seed)
        x_true = rng.standard_normal(24)
        b = M @ x_true
        factor = spd_factor(M)
        x = factor.solve(b)
        residual = np.linalg.norm(M @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-8, f"cond={cond:.0e}: relative residual {residual:.3e}"


def test_spd_factor_roundtrip_and_dimension_guard():
    M, _, _ = rotated_spd(7, 9, 1e4)
    factor = spd_factor(M)
    assert factor.dimension == 9
    assert np.allclose(factor.matrix(), M, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.solve(np.ones(8))
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.solve_matrix(np.ones((8, 2)))


def test_spd_solve_matrix_matches_column_solves():
    M, _, _ = rotated_spd(3, 12, 1e6)
    rng = np.random.default_rng(33)
    B = M @ rng.standard_normal((12, 4))
    factor = spd_factor(M)
    X = factor.solve_matrix(B)
    for k in range(4):
        assert np.allclose(X[:, k], factor.solve(B[:, k]), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_spd_solves_equal_lower_factor_reference_bit_for_bit(n):
    """The transposed-view solves reproduce lower-factor cho_solve with two refinements."""
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n + 2, n))
    M = B.T @ B + 1e-3 * np.eye(n)
    M = 0.5 * (M + M.T)
    factor = spd_factor(M)

    def reference(b):
        x = scipy.linalg.cho_solve((factor.lower, True), b, check_finite=False)
        for _ in range(2):
            x = x + scipy.linalg.cho_solve((factor.lower, True), b - M @ x, check_finite=False)
        return x

    b = rng.standard_normal(n)
    assert np.array_equal(factor.solve(b), reference(b))
    block = rng.standard_normal((n, 5))
    assert np.array_equal(factor.solve_matrix(block), reference(block))


def test_sym_eigen_reconstructs_and_sorts():
    for seed in range(8):
        M, _, lam = rotated_spd(seed, 10, 1e5)
        eig = sym_eigen(M)
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        assert np.allclose(eig.reconstruct(), M, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.sort(lam), eig.eigenvalues, rtol=1e-9, atol=1e-12)


def test_sym_eigen_basis_roundtrip():
    M, _, _ = rotated_spd(5, 8, 1e3)
    eig = sym_eigen(M)
    rng = np.random.default_rng(55)
    x = rng.standard_normal(8)
    assert np.allclose(eig.from_basis(eig.to_basis(x)), x, rtol=1e-13, atol=1e-13)


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_op_norm_matches_svd_on_random_rectangles():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(2, 15, size=2)
        M = rng.standard_normal((m, n))
        expected = np.linalg.svd(M, compute_uv=False)[0]
        assert op_norm(M) == pytest.approx(expected, rel=1e-8)


def test_op_norm_edge_cases():
    assert op_norm(np.zeros((4, 4))) == 0.0
    assert op_norm(np.eye(6)) == pytest.approx(1.0, rel=1e-12)
    M = np.random.default_rng(9).standard_normal((5, 5))
    assert op_norm(2.5 * M) == pytest.approx(2.5 * op_norm(M), rel=1e-9)


@pytest.mark.parametrize("entry", [
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: landweber_solve(A, f, delta),
    lambda A, f, delta: op_norm(A),
    lambda A, f, delta: build_preconditioner(A, 1.0),
    lambda A, f, delta: phi(A, f, 1.0),
], ids=["choose_a", "vr_newton", "landweber_solve", "op_norm", "build_preconditioner", "phi"])
def test_overflowing_gram_is_named(entry):
    """A, f and delta scaled by 1e200: A^T A overflows, and every entry point says so."""
    inst = heat_instance(20, 0.01, 0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="Gram matrix overflows float64; scale A, f_delta and delta"):
            entry(1e200 * inst.A, 1e200 * inst.b_noisy, 1e200 * inst.delta)


@pytest.mark.parametrize("entry", [
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: solve_dsm(A, f, delta, build_preconditioner(A, 1.0)),
    lambda A, f, delta: landweber_solve(A, f, delta),
], ids=["choose_a", "vr_newton", "solve_dsm", "landweber_solve"])
def test_overflowing_data_norm_is_named(entry):
    """f and delta scaled by 1e160 with A as is: A^T A is finite but ||f|| overflows,
    and every entry point that takes data says so instead of running on inf."""
    inst = heat_instance(20, 0.01, 0)
    with pytest.raises(ValueError, match="data norm overflows float64; scale f_delta and delta"):
        entry(inst.A, 1e160 * inst.b_noisy, 1e160 * inst.delta)


def test_cond_estimate_diagonal_and_identity():
    assert cond_estimate(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    M = np.diag([1.0, 1e-6])
    assert cond_estimate(M) == pytest.approx(1e6, rel=1e-6)


def test_cond_estimate_singular_is_infinite():
    assert cond_estimate(np.diag([1.0, 0.0])) == np.inf


def test_cond_estimate_requires_square():
    with pytest.raises(ValueError, match="square"):
        cond_estimate(np.ones((2, 3)))
