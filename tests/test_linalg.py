"""Tests for the dense kernels: coercion, the choice of operator,
factorization, eigen, norms."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import dsmsolve
from dsmsolve import (
    DenseOperator,
    as_operator,
    build_preconditioner,
    choose_a,
    cond_estimate,
    dsm_step,
    gram,
    landweber_solve,
    op_norm,
    phi,
    solve_dsm,
    spd_factor,
    sym_eigen,
    vr_newton,
    vr_solve,
)
from dsmsolve.linalg import ToeplitzOperator, as_matrix, as_vector
from dsmsolve.problems import heat_instance, heat_matrix


def at_heat_sizes(entries, ids):
    """(entry, n) parameters: each entry on heat n = 20 under its own id, and
    on n = 600, where the triangular Toeplitz A is applied by FFT and
    A^T A is not formed for ||A|| or the damped factor."""
    return [pytest.param(entry, n, id=name if n == 20 else f"{name}-n600")
            for n in (20, 600) for entry, name in zip(entries, ids)]


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
    assert as_vector([1.0, 2.0], 2, name="data").shape == (2,)
    with pytest.raises(ValueError, match="^dimension mismatch: data has length 2, expected 3$"):
        as_vector([1.0, 2.0], 3, name="data")


@pytest.mark.parametrize("lower", (True, False))
def test_as_operator_picks_the_toeplitz_operator_exactly_for_triangular_toeplitz(lower):
    """A lower- or upper-triangular Toeplitz A of order 512 gets a
    ToeplitzOperator holding its first column (lower) or row, in C order, F
    order and as a transposed view; the same matrices at order 511, n = 1, a
    copy with one entry moved by one ulp, a rectangular and a random matrix
    get a DenseOperator, and an operator is returned as is."""

    def layouts(n):
        c = np.random.default_rng(0).standard_normal(n)
        L = scipy.linalg.toeplitz(c, np.zeros(n))
        base = L if lower else np.ascontiguousarray(L.T)
        return c, (base, np.asfortranarray(base), np.ascontiguousarray(base.T).T)

    c, structured = layouts(512)
    for M in structured:
        op = as_operator(M)
        assert type(op) is ToeplitzOperator
        assert op.lower == lower and np.array_equal(op.c, c) and op.A is M
        assert as_operator(op) is op
    base = structured[0]
    nudged = base.copy()
    nudged[5, 5] = np.nextafter(nudged[5, 5], np.inf)
    rectangular = np.vstack((base, base[:1]))
    random = np.random.default_rng(1).standard_normal((512, 512))
    for M in (*layouts(511)[1], base[:1, :1], nudged, rectangular, random, [[2.0]]):
        op = as_operator(M)
        assert type(op) is DenseOperator
        assert as_operator(op) is op


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
    # Doubly strided views: here numpy's products M^T M and M M^T come back a
    # few ulp from symmetric; gram mirrors one triangle, so they are exact.
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
    assert np.allclose(factor.lower @ factor.lower.T, M, rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.solve(np.ones(8))
    with pytest.raises(ValueError, match="dimension mismatch"):
        factor.solve(np.ones((8, 2)))


def test_spd_solve_matrix_matches_column_solves():
    M, _, _ = rotated_spd(3, 12, 1e6)
    rng = np.random.default_rng(33)
    B = M @ rng.standard_normal((12, 4))
    factor = spd_factor(M)
    X = factor.solve(B)
    for k in range(4):
        assert np.allclose(X[:, k], factor.solve(B[:, k]), rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_spd_solves_equal_lower_factor_reference_bit_for_bit(n):
    """Solves reproduce lower-factor cho_solve with two refinements, each
    residual from one symmetric product (dsymv, dsymm for a block) on M."""
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n + 2, n))
    M = B.T @ B + 1e-3 * np.eye(n)
    M = 0.5 * (M + M.T)
    factor = spd_factor(M)

    def product(x):
        if x.ndim == 1:
            return scipy.linalg.blas.dsymv(1.0, M, x, lower=1)
        return scipy.linalg.blas.dsymm(1.0, M, x, lower=1)

    def reference(b):
        x = scipy.linalg.cho_solve((factor.lower, True), b, check_finite=False)
        for _ in range(2):
            x = x + scipy.linalg.cho_solve((factor.lower, True), b - product(x), check_finite=False)
        return x

    b = rng.standard_normal(n)
    assert np.array_equal(factor.solve(b), reference(b))
    block = rng.standard_normal((n, 5))
    assert np.array_equal(factor.solve(block), reference(block))


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


def test_norm_past_the_power_iteration_cap_is_the_largest_singular_value():
    """A triangular Toeplitz A that does not smooth (n = 800, first column
    N(0, 1) e^{-i/40}, s_2 / s_1 = 0.999895) keeps the power iteration's
    Rayleigh quotient moving for thousands of steps, and 10,000 of them
    stopped 1.3e-6 relative low. Its change shrinks 295-fold over steps
    100-200 but 1.4-fold over steps 200-300, so both operators stop at the
    third checkpoint, after 300 products with A^T A, and return s_1 from
    LAPACK."""
    n = 800
    c = np.random.default_rng(0).standard_normal(n) * np.exp(-np.arange(n) / 40)
    A = scipy.linalg.toeplitz(c, np.zeros(n))
    expected = np.linalg.norm(A, 2)
    for op in (as_operator(A), DenseOperator(A)):
        products = []

        def counting(shift, real=op._gram_product):
            product = real(shift)

            def counted(x):
                products.append(shift)
                return product(x)

            return counted

        op._gram_product = counting
        assert abs(op.norm - expected) <= 1e-14 * expected
        assert len(products) <= 300


@pytest.mark.parametrize("entry, n", at_heat_sizes([
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: landweber_solve(A, f, delta),
    lambda A, f, delta: op_norm(A),
    lambda A, f, delta: build_preconditioner(A, 1.0),
    lambda A, f, delta: phi(A, f, 1.0),
], ["choose_a", "vr_newton", "landweber_solve", "op_norm", "build_preconditioner", "phi"]))
def test_overflowing_gram_is_named(entry, n, formed_grams):
    """A, f and delta scaled by 1e200: A^T A overflows, and every entry point
    says so; at n = 600 without forming a Gram matrix."""
    inst = heat_instance(n, 0.01, 0)
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="Gram matrix overflows float64; scale A, f_delta and delta"):
            entry(1e200 * inst.A, 1e200 * inst.b_noisy, 1e200 * inst.delta)
    assert n < 600 or formed_grams == []


@pytest.mark.parametrize("entry, n", at_heat_sizes([
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: solve_dsm(A, f, delta, build_preconditioner(A, 1.0)),
    lambda A, f, delta: landweber_solve(A, f, delta),
    lambda A, f, delta: phi(A, f, 1.0),
    lambda A, f, delta: vr_solve(A, f, 1.0),
    lambda A, f, delta: dsm_step(build_preconditioner(A, 1.0), 1.0, np.zeros(A.shape[1]), f),
], ["choose_a", "vr_newton", "solve_dsm", "landweber_solve", "phi", "vr_solve", "dsm_step"]))
def test_overflowing_data_norm_is_named(entry, n, formed_grams):
    """f and delta scaled by 1e160 with A as is: A^T A is finite but ||f|| overflows,
    and every entry point that takes data says so instead of running on inf;
    at n = 600 without forming a Gram matrix."""
    inst = heat_instance(n, 0.01, 0)
    with pytest.raises(ValueError, match="data norm overflows float64; scale f_delta and delta"):
        entry(inst.A, 1e160 * inst.b_noisy, 1e160 * inst.delta)
    assert n < 600 or formed_grams == []


@pytest.mark.parametrize("entry, n", at_heat_sizes([
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: landweber_solve(A, f, delta),
    lambda A, f, delta: op_norm(A),
    lambda A, f, delta: build_preconditioner(A, 1e-300),
    lambda A, f, delta: phi(A, f, 1e-300),
], ["choose_a", "vr_newton", "landweber_solve", "op_norm", "build_preconditioner", "phi"]))
def test_underflowing_gram_is_named(entry, n, formed_grams):
    """A, f and delta scaled by 1e-200: A^T A and ||f|| underflow to zero, and
    every entry point says so instead of answering for a zero operator or zero
    data (u = 0, ||A|| = 0, entries of P near 1e99); at n = 600 without
    forming a Gram matrix."""
    inst = heat_instance(n, 0.01, 0)
    with pytest.raises(ValueError, match="Gram matrix underflows float64; scale A, f_delta and delta up"):
        entry(1e-200 * inst.A, 1e-200 * inst.b_noisy, 1e-200 * inst.delta)
    assert n < 600 or formed_grams == []


@pytest.mark.parametrize("entry, n", at_heat_sizes([
    lambda A, f, delta: choose_a(A, f, delta),
    lambda A, f, delta: vr_newton(A, f, delta),
    lambda A, f, delta: solve_dsm(A, f, delta, build_preconditioner(A, 1.0)),
    lambda A, f, delta: landweber_solve(A, f, delta),
    lambda A, f, delta: phi(A, f, 1.0),
    lambda A, f, delta: vr_solve(A, f, 1.0),
    lambda A, f, delta: dsm_step(build_preconditioner(A, 1.0), 1.0, np.zeros(A.shape[1]), f),
], ["choose_a", "vr_newton", "solve_dsm", "landweber_solve", "phi", "vr_solve", "dsm_step"]))
def test_underflowing_data_norm_is_named(entry, n, formed_grams):
    """f and delta scaled by 1e-200 with A as is: ||f|| underflows to zero
    although f does not, and every entry point that takes data says so; at
    n = 600 without forming a Gram matrix."""
    inst = heat_instance(n, 0.01, 0)
    with pytest.raises(ValueError, match="data norm underflows float64; scale f_delta and delta up"):
        entry(inst.A, 1e-200 * inst.b_noisy, 1e-200 * inst.delta)
    assert n < 600 or formed_grams == []


def test_zero_operator_and_zero_data_keep_their_messages():
    inst = heat_instance(20, 0.01, 0)
    zero_A = np.zeros_like(inst.A)
    assert op_norm(zero_A) == 0.0
    with pytest.raises(ValueError, match="operator norm is zero"):
        choose_a(zero_A, inst.b_noisy, inst.delta)
    with pytest.raises(ValueError, match="data vector is zero"):
        choose_a(inst.A, np.zeros(20), inst.delta)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_operators_give_empty_or_zero_results(shape):
    """BLAS rejects empty operands, so these never reach it."""
    m, n = shape
    Z = np.zeros(shape)
    assert np.array_equal(gram(Z), np.zeros((n, n)))
    assert np.array_equal(gram(Z, right=True), np.zeros((m, m)))
    op = DenseOperator(Z)
    assert op.norm == 0.0
    assert np.array_equal(op.damped_solve(1.0, np.ones(n)), np.ones(n))
    assert op.damped_solve(1.0, np.ones((n, 2))).shape == (n, 2)


def test_cond_estimate_diagonal_and_identity():
    assert cond_estimate(np.eye(5)) == pytest.approx(1.0, rel=1e-10)
    M = np.diag([1.0, 1e-6])
    assert cond_estimate(M) == pytest.approx(1e6, rel=1e-6)


def test_cond_estimate_is_finite_past_the_gram_route():
    """s_1 / s_n from the singular values stays finite where the eigenvalues
    of the Gram matrix underflow, and is np.linalg.cond's value."""
    M = heat_matrix(50)
    value = cond_estimate(M)
    assert np.isfinite(value)
    assert abs(value - np.linalg.cond(M)) <= 1e-12 * np.linalg.cond(M)


def test_cond_estimate_singular_is_infinite():
    assert cond_estimate(np.diag([1.0, 0.0])) == np.inf


def test_cond_estimate_requires_square():
    with pytest.raises(ValueError, match="square"):
        cond_estimate(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonempty"):
        cond_estimate(np.zeros((0, 0)))


# Every public route the package takes, dense (n = 50) and by FFT (n = 600).
_ROUTES = """
import sys
import numpy as np
from dsmsolve import (SolveConfig, as_operator, build_preconditioner, choose_a, cond_estimate,
                      find_t_delta, heat_instance, heat_matrix, landweber_solve, propagate,
                      solve_dsm, spectral_q, spectral_t, vr_newton)
for n in (50, 600):
    inst = heat_instance(n, 0.01, 1)
    op, f, delta = as_operator(inst.A), inst.b_noisy, inst.delta
    precond = build_preconditioner(op, choose_a(op, f, delta).chosen_a)
    solve_dsm(op, f, delta, precond)
    vr_newton(op, f, delta)
    landweber_solve(op, f, delta, SolveConfig(h=1.0 / op.norm**2))
    if n == 50:
        T, Q = spectral_t(precond), spectral_q(precond)
        propagate(T, np.zeros(n), precond.apply_p(f), find_t_delta(Q, -f, 1.01, delta))
cond_estimate(heat_matrix(50))
print(sorted(name for name in sys.modules if name.startswith("scipy.fft")))
"""


def test_the_package_never_imports_scipy_fft():
    """A fresh interpreter that runs the damping search, the damped,
    Newton and Landweber solves at n = 50 and 600, the flow and
    cond_estimate has not loaded scipy.fft, which would add about 4.7 MB to
    the process: the FFT products use numpy.fft."""
    src = str(Path(dsmsolve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    completed = subprocess.run([sys.executable, "-c", _ROUTES], env=env, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
