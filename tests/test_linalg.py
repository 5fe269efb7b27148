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
    SolveConfig,
    as_operator,
    build_preconditioner,
    choose_a,
    cond_estimate,
    dsm_step,
    landweber_solve,
    op_norm,
    phi,
    solve_dsm,
    sym_eigen,
    vr_newton,
    vr_solve,
)
from dsmsolve.linalg import SpdFactorization, ToeplitzOperator, _cholesky, _gram_lower, as_matrix, as_vector
from dsmsolve.problems import heat_instance, heat_matrix


def at_heat_sizes(entries, ids):
    """(entry, n) parameters: each entry on heat n = 20 under its own id, and
    on n = 600, where the triangular Toeplitz A is applied by FFT and
    A A^T is not formed for ||A|| or the damped factor."""
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_nonfinite_entries_of_a_near_toeplitz_matrix_are_named(value):
    """heat n = 600 with one non-finite entry in the first column (inside,
    and at the last row, which keeps the structure and puts it in c), in
    the upper triangle, or along the whole diagonal (which keeps the
    structure for +-inf): as_operator raises as for any matrix, whether it
    checks c or the whole of A."""
    n = 600
    A = heat_matrix(n)
    where = {
        "first column": [(3, 0)],
        "last row of the first column": [(n - 1, 0)],
        "upper triangle": [(2, 7)],
        "upper corner": [(0, n - 1)],
        "diagonal": [(i, i) for i in range(n)],
    }
    for name, entries in where.items():
        M = A.copy()
        M[tuple(np.transpose(entries))] = value
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_operator(M)
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            as_operator(np.ascontiguousarray(M.T))


def test_gram_left_and_right():
    """The operator's Gram triangle is the lower triangle of M M^T, m x m, for
    a tall M, and of M^T M, n x n, as the Gram triangle of M^T."""
    rng = np.random.default_rng(1)
    M = rng.standard_normal((5, 3))
    assert np.allclose(DenseOperator(M).gram_right, np.tril(M @ M.T), rtol=1e-15, atol=1e-15)
    assert np.allclose(DenseOperator(M.T).gram_right, np.tril(M.T @ M), rtol=1e-15, atol=1e-15)
    assert DenseOperator(M).gram_right.shape == (5, 5)
    assert DenseOperator(M.T).gram_right.shape == (3, 3)


def test_gram_is_exactly_symmetric():
    """The Gram matrix is held as one triangle, its strict upper triangle
    zero, so mirrored it is exactly symmetric. Doubly strided views, on which
    numpy's M M^T comes back a few ulp from symmetric, are copied once into
    Fortran order and give the triangle of that copy, bit for bit."""
    rng = np.random.default_rng(10)
    wide = rng.standard_normal((400, 900))[::2, ::3]
    tall = rng.standard_normal((600, 600))[::2, ::3]
    for M in (wide.T, tall):
        G = _gram_lower(M)
        assert G.shape == (300, 300)
        assert not np.triu(G, 1).any()
        assert np.array_equal(G, _gram_lower(np.asfortranarray(M)))
        mirrored = G + np.tril(G, -1).T
        assert np.array_equal(mirrored, mirrored.T)


def test_spd_factor_rejects_bad_matrices():
    """A triangle that is not positive definite once shifted is named."""
    with pytest.raises(ValueError, match="^matrix is not positive definite$"):
        _cholesky(np.asfortranarray([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="^matrix is not positive definite$"):
        _cholesky(np.zeros((3, 3), order="F"))
    with pytest.raises(ValueError, match="^matrix is not positive definite$"):
        _cholesky(np.eye(2, order="F"), np.nan)


def test_spd_solve_consistent_systems_across_conditioning():
    """Systems with a known solution stay accurate up to cond = 1e12."""
    for seed, cond in enumerate([1e2, 1e6, 1e10, 1e12]):
        M, _, _ = rotated_spd(seed, 24, cond)
        rng = np.random.default_rng(100 + seed)
        x_true = rng.standard_normal(24)
        b = M @ x_true
        factor = _cholesky(np.asfortranarray(M))
        x = factor.solve(b)
        residual = np.linalg.norm(M @ x - b) / np.linalg.norm(b)
        assert residual <= 1e-8, f"cond={cond:.0e}: relative residual {residual:.3e}"


def test_spd_factor_roundtrip_and_dimension_guard():
    """L L^T gives back M; a damped solve checks its right-hand side's
    length, on either operator, before it solves."""
    M, _, _ = rotated_spd(7, 9, 1e4)
    factor = _cholesky(np.asfortranarray(M))
    assert factor.lower.shape == (9, 9)
    assert np.allclose(factor.lower @ factor.lower.T, M, rtol=1e-12, atol=1e-14)
    for op in (DenseOperator(np.random.default_rng(7).standard_normal((9, 4))), as_operator(heat_matrix(600))):
        m = op.shape[0]
        with pytest.raises(ValueError, match=f"^dimension mismatch: right-hand side has length {m - 1}, expected {m}$"):
            op.damped_solve(1e-3, np.ones(m - 1))


@pytest.mark.parametrize("toeplitz", (False, True), ids=("dense", "toeplitz"))
def test_damped_solve_takes_one_vector_only(toeplitz):
    """The right-hand side has one shape, a vector: a block B (m x 3) is
    refused with an error that names its dimension, before any solve, on
    both operators; the FFT products of a ToeplitzOperator refuse a block
    the same way."""
    op = as_operator(heat_matrix(600)) if toeplitz else DenseOperator(heat_matrix(20))
    assert isinstance(op, ToeplitzOperator) == toeplitz
    B = np.ones((op.shape[0], 3))
    with pytest.raises(ValueError, match="^expected a 1-d array, got ndim=2$"):
        op.damped_solve(1e-3, B)
    if toeplitz:
        for product in (op.matvec, op.rmatvec):
            with pytest.raises(ValueError, match="^expected a 1-d array, got ndim=2$"):
                product(B)


@pytest.mark.parametrize("n", [1, 7, 64])
def test_spd_solves_equal_lower_factor_reference_bit_for_bit(n):
    """Solves reproduce the lower-factor kernel written out: a raw solve is
    dtrsv with L, then with L^T; one correction, then a second only when the
    residual, from one symmetric product (dsymv) on M, exceeds
    4 eps (mu ||x|| + ||b||), with mu the largest row sum plus the largest
    column sum of M's lower triangle. The factor's own product leaves every
    residual at roundoff after one correction; a product off by 1e-6 ||M||
    on the diagonal does not, so both branches are taken. Each solve stays
    within a few cond(M) eps of the former kernel, cho_solve with two
    corrections."""
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n + 2, n))
    M = B.T @ B + 1e-3 * np.eye(n)
    M = 0.5 * (M + M.T)
    factor = _cholesky(np.asfortranarray(M))
    L = factor.lower
    eps = np.finfo(float).eps
    lower = np.abs(np.tril(M))
    mu = lower.sum(axis=1).max() + lower.sum(axis=0).max()
    assert factor.bound == pytest.approx(mu, rel=1e-14)
    shifted = M + 1e-6 * np.linalg.norm(M, 2) * np.eye(n)
    off = SpdFactorization(lower=L, product=lambda x: shifted @ x, bound=factor.bound)

    def product(x):
        return scipy.linalg.blas.dsymv(1.0, M, x, lower=1)

    def raw(b):
        return scipy.linalg.blas.dtrsv(L, scipy.linalg.blas.dtrsv(L, b, lower=1), lower=1, trans=1)

    def reference(b, product):
        x = raw(b)
        x = x + raw(b - product(x))
        r = b - product(x)
        norm = np.linalg.norm
        if norm(r) <= 4.0 * eps * (factor.bound * norm(x) + norm(b)):
            return x, 2
        return x + raw(r), 3

    def former(b):
        x = scipy.linalg.cho_solve((L, True), b, check_finite=False)
        for _ in range(2):
            x = x + scipy.linalg.cho_solve((L, True), b - product(x), check_finite=False)
        return x

    bound = 4.0 * np.linalg.cond(M) * eps
    branches = {True: set(), False: set()}
    for b in (M @ rng.standard_normal(n), rng.standard_normal(n)):
        x, raw_solves = reference(b, product)
        branches[True].add(raw_solves)
        assert np.array_equal(factor.solve(b), x)
        assert np.linalg.norm(x - former(b)) <= bound * np.linalg.norm(former(b))
        x, raw_solves = reference(b, lambda v: shifted @ v)
        branches[False].add(raw_solves)
        assert np.array_equal(off.solve(b), x)
    assert branches == {True: {2}, False: {3}}


@pytest.fixture
def raw_solves(monkeypatch) -> list:
    """The raw solves each refined solve makes from here on, one count per
    refined solve, on either factorization class."""
    per_solve, total = [], [0]
    raw, refined = SpdFactorization._raw_solve, SpdFactorization.solve

    def counting_raw(self, b):
        total[0] += 1
        return raw(self, b)

    def counting_refined(self, b):
        before = total[0]
        x = refined(self, b)
        per_solve.append(total[0] - before)
        return x

    monkeypatch.setattr(SpdFactorization, "_raw_solve", counting_raw)
    monkeypatch.setattr(SpdFactorization, "solve", counting_refined)
    return per_solve


@pytest.mark.parametrize("n", [600, 2000])
@pytest.mark.parametrize("delta_rel", [0.05, 0.01, 0.001])
def test_refined_solves_on_heat_stop_after_one_correction(n, delta_rel, raw_solves):
    """The damping search, the damped iteration with either stopping rule
    and vr_newton on heat data at 5%, 1% and 0.1% noise: every refined
    solve makes exactly two raw solves, its residual at roundoff, against
    the factor's bound, after one correction."""
    inst = heat_instance(n, delta_rel, 0)
    op, f, delta = as_operator(inst.A), inst.b_noisy, inst.delta
    precond = build_preconditioner(op, choose_a(op, f, delta).chosen_a)
    solve_dsm(op, f, delta, precond)
    solve_dsm(op, f, delta, precond, SolveConfig(h=0.1, stopping="apriori"))
    vr_newton(op, f, delta)
    assert len(raw_solves) > 10
    assert set(raw_solves) == {2}


def test_refinement_against_a_noisy_product_stops_at_the_cap(raw_solves):
    """A product that disagrees with the factor at about 1e-10 relative
    keeps the residual far above roundoff: the solve makes three raw
    solves, the cap."""
    M, _, _ = rotated_spd(4, 30, 1e3)
    factor = _cholesky(np.asfortranarray(M))
    noise = np.random.default_rng(5)

    def noisy(x):
        y = M @ x
        return y + 1e-10 * np.linalg.norm(y) * noise.standard_normal(y.shape)

    off = SpdFactorization(lower=factor.lower, product=noisy, bound=factor.bound)
    off.solve(np.random.default_rng(6).standard_normal(30))
    assert raw_solves == [3]


def test_sym_eigen_reconstructs_and_sorts():
    for seed in range(8):
        M, _, lam = rotated_spd(seed, 10, 1e5)
        eig = sym_eigen(M)
        assert np.all(np.diff(eig.eigenvalues) >= 0)
        V = eig.eigenvectors
        assert np.allclose((V * eig.eigenvalues) @ V.T, M, rtol=1e-12, atol=1e-12)
        assert np.allclose(np.sort(lam), eig.eigenvalues, rtol=1e-9, atol=1e-12)


def test_sym_eigen_basis_roundtrip():
    M, _, _ = rotated_spd(5, 8, 1e3)
    eig = sym_eigen(M)
    rng = np.random.default_rng(55)
    x = rng.standard_normal(8)
    assert np.allclose(eig.from_basis(eig.to_basis(x)), x, rtol=1e-13, atol=1e-13)


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="square"):
        sym_eigen(np.ones((2, 3)))
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


def test_norm_whose_square_overflows_is_the_largest_singular_value():
    """A A^T in range, but a power step overflows: the identity with a first
    column of 1e154 has ||A|| = 2e154 and ||A||^2 = 4e308, and 1e100 I has
    ||A A^T v|| = 1e200, whose sum of squares overflows. ||A|| is then the
    largest singular value from LAPACK (the power iteration returned inf
    and 0.0), and every entry point scaled by ||A||^2 names its overflow."""
    A = np.eye(4)
    A[:, 0] = 1e154
    for M in (A, 1e100 * np.eye(4)):
        assert op_norm(M) == scipy.linalg.svdvals(M)[0]
    message = r"^\|\|A\|\|\^2 overflows float64; scale A, f_delta and delta down by a common factor$"
    for entry in (choose_a, vr_newton, landweber_solve):
        with pytest.raises(ValueError, match=message):
            entry(A, np.ones(4), 0.01)


def test_norm_past_the_power_iteration_cap_is_the_largest_singular_value():
    """A triangular Toeplitz A that does not smooth (n = 800, first column
    N(0, 1) e^{-i/40}, s_2 / s_1 = 0.999895) keeps the power iteration's
    Rayleigh quotient moving for thousands of steps, and 10,000 of them
    stopped 1.3e-6 relative low. Its change shrinks 295-fold over steps
    100-200 but 1.4-fold over steps 200-300, so both operators stop at the
    third checkpoint, after 300 products with A A^T, and return s_1 from
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
    """A, f and delta scaled by 1e200: A A^T overflows, and every entry point
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
    """f and delta scaled by 1e160 with A as is: A A^T is finite but ||f|| overflows,
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
    """A, f and delta scaled by 1e-200: A A^T and ||f|| underflow to zero, and
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
    assert np.array_equal(_gram_lower(Z), np.zeros((m, m)))
    assert np.array_equal(_gram_lower(Z.T), np.zeros((n, n)))
    op = DenseOperator(Z)
    assert op.norm == 0.0
    assert np.array_equal(op.damped_solve(1.0, np.ones(m)), np.ones(m))


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
