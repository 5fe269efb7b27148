"""Property tests over tall, wide and rank-deficient systems: exact invariance
under power-of-two scaling, monotone residuals, first-crossing stops, the
flow's spectra against the assembled T and Q, the Gram triangle that every
factorization reads, and the Gram range errors, Schur factor, FFT products
and Golub-Kahan misfit spectrum of a triangular Toeplitz A."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dsmsolve import (
    DenseOperator,
    SolveConfig,
    as_operator,
    build_preconditioner,
    choose_a,
    dsm_step,
    landweber_solve,
    op_norm,
    phi,
    residuals_nonincreasing,
    solve_dsm,
    spectral_q,
    spectral_t,
    vr_newton,
    vr_solve,
)
from dsmsolve import linalg, params, solvers
from dsmsolve.linalg import ToeplitzOperator, _cholesky, _triangular_toeplitz
from dsmsolve.problems import heat_instance, heat_matrix, volterra_instance

SHAPES = st.sampled_from(("tall", "wide", "rank_deficient"))
SEEDS = st.integers(0, 2**32 - 1)


def noisy_system(shape, seed):
    """(A, f_delta, delta) with 1% noise; rank_deficient is an 8x8 of rank 3,
    lower_toeplitz and upper_toeplitz the 8x8 L and L^T of
    triangular_toeplitz at decay 0.2."""
    rng = np.random.default_rng(seed)
    m, n = {"tall": (9, 5), "wide": (5, 9)}.get(shape, (8, 8))
    if shape.endswith("toeplitz"):
        A, _ = triangular_toeplitz(shape == "lower_toeplitz", n, seed, 0.2)
    elif shape == "rank_deficient":
        A = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    else:
        A = rng.standard_normal((m, n))
    clean = A @ rng.standard_normal(n)
    noise = rng.standard_normal(m)
    noise *= 0.01 * np.linalg.norm(clean) / np.linalg.norm(noise)
    return A, clean + noise, float(np.linalg.norm(noise))


@given(shape=SHAPES, seed=SEEDS, k=st.integers(-40, 60))
def test_power_of_two_scaling_is_exact(shape, seed, k):
    """(cA, c f_delta, c delta) with c = 2^k gives a -> c^2 a, the same iterates
    and misfits times c, bit for bit.

    Multiplying by a power of two only shifts exponents, so it commutes
    exactly with every rounded product, sum, quotient and square root, as
    long as nothing overflows or underflows: the Gram matrices scale by c^2,
    their Cholesky factors by c, ||A|| and every misfit by c, while every
    ratio the searches and stopping rules compare is unchanged.
    """
    A, f, delta = noisy_system(shape, seed)
    c = 2.0**k
    cA, cf, c_delta = np.ldexp(A, k), np.ldexp(f, k), delta * c

    assert op_norm(cA) == c * op_norm(A)

    trace, scaled_trace = choose_a(A, f, delta), choose_a(cA, cf, c_delta)
    assert scaled_trace.chosen_a == c * c * trace.chosen_a
    assert [(s.ratio, s.action) for s in scaled_trace.steps] == [(s.ratio, s.action) for s in trace.steps]

    a = trace.chosen_a
    run = solve_dsm(A, f, delta, build_preconditioner(A, a))
    scaled = solve_dsm(cA, cf, c_delta, build_preconditioner(cA, c * c * a))
    assert np.array_equal(scaled.solution, run.solution)
    assert scaled.iterations == run.iterations
    assert scaled.residual_history == [c * r for r in run.residual_history]

    a_n, u_n, iterations = vr_newton(A, f, delta)
    scaled_a_n, scaled_u_n, scaled_iterations = vr_newton(cA, cf, c_delta)
    assert scaled_a_n == c * c * a_n
    assert np.array_equal(scaled_u_n, u_n)
    assert scaled_iterations == iterations


@pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient"])
def test_newton_finds_the_root_below_a_low_misfit_floor(shape):
    """f_delta = A x + noise puts the misfit floor ||(I - U U^T) f_delta|| at or
    below delta, so phi(a) = C delta has a root, and vr_newton meets the public
    phi there to its documented 1e-8 * C delta. The floor must be read from
    A A^T's spectrum: a Cholesky of A A^T + a I with a near roundoff of A A^T
    overstates it (tall seed 5: 0.0633 against 0.0423, above C delta = 0.0609)."""
    for seed in range(100):
        A, f, delta = noisy_system(shape, seed)
        a, _, _ = vr_newton(A, f, delta)
        target = 1.01 * delta
        assert abs(phi(A, f, a) - target) <= 1e-8 * target, seed


@given(shape=st.sampled_from(("tall", "wide", "rank_deficient", "lower_toeplitz", "upper_toeplitz")),
       seed=SEEDS, log_a=st.floats(-3.0, 1.0), fraction=st.floats(0.05, 0.99))
def test_residuals_fall_and_the_stop_is_the_first_crossing(shape, seed, log_a, fraction):
    """For h ||T|| < 2 (damped) and h ||A||^2 < 2 (plain) every residual history
    is nonincreasing, and a discrepancy stop lands on the first n with
    ||A u_n - f_delta|| <= C delta. The plain run's history comes from its
    residual recurrence, so ||A u - f_delta|| of the returned u, taken
    directly, must also agree with its last entry within 1e-12 ||f_delta||.
    The Toeplitz shapes run as ToeplitzOperators, on FFT products."""
    A, f, delta = noisy_system(shape, seed)
    op = toeplitz_operator(A) if shape.endswith("toeplitz") else as_operator(A)
    s2 = op.norm**2
    precond = build_preconditioner(op, s2 * 10.0**log_a)
    damped = solve_dsm(op, f, delta, precond, SolveConfig(h=2.0 * fraction / precond.t_norm, max_iter=300))
    landweber = landweber_solve(op, f, delta, SolveConfig(h=2.0 * fraction / s2, max_iter=300))
    threshold = 1.01 * delta
    for result in (damped, landweber):
        history = result.residual_history
        assert residuals_nonincreasing(history)
        above = [r > threshold for r in history]
        if result.stop_reason == "discrepancy_met":
            assert above.index(False) == result.iterations == len(history) - 1
        else:
            assert result.stop_reason == "max_iter" and all(above)
    direct = float(np.linalg.norm(A @ landweber.solution - f))
    assert abs(direct - landweber.residual_history[-1]) <= 1e-12 * np.linalg.norm(f)


def spread_operator(shape, seed, scale, decades):
    """A with singular values scale * 10^(0 .. -decades), evenly spaced in log;
    rank_deficient is an 8x8 of rank 3."""
    rng = np.random.default_rng(seed)
    m, n = {"tall": (9, 5), "wide": (5, 9), "rank_deficient": (8, 8)}[shape]
    k = 3 if shape == "rank_deficient" else min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, k)))
    V, _ = np.linalg.qr(rng.standard_normal((n, k)))
    return (U * (scale * np.logspace(0.0, -decades, k))) @ V.T


@given(shape=SHAPES, seed=SEEDS, scale=st.sampled_from((1e-3, 1.0, 1e3)),
       decades=st.floats(0.0, 8.0), log_a=st.floats(-6.0, 1.0))
def test_spectra_match_the_assembled_operators(shape, seed, scale, decades, log_a):
    """spectral_t/spectral_q, from one SVD, reconstruct the Cholesky-assembled
    T and Q; their eigenvalues are ascending in [0, 1) and their eigenvectors
    orthonormal.

    The assembled matrices carry a forward error of order
    eps * cond(A A^T + a I) = eps (||A||^2 + a) / a, so that sets the
    tolerance, relative to ||T|| and ||Q||: 1e-13 (about 450 eps) times the
    condition number, where 900 probes of these operators reached 40 eps.
    """
    A = spread_operator(shape, seed, scale, decades)
    s2 = op_norm(A) ** 2
    precond = build_preconditioner(A, s2 * 10.0**log_a)
    tol = 1e-13 * (s2 + precond.a) / precond.a
    for eigen, assembled in ((spectral_t(precond), precond.assemble_t()),
                             (spectral_q(precond), precond.assemble_q())):
        lam, vectors = eigen.eigenvalues, eigen.eigenvectors
        assert lam.shape == (assembled.shape[0],)
        assert np.all(np.diff(lam) >= 0.0)
        assert lam[0] >= 0.0 and lam[-1] < 1.0
        assert np.linalg.norm(vectors.T @ vectors - np.eye(lam.shape[0]), 2) <= 1e-13
        error = np.linalg.norm((vectors * lam) @ vectors.T - assembled, 2)
        assert error <= tol * np.linalg.norm(assembled, 2)


GRAM_DIMENSIONS = {"tall": (9, 5), "wide": (5, 9), "rank_3": (8, 8),
                   "1x1": (1, 1), "1xn": (1, 7), "mx1": (7, 1)}


@given(shape=st.sampled_from(tuple(GRAM_DIMENSIONS)), seed=SEEDS,
       log_scale=st.floats(-3.0, 3.0), log_a=st.floats(-8.0, 0.0))
def test_gram_triangle_is_read_lower_only(shape, seed, log_scale, log_a):
    """The operator keeps the lower triangle of its one Gram matrix, A A^T,
    and reads nothing else: gram_right is the lower triangle of numpy's
    M M^T bit for bit on C-ordered, F-ordered and transposed M, and on a
    lower- or upper-triangular Toeplitz M with leading zeros in its first
    column, as heat_matrix has at large n, whose ToeplitzOperator keeps the
    same triangle; factoring A A^T + a I leaves it as it was; NaN in its
    upper triangle changes no bit of ||A||, the factor, its solves or the
    misfit spectrum; and the solves agree with those of the Cholesky factor
    of the assembled A A^T + a I.

    Refinement in working precision bounds each solve's backward error, not
    its forward error, which grows with cond(A A^T + a I) up to 1e8 here;
    so the two solves are compared through that matrix, to 1e-12 of
    ||A A^T + a I|| ||x||, where 1,800 probes reached 3e-16.
    """
    rng = np.random.default_rng(seed)
    m, n = GRAM_DIMENSIONS[shape]
    if shape == "rank_3":
        A = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    else:
        A = rng.standard_normal((m, n))
    A *= 10.0**log_scale

    L = scipy.linalg.toeplitz(np.concatenate(([0.0, 0.0], A.ravel())), np.zeros(A.size + 2))
    toeplitz = (L, np.ascontiguousarray(L.T))
    for M in (A, np.asfortranarray(A), A.T, np.asfortranarray(A).T, *toeplitz):
        assert np.array_equal(DenseOperator(M).gram_right, np.tril(M @ M.T))
    for M in toeplitz:
        assert np.array_equal(toeplitz_operator(M).gram_right, np.tril(M @ M.T))

    op = DenseOperator(A)
    a = 10.0**log_a * op.norm**2
    b = rng.standard_normal(m)
    triangle = op.gram_right.copy()
    x = op.damped_solve(a, b)
    assert np.array_equal(op.gram_right, triangle)

    poisoned = DenseOperator(A)
    G = poisoned.gram_right
    G[np.triu_indices_from(G, 1)] = np.nan
    assert poisoned.norm == op.norm
    assert np.array_equal(poisoned.damped_solve(a, b), x)
    assert np.array_equal(poisoned._factor_shifted(a).lower, op._factor_shifted(a).lower)
    for poisoned_part, part in zip(linalg._eigen_coefficients(poisoned.gram_right, b),
                                   linalg._eigen_coefficients(op.gram_right, b)):
        assert np.array_equal(poisoned_part, part)

    shifted = A @ A.T + a * np.eye(m)
    y = _cholesky(np.asfortranarray(shifted)).solve(b)
    assert np.linalg.norm(shifted @ (x - y)) <= 1e-12 * np.linalg.norm(shifted, 2) * np.linalg.norm(y)


def test_structured_gram_names_overflow_and_underflow():
    A = heat_matrix(50)
    for k, message in ((600, "overflows"), (-600, "underflows")):
        for M in (np.ldexp(A, k), np.ldexp(A, k).T):
            with pytest.raises(ValueError, match=f"^Gram matrix {message} float64; scale A, f_delta and delta"):
                DenseOperator(M).gram_right


def toeplitz_operator(A):
    """A ToeplitzOperator on the triangular Toeplitz A at any order, with FFT
    products, as as_operator builds one from order 512."""
    return ToeplitzOperator(A, *_triangular_toeplitz(A))


def triangular_toeplitz(lower, n, seed, decay, leading_zeros=0):
    """(A, floor): A is the lower-triangular Toeplitz L, or L^T, whose first
    column c is Gaussian damped by exp(-decay j) after leading_zeros zeros,
    and floor = eps (sum |c_i|)^2, the operator's bound for the Schur route."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n) * np.exp(-decay * np.arange(n))
    c[: min(leading_zeros, n - 2)] = 0.0
    L = scipy.linalg.toeplitz(c, np.zeros(n))
    l1 = float(np.sum(np.abs(c)))
    return (L if lower else np.ascontiguousarray(L.T)), np.finfo(float).eps * l1 * l1


DECAYS = st.sampled_from((0.0, 0.02, 0.2, 1.0))


@given(lower=st.booleans(), n=st.integers(2, 150), seed=SEEDS, decay=DECAYS,
       leading_zeros=st.integers(0, 2), log_gap=st.floats(1e-3, 17.0))
def test_schur_factor_of_a_triangular_toeplitz_operator(lower, n, seed, decay, leading_zeros, log_gap):
    """Above the floor eps (sum |c_i|)^2, a triangular Toeplitz A's A A^T + a I
    is factored by the Schur algorithm, with no LAPACK Cholesky: R R^T, reversed
    for an upper A, is within 2 n eps ||M|| of M = A A^T + a I in the 2-norm
    (600 probes reached 0.79 n eps), and its solves meet those of M's LAPACK
    Cholesky factor to 1e-12 ||M|| ||y|| through M, as in test_gram_triangle_is_read_lower_only
    (600 probes reached 4.5e-16), even where cond(M) nears 1 / eps."""
    A, floor = triangular_toeplitz(lower, n, seed, decay, leading_zeros)
    a = floor * 10.0**log_gap
    op = toeplitz_operator(A)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    with mock.patch.object(scipy.linalg, "cholesky", wraps=scipy.linalg.cholesky) as cholesky:
        R = op._factor_shifted(a).lower
        x = op.damped_solve(a, b)
    assert cholesky.call_count == 0

    shifted = A @ A.T + a * np.eye(n)
    product = R @ R.T
    if not lower:
        product = product[::-1, ::-1]
    norm = np.linalg.norm(shifted, 2)
    assert np.linalg.norm(product - shifted, 2) <= 2 * n * np.finfo(float).eps * norm
    y = _cholesky(np.asfortranarray(shifted)).solve(b)
    assert np.linalg.norm(shifted @ (x - y)) <= 1e-12 * norm * np.linalg.norm(y)


@given(lower=st.booleans(), n=st.integers(2, 80), seed=SEEDS, decay=DECAYS,
       k=st.integers(-40, 40), log_gap=st.floats(1e-3, 17.0))
def test_schur_factor_keeps_its_bits_under_power_of_two_scaling(lower, n, seed, decay, k, log_gap):
    """(2^k A, 4^k a) takes the Schur route whenever (A, a) does, since the
    floor scales by 4^k exactly, and gives the factor times 2^k and the solves
    times 4^-k, bit for bit."""
    A, floor = triangular_toeplitz(lower, n, seed, decay)
    a = floor * 10.0**log_gap
    op, scaled = toeplitz_operator(A), toeplitz_operator(np.ldexp(A, k))
    b = np.random.default_rng(seed).standard_normal(n)
    with mock.patch.object(scipy.linalg, "cholesky", wraps=scipy.linalg.cholesky) as cholesky:
        factor, scaled_factor = op._factor_shifted(a), scaled._factor_shifted(np.ldexp(a, 2 * k))
        x, scaled_x = op.damped_solve(a, b), scaled.damped_solve(np.ldexp(a, 2 * k), b)
    assert cholesky.call_count == 0
    assert np.array_equal(scaled_factor.lower, np.ldexp(factor.lower, k))
    assert np.array_equal(scaled_x, np.ldexp(x, -2 * k))


@pytest.mark.parametrize("n, seed", ((600, 1), (1000, 2)))
def test_heat_operator_is_factored_without_lapack_cholesky(n, seed):
    """choose_a, the dsm preconditioner, its solve and its first apply,
    which factors, make no LAPACK Cholesky on heat_matrix from order 512,
    whose operator is a ToeplitzOperator; the same matrix with one entry
    moved by one ulp is no longer Toeplitz, and its preconditioner makes one
    at its first apply."""
    inst = heat_instance(n, 0.01, seed)
    with mock.patch.object(scipy.linalg, "cholesky", wraps=scipy.linalg.cholesky) as cholesky:
        op = as_operator(inst.A)
        assert type(op) is ToeplitzOperator
        a = choose_a(op, inst.b_noisy, inst.delta).chosen_a
        precond = build_preconditioner(op, a)
        solve_dsm(op, inst.b_noisy, inst.delta, precond)
        precond.apply_p(inst.b_noisy)
        assert cholesky.call_count == 0
        nudged = inst.A.copy()
        nudged[n - 1, n - 1] = np.nextafter(nudged[n - 1, n - 1], np.inf)
        build_preconditioner(nudged, a).apply_p(inst.b_noisy)
        assert cholesky.call_count == 1


@given(lower=st.booleans(), n=st.integers(2, 80), seed=SEEDS, decay=DECAYS,
       log_ratio=st.one_of(st.just(0.0), st.floats(-20.0, 0.0)))
def test_lapack_route_at_and_below_the_schur_floor(lower, n, seed, decay, log_ratio):
    """At a <= eps (sum |c_i|)^2 a triangular Toeplitz A is factored as any
    other A: its solves are those of LAPACK's Cholesky of the shifted Gram
    triangle, bit for bit, or it raises the operator's "too small" error
    where that Cholesky fails. The next float above the floor takes the
    Schur route."""
    A, floor = triangular_toeplitz(lower, n, seed, decay)
    a = floor * 10.0**log_ratio
    op = toeplitz_operator(A)
    b = np.random.default_rng(seed).standard_normal(n)
    try:
        expected = _cholesky(op.gram_right, a).solve(b)
    except ValueError:
        with pytest.raises(ValueError, match=r"could not be factored; a=.* is too small"):
            op.damped_solve(a, b)
    else:
        assert np.array_equal(op.damped_solve(a, b), expected)
    with mock.patch.object(scipy.linalg, "cholesky", wraps=scipy.linalg.cholesky) as cholesky:
        op.damped_solve(np.nextafter(floor, np.inf), b)
    assert cholesky.call_count == 0


@given(lower=st.booleans(), n=st.integers(512, 1100), seed=SEEDS, decay=DECAYS)
def test_fft_products_of_a_triangular_toeplitz_operator(lower, n, seed, decay):
    """From n = 512 a triangular Toeplitz A is applied by zero-padded real
    FFTs of a power-of-two length N >= 2n - 1: matvec and rmatvec are within
    log2(N) eps ||A||_F ||x|| (c = 1) of numpy's A x and A^T y, normwise;
    300 probes reached 0.014 of that bound."""
    A, _ = triangular_toeplitz(lower, n, seed, decay)
    op = as_operator(A)
    N = op._fft.length
    assert N >= 2 * n - 1 and N & (N - 1) == 0
    bound = np.log2(N) * np.finfo(float).eps * np.linalg.norm(A)
    x = np.random.default_rng(seed).standard_normal(n)
    for product, reference in ((op.matvec(x), A @ x), (op.rmatvec(x), A.T @ x)):
        assert product.shape == reference.shape
        assert np.linalg.norm(product - reference) <= bound * np.linalg.norm(x)


@pytest.mark.parametrize("lower", (True, False))
def test_products_below_the_fft_floor_are_numpy_s(lower):
    """At n = 511 as_operator gives a triangular Toeplitz A a DenseOperator,
    which applies it as any other A: matvec and rmatvec are numpy's A x and
    A^T y, bit for bit."""
    A, _ = triangular_toeplitz(lower, 511, 5, 0.02)
    op = as_operator(A)
    assert type(op) is DenseOperator
    x = np.random.default_rng(5).standard_normal(511)
    assert np.array_equal(op.matvec(x), A @ x)
    assert np.array_equal(op.rmatvec(x), A.T @ x)


@pytest.mark.parametrize("lower", (True, False))
def test_dense_operator_products_are_numpy_s_above_the_fft_floor(lower):
    """DenseOperator called directly takes dense products for any A: on
    heat_matrix(600), or its transpose, which as_operator applies by FFT,
    matvec and rmatvec are numpy's A x and A^T y, bit for bit."""
    A = heat_matrix(600) if lower else np.ascontiguousarray(heat_matrix(600).T)
    op = DenseOperator(A)
    x = np.random.default_rng(6).standard_normal(600)
    assert np.array_equal(op.matvec(x), A @ x)
    assert np.array_equal(op.rmatvec(x), A.T @ x)


@pytest.mark.parametrize("seed, delta_rel", ((1, 0.01), (2, 0.05)))
def test_fft_route_keeps_the_damping_steps_and_solutions(seed, delta_rel):
    """On heat_matrix(600), which takes the FFT products, and on the same
    matrix with one entry moved by one ulp, which is no longer Toeplitz and
    builds its Golub-Kahan basis by gemv: choose_a's a
    agrees within 1e-14, evaluations, dsm steps and Newton iterations are
    the same, the dsm, vr_i and vr_n solutions agree within 1e-12, and both
    residual histories are nonincreasing within criterion 02's slack."""
    inst = heat_instance(600, delta_rel, seed)
    f, delta = inst.b_noisy, inst.delta
    nudged = inst.A.copy()
    nudged[599, 599] = np.nextafter(nudged[599, 599], np.inf)
    runs = []
    for A in (inst.A, nudged):
        op = as_operator(A)
        trace = choose_a(op, f, delta)
        dsm = solve_dsm(op, f, delta, build_preconditioner(op, trace.chosen_a))
        u_i = vr_solve(op, f, trace.chosen_a)
        _, u_n, newton_iterations = vr_newton(op, f, delta)
        assert residuals_nonincreasing(dsm.residual_history)
        runs.append((isinstance(op, ToeplitzOperator), trace, dsm, (dsm.solution, u_i, u_n), newton_iterations))
    (structured, trace, dsm, solutions, iterations), (dense, ref_trace, ref_dsm, ref_solutions, ref_iterations) = runs
    assert structured and not dense
    assert abs(trace.chosen_a - ref_trace.chosen_a) <= 1e-14 * ref_trace.chosen_a
    assert trace.evaluations == ref_trace.evaluations
    assert (dsm.iterations, dsm.stop_reason) == (ref_dsm.iterations, ref_dsm.stop_reason)
    assert iterations == ref_iterations
    for u, u_ref in zip(solutions, ref_solutions):
        assert np.linalg.norm(u - u_ref) <= 1e-12 * np.linalg.norm(u_ref)


# vr_newton's documented accuracy on phi(a) = C delta.
NEWTON_RTOL = 1e-8


# Bounds on (a, u) relative, per noise level, for the Golub-Kahan route
# against the tridiagonal one. At 0.1% noise the one-ulp nudge alone moves
# a by up to 2.7e-12 and u by up to 1.1e-11 when both sides take the
# tridiagonal route (heat n = 512-1100, 30 draws), so that level gets ten
# times the bounds of the others.
GOLUB_KAHAN_BOUNDS = {0.05: (1e-12, 1e-11), 0.01: (1e-12, 1e-11), 0.001: (1e-11, 1e-10)}


@given(n=st.integers(512, 1100), kappa=st.floats(0.8, 1.25), delta_rel=st.sampled_from(sorted(GOLUB_KAHAN_BOUNDS)),
       seed=SEEDS)
def test_golub_kahan_root_matches_the_tridiagonal_one(n, kappa, delta_rel, seed):
    """vr_newton on a heat operator from n = 512, which takes its misfit
    spectrum from a Golub-Kahan bidiagonalization, against the same matrix
    with one entry moved by one ulp, which is no longer Toeplitz, with the
    root taken on the eigenpairs of A A^T from dsytrd and u by one damped
    solve (_exact_newton): the same Newton iterations; a within 1e-12 relative and
    u within 1e-11 at 5% and 1% noise, ten times that at 0.1% (see
    GOLUB_KAHAN_BOUNDS); and phi(a) within NEWTON_RTOL C delta of C delta
    under the nudged operator's dense phi."""
    inst = heat_instance(n, delta_rel, seed, kappa=kappa)
    f, delta = inst.b_noisy, inst.delta
    nudged = inst.A.copy()
    nudged[n - 1, n - 1] = np.nextafter(nudged[n - 1, n - 1], np.inf)
    op, reference = as_operator(inst.A), as_operator(nudged)
    assert isinstance(op, ToeplitzOperator) and not isinstance(reference, ToeplitzOperator)
    a, u, iterations = vr_newton(op, f, delta)
    a_ref, u_ref, ref_iterations = _exact_newton(reference, f, delta)
    assert iterations == ref_iterations
    a_bound, u_bound = GOLUB_KAHAN_BOUNDS[delta_rel]
    assert abs(a - a_ref) <= a_bound * a_ref
    assert np.linalg.norm(u - u_ref) <= u_bound * np.linalg.norm(u_ref)
    target = 1.01 * delta
    assert abs(phi(reference, f, a) - target) <= NEWTON_RTOL * target


FAMILIES = {"heat": heat_instance, "volterra": volterra_instance}


def _dsm_configs(h):
    """Unit steps and h, under the discrepancy and the a-priori rule."""
    return [SolveConfig(h=step, stopping=stopping) for step in (1.0, h) for stopping in ("discrepancy", "apriori")]


def _trace_values(trace):
    """Every damping and misfit of a choose_a trace, the chosen pair first."""
    return [(trace.chosen_a, trace.phi_at_chosen)] + [(step.a, step.phi) for step in trace.steps]


def _within(x, reference, rtol=1e-12):
    reference = np.asarray(reference)
    return np.all(np.abs(np.asarray(x) - reference) <= rtol * np.abs(reference))


def _exact_search(op, f, delta):
    """choose_a's search on the exact misfit phi, from choose_a's start."""
    return params._search(lambda a: phi(op, f, a), params.start_damping(delta, op.norm, np.linalg.norm(f)), delta)


def _exact_solve(op, f, a):
    """vr_solve's u by one damped solve, A^T (A A^T + a I)^{-1} f."""
    return op.rmatvec(op.damped_solve(a, f))


def _exact_newton(op, f, delta, C=1.01):
    """vr_newton's (a, u, iterations) with the root taken on the eigenpairs
    of A A^T (linalg._eigen_coefficients) and u by one damped solve."""
    lam, gamma = linalg._eigen_coefficients(op.gram_right, f)
    start = params.start_damping(delta, op.norm, np.linalg.norm(f))
    a, iterations = params._discrepancy_root(lam, gamma, C * delta, op.norm_squared, start, 100)
    return a, _exact_solve(op, f, a), iterations


def _exact_dsm(op, f, delta, precond, config):
    """solve_dsm from zero as a hand loop of dsm_step under its stop rule:
    (iterations, stop_reason, residual_history, solution)."""
    threshold, steps, finished = solvers._stop_rule(delta, config)
    u = np.zeros(op.shape[1])
    history = [float(np.linalg.norm(op.matvec(u) - f))]
    if history[0] <= threshold:
        return 0, "initial_already_small", history, u
    for step in range(1, steps + 1):
        u = dsm_step(precond, config.h, u, f)
        history.append(float(np.linalg.norm(op.matvec(u) - f)))
        if history[-1] <= threshold:
            return step, "discrepancy_met", history, u
    return steps, finished, history, u


def _basis_results(op, f, delta, h):
    """choose_a's trace, vr_solve at its a, vr_newton, and solve_dsm at its a
    under each of _dsm_configs(h), on op."""
    trace = choose_a(op, f, delta)
    a = trace.chosen_a
    runs = [solve_dsm(op, f, delta, build_preconditioner(op, a), config) for config in _dsm_configs(h)]
    return trace, vr_solve(op, f, a), vr_newton(op, f, delta), runs


@given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(20, 200),
       delta_rel=st.sampled_from((0.05, 0.01, 0.001)), seed=SEEDS,
       h=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True))
def test_basis_route_matches_the_exact_route(family, n, delta_rel, seed, h):
    """choose_a, vr_solve, vr_newton and solve_dsm on a DenseOperator and on
    a ToeplitzOperator built directly, which take their filters on a
    Golub-Kahan basis, against references from the exact primitives, on
    heat and Volterra data: the search on phi (params._search), the root on
    the eigenpairs of A A^T, vr_solve by one damped solve, and the damped
    iteration as a hand loop of dsm_step. The same search actions, with
    every a and misfit within 1e-12 relative; vr_solve at each side's a
    within 1e-12; vr_newton's Newton iterations the same, its a within
    1e-11 and its u within 1e-12; and for the damped iteration with unit
    steps and with h in (1, 2), under either stopping rule, the same step
    counts and stop reasons, u within 1e-12, and every history entry within
    1e-12 relative plus 1e-13 ||f_delta||. The absolute term is for
    a-priori runs on small systems, whose residuals fall to roundoff. The
    two operators, by gemv and by FFT products, agree with each other in
    actions, step counts, stop reasons and Newton iterations, and in every
    value within 1e-12 relative (histories plus 1e-13 ||f_delta||).
    Measured on either operator over 1,800 draws: 8.4e-14 on the search,
    1.8e-14 on vr_solve, 2.9e-13 on the damped iteration's u, and
    histories within 0.55 of their bound; vr_newton's a within 1.3e-12 on
    heat at 0.1% noise and 1.4e-13 elsewhere, as the root amplifies the
    misfit's roundoff, and its u within 2.9e-14. Between the operators:
    3.4e-13 on vr_newton's a, 1.8e-13 on the damped iteration's u, and
    5.2e-14 or less elsewhere."""
    inst = FAMILIES[family](n, delta_rel, seed)
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    norm_f = np.linalg.norm(f)
    exact = DenseOperator(A)
    reference = _exact_search(exact, f, delta)
    a_exact = reference.chosen_a
    u_exact = _exact_solve(exact, f, a_exact)
    a_n_exact, u_n_exact, exact_iterations = _exact_newton(exact, f, delta)
    dsm_exact = [_exact_dsm(exact, f, delta, build_preconditioner(exact, a_exact), config) for config in _dsm_configs(h)]
    results = [_basis_results(op, f, delta, h) for op in (DenseOperator(A), toeplitz_operator(A))]
    for trace, u, (a_n, u_n, iterations), runs in results:
        assert [step.action for step in trace.steps] == [step.action for step in reference.steps]
        assert _within(_trace_values(trace), _trace_values(reference))
        assert np.linalg.norm(u - u_exact) <= 1e-12 * np.linalg.norm(u_exact)
        assert iterations == exact_iterations
        assert abs(a_n - a_n_exact) <= 1e-11 * a_n_exact
        assert np.linalg.norm(u_n - u_n_exact) <= 1e-12 * np.linalg.norm(u_n_exact)
        for run, (steps, stop_reason, history, solution) in zip(runs, dsm_exact):
            assert (run.iterations, run.stop_reason) == (steps, stop_reason)
            assert np.linalg.norm(run.solution - solution) <= 1e-12 * np.linalg.norm(solution)
            assert np.all(np.abs(np.array(run.residual_history) - history) <= 1e-12 * np.array(history) + 1e-13 * norm_f)
    (trace, u, (a_n, u_n, iterations), runs), (fft_trace, fft_u, (fft_a_n, fft_u_n, fft_iterations), fft_runs) = results
    assert [step.action for step in fft_trace.steps] == [step.action for step in trace.steps]
    assert _within(_trace_values(fft_trace), _trace_values(trace))
    assert fft_iterations == iterations and abs(fft_a_n - a_n) <= 1e-12 * a_n
    for x, x_ref in [(fft_u, u), (fft_u_n, u_n)] + [(run.solution, ref.solution) for run, ref in zip(fft_runs, runs)]:
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    for run, ref in zip(fft_runs, runs):
        assert (run.iterations, run.stop_reason) == (ref.iterations, ref.stop_reason)
        history = np.array(ref.residual_history)
        assert np.all(np.abs(np.array(run.residual_history) - history) <= 1e-12 * history + 1e-13 * norm_f)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_basis_route_gives_up_to_the_exact_route(family, monkeypatch):
    """With the Golub-Kahan step cap at 5 steps no k is accepted, as a k
    needs a result 5 steps before it: choose_a, vr_solve, vr_newton and
    solve_dsm with either stopping rule, at h = 1 and 1.5, on an n = 600
    DenseOperator and on the ToeplitzOperator of the same A give the bits
    of the exact primitives on that operator: the search on phi, one damped
    solve, the root on the eigenpairs of A A^T, and a hand loop of
    dsm_step."""
    inst = FAMILIES[family](600, 0.01, 1)
    f, delta = inst.b_noisy, inst.delta
    monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", 5)
    for op in (DenseOperator(inst.A), as_operator(inst.A)):
        trace = choose_a(op, f, delta)
        assert trace == _exact_search(op, f, delta)
        a = trace.chosen_a
        assert np.array_equal(vr_solve(op, f, a), _exact_solve(op, f, a))
        (a_n, u_n, iterations), (a_n_exact, u_n_exact, exact_iterations) = (
            vr_newton(op, f, delta), _exact_newton(op, f, delta))
        assert (a_n, iterations) == (a_n_exact, exact_iterations)
        assert np.array_equal(u_n, u_n_exact)
        for config in _dsm_configs(1.5):
            precond = build_preconditioner(op, a)
            run = solve_dsm(op, f, delta, precond, config)
            steps, stop_reason, history, solution = _exact_dsm(op, f, delta, precond, config)
            assert (run.iterations, run.stop_reason, run.residual_history) == (steps, stop_reason, history)
            assert np.array_equal(run.solution, solution)
    assert isinstance(op, ToeplitzOperator)
