"""Property tests over tall, wide and rank-deficient systems: exact invariance
under power-of-two scaling, monotone residuals, first-crossing stops, and the
flow's spectra against the assembled T and Q."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsmsolve import (
    SolveConfig,
    build_preconditioner,
    choose_a,
    landweber_solve,
    op_norm,
    residuals_nonincreasing,
    solve_dsm,
    spectral_q,
    spectral_t,
    vr_newton,
)

SHAPES = st.sampled_from(("tall", "wide", "rank_deficient"))
SEEDS = st.integers(0, 2**32 - 1)


def noisy_system(shape, seed):
    """(A, f_delta, delta) with 1% noise; rank_deficient is an 8x8 of rank 3."""
    rng = np.random.default_rng(seed)
    m, n = {"tall": (9, 5), "wide": (5, 9), "rank_deficient": (8, 8)}[shape]
    if shape == "rank_deficient":
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

    # On tall and rank-deficient A the Newton search can report a misfit floor
    # above C delta that is not there; it then does so at every scale.
    try:
        a_n, u_n, iterations = vr_newton(A, f, delta)
    except ValueError as exc:
        assert "misfit floor" in str(exc)
        with pytest.raises(ValueError, match="misfit floor"):
            vr_newton(cA, cf, c_delta)
        return
    scaled_a_n, scaled_u_n, scaled_iterations = vr_newton(cA, cf, c_delta)
    assert scaled_a_n == c * c * a_n
    assert np.array_equal(scaled_u_n, u_n)
    assert scaled_iterations == iterations


@given(shape=SHAPES, seed=SEEDS, log_a=st.floats(-3.0, 1.0), fraction=st.floats(0.05, 0.99))
def test_residuals_fall_and_the_stop_is_the_first_crossing(shape, seed, log_a, fraction):
    """For h ||T|| < 2 (damped) and h ||A||^2 < 2 (plain) every residual history
    is nonincreasing, and a discrepancy stop lands on the first n with
    ||A u_n - f_delta|| <= C delta."""
    A, f, delta = noisy_system(shape, seed)
    s2 = op_norm(A) ** 2
    precond = build_preconditioner(A, s2 * 10.0**log_a)
    runs = (
        solve_dsm(A, f, delta, precond, SolveConfig(h=2.0 * fraction / precond.t_norm, max_iter=300)),
        landweber_solve(A, f, delta, SolveConfig(h=2.0 * fraction / s2, max_iter=300)),
    )
    threshold = 1.01 * delta
    for result in runs:
        history = result.residual_history
        assert residuals_nonincreasing(history)
        above = [r > threshold for r in history]
        if result.stop_reason == "discrepancy_met":
            assert above.index(False) == result.iterations == len(history) - 1
        else:
            assert result.stop_reason == "max_iter" and all(above)


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
    eps * cond(A^T A + a I) = eps (||A||^2 + a) / a, so that sets the
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
        error = np.linalg.norm(eigen.reconstruct() - assembled, 2)
        assert error <= tol * np.linalg.norm(assembled, 2)
