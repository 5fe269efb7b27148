"""Tests for the damped preconditioner and the smoothed operators T and Q."""

import numpy as np
import pytest

from dsmsolve import Preconditioner, build_preconditioner, op_norm, phi, sym_eigen, vr_solve


def random_operator(seed, m, n):
    return np.random.default_rng(seed).standard_normal((m, n))


def test_rejects_nonpositive_damping():
    A = np.eye(3)
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            Preconditioner(A, a)


@pytest.mark.parametrize("a", [np.nan, np.inf, -1.0])
def test_rejects_nonfinite_or_negative_damping_as_such(a):
    A = np.eye(3)
    f = np.ones(3)
    for build in (Preconditioner, build_preconditioner,
                  lambda A, a: vr_solve(A, f, a), lambda A, a: phi(A, f, a)):
        with pytest.raises(ValueError, match="positive and finite"):
            build(A, a)


def test_apply_p_matches_direct_normal_equations():
    for seed in range(12):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(3, 12, size=2)
        A = rng.standard_normal((m, n))
        a = float(rng.uniform(1e-4, 2.0))
        r = rng.standard_normal(m)
        expected = np.linalg.solve(A.T @ A + a * np.eye(n), A.T @ r)
        got = Preconditioner(A, a).apply_p(r)
        assert np.allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_apply_p_checks_dimensions():
    P = Preconditioner(random_operator(0, 5, 3), 0.1)
    assert P.rows == 5 and P.cols == 3
    with pytest.raises(ValueError, match="dimension mismatch"):
        P.apply_p(np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        P.apply_t(np.ones(5))


def test_apply_t_and_q_match_assembled_matrices():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((7, 5))
        P = Preconditioner(A, 0.3)
        x = rng.standard_normal(5)
        y = rng.standard_normal(7)
        assert np.allclose(P.apply_t(x), P.assemble_t() @ x, rtol=1e-10, atol=1e-13)
        assert np.allclose(P.apply_q(y), P.assemble_q() @ y, rtol=1e-10, atol=1e-13)


def test_t_norm_equals_spectral_norm_of_assembled_t():
    for seed in range(6):
        A = random_operator(seed, 8, 8)
        a = 0.25 * (seed + 1)
        P = Preconditioner(A, a)
        lam = sym_eigen(P.assemble_t()).eigenvalues
        assert P.t_norm == pytest.approx(float(lam[-1]), rel=1e-8)
        s2 = op_norm(A) ** 2
        assert P.t_norm == pytest.approx(s2 / (s2 + a), rel=1e-12)
        assert P.t_norm < 1.0


def test_smoothed_operators_are_psd_contractions():
    """Both T and Q have spectra inside [0, ||T||], strictly below 1."""
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        m, n = rng.integers(4, 10, size=2)
        A = rng.standard_normal((m, n))
        P = Preconditioner(A, 0.7)
        for M in (P.assemble_t(), P.assemble_q()):
            lam = sym_eigen(M).eigenvalues
            assert lam[0] >= -1e-12
            assert lam[-1] <= P.t_norm * (1.0 + 1e-9)


def test_identity_operator_closed_forms():
    P = Preconditioner(np.eye(4), 1.0)
    r = np.array([2.0, -4.0, 0.0, 6.0])
    assert np.allclose(P.apply_p(r), r / 2.0, rtol=1e-14, atol=1e-14)
    assert np.allclose(P.apply_t(r), r / 2.0, rtol=1e-14, atol=1e-14)
    assert np.allclose(P.apply_q(r), r / 2.0, rtol=1e-14, atol=1e-14)
    assert P.t_norm == pytest.approx(0.5, rel=1e-12)


def test_factory_builds_equivalent_object():
    A = random_operator(4, 6, 4)
    direct = Preconditioner(A, 0.05)
    built = build_preconditioner(A, 0.05)
    r = np.arange(6, dtype=float)
    assert np.array_equal(direct.apply_p(r), built.apply_p(r))
