"""Tests for misfit evaluation, damping selection, and the variational baselines."""

import numpy as np
import pytest

from dsmsolve import choose_a, phi, vr_newton, vr_solve
from dsmsolve.problems import heat_instance


def diag_phi(sigmas, f, a):
    """Closed-form misfit for a diagonal operator: independent check of phi."""
    sigmas = np.asarray(sigmas, dtype=float)
    f = np.asarray(f, dtype=float)
    return float(np.sqrt(np.sum((a / (sigmas**2 + a)) ** 2 * f**2)))


def test_phi_identity_closed_form():
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    assert phi(A, f, 1.0) == pytest.approx(0.5, rel=1e-12)
    for a in (0.01, 0.3, 7.0):
        assert phi(A, f, a) == pytest.approx(a / (1.0 + a), rel=1e-12)


def test_phi_zero_operator_returns_data_norm():
    A = np.zeros((3, 2))
    f = np.array([3.0, 0.0, 4.0])
    for a in (1e-6, 1.0, 1e6):
        assert phi(A, f, a) == pytest.approx(5.0, rel=1e-14)


def test_phi_rejects_nonpositive_damping():
    with pytest.raises(ValueError, match="positive"):
        phi(np.eye(2), np.ones(2), 0.0)


def test_phi_matches_diagonal_closed_form():
    sigmas = np.array([1.0, 0.5, 0.02])
    A = np.diag(sigmas)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(3)
    for a in np.geomspace(1e-6, 1e2, 9):
        assert phi(A, f, float(a)) == pytest.approx(diag_phi(sigmas, f, a), rel=1e-9)


def test_phi_monotone_over_eight_decades():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((7, 5))
        f = rng.standard_normal(7)
        values = [phi(A, f, float(a)) for a in np.geomspace(1e-4, 1e4, 33)]
        assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(values, values[1:]))
        norm_f = float(np.linalg.norm(f))
        assert all(0.0 <= v <= norm_f + 1e-12 for v in values)


def test_phi_floor_is_unreachable_data_component():
    """As a -> 0 the misfit tends to the data part outside the operator range."""
    A = np.diag([1.0, 0.0])
    f = np.array([0.6, 0.8])
    assert phi(A, f, 1e-12) == pytest.approx(0.8, rel=1e-9)
    assert phi(A, f, 1e3) <= np.linalg.norm(f) + 1e-12


def test_vr_solve_identity_and_zero():
    assert np.allclose(vr_solve(np.eye(2), [2.0, 0.0], 1.0), [1.0, 0.0], rtol=1e-14)
    assert np.allclose(vr_solve(np.zeros((2, 2)), [1.0, 2.0], 0.5), 0.0, atol=1e-15)


def test_vr_solve_tiny_damping_matches_direct_inverse():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((5, 5)) + 4.0 * np.eye(5)  # comfortably invertible
    f = rng.standard_normal(5)
    direct = np.linalg.solve(A, f)
    got = vr_solve(A, f, 1e-12)
    assert np.linalg.norm(got - direct) <= 1e-6 * np.linalg.norm(direct)


def test_choose_a_double_undershoot_trace():
    """Two undershoots triple twice and stop, reporting the misfit at 3a."""
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    trace = choose_a(A, f, 0.2)
    assert trace.evaluations == 2
    assert [s.action for s in trace.steps] == ["triple", "fallback_triple"]
    first, second = trace.steps
    assert first.a == pytest.approx(1.0 / 15.0, rel=1e-12)
    assert first.phi == pytest.approx(0.0625, rel=1e-12)
    assert first.ratio == pytest.approx(0.3125, rel=1e-12)
    assert second.a == pytest.approx(0.2, rel=1e-12)
    assert second.phi == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert second.ratio == pytest.approx(5.0 / 6.0, rel=1e-12)
    assert trace.chosen_a == pytest.approx(0.6, rel=1e-12)
    assert trace.phi_at_chosen == pytest.approx(0.375, rel=1e-12)


def test_choose_a_double_undershoot_trace_large_delta():
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    trace = choose_a(A, f, 0.9)
    assert [s.action for s in trace.steps] == ["triple", "fallback_triple"]
    first, second = trace.steps
    assert first.a == pytest.approx(0.3, rel=1e-12)
    assert first.phi == pytest.approx(0.3 / 1.3, rel=1e-12)
    assert first.ratio == pytest.approx(0.3 / 1.3 / 0.9, rel=1e-12)
    assert second.a == pytest.approx(0.9, rel=1e-12)
    assert second.phi == pytest.approx(0.9 / 1.9, rel=1e-12)
    assert trace.chosen_a == pytest.approx(2.7, rel=1e-12)
    assert trace.phi_at_chosen == pytest.approx(2.7 / 3.7, rel=1e-12)


def test_choose_a_accepts_first_guess_when_in_band():
    """A small trailing singular value parks the misfit inside [delta, 2 delta]."""
    A = np.diag([1.0, 1e-3])
    f = np.array([1.0, 0.15])
    delta = 0.1
    trace = choose_a(A, f, delta)
    assert trace.evaluations == 1
    assert trace.steps[0].action == "accept"
    a0 = delta * 1.0 / (3.0 * float(np.linalg.norm(f)))
    assert trace.chosen_a == pytest.approx(a0, rel=1e-9)
    assert delta <= trace.phi_at_chosen <= 2.0 * delta
    assert trace.phi_at_chosen == pytest.approx(diag_phi([1.0, 1e-3], f, trace.chosen_a), rel=1e-9)


def test_choose_a_shrinks_overshoot_then_accepts():
    A = np.diag([1.0, 0.1])
    f = np.array([0.3, 1.0])
    delta = 0.05
    trace = choose_a(A, f, delta)
    assert [s.action for s in trace.steps] == ["shrink", "accept"]
    first, second = trace.steps
    assert first.ratio > 2.0
    assert second.a == pytest.approx(first.a / (2.0 * (first.ratio - 1.0)), rel=1e-12)
    assert 1.0 <= second.ratio <= 2.0
    assert delta <= trace.phi_at_chosen <= 2.0 * delta


def test_choose_a_exhausts_evaluations_on_stuck_overshoot():
    """A misfit floor above 2 delta keeps the ratio large forever."""
    A = np.diag([1.0, 0.0])
    f = np.array([1.0, 0.5])
    with pytest.raises(ValueError, match="100"):
        choose_a(A, f, 0.01)


def test_choose_a_input_validation():
    A = np.eye(2)
    with pytest.raises(ValueError, match="delta"):
        choose_a(A, np.ones(2), 0.0)
    with pytest.raises(ValueError, match="zero"):
        choose_a(A, np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="operator norm"):
        choose_a(np.zeros((2, 2)), np.ones(2), 0.1)


def test_choose_a_band_or_fallback_dichotomy():
    """Every search ends in the band or with the documented second-undershoot stop."""
    cases = []
    for n in (10, 30):
        for seed in range(5):
            inst = heat_instance(n, 0.05, seed)
            cases.append((inst.A, inst.b_noisy, inst.delta))
    rng = np.random.default_rng(21)
    for _ in range(10):
        k = int(rng.integers(2, 7))
        A = np.diag(np.geomspace(1.0, 10.0 ** -rng.integers(1, 9), k))
        f = rng.standard_normal(k)
        cases.append((A, f, 0.1 * float(np.linalg.norm(f))))
    for A, f, delta in cases:
        trace = choose_a(A, f, delta)
        in_band = delta <= trace.phi_at_chosen <= 2.0 * delta
        fallback = trace.steps[-1].action == "fallback_triple"
        assert in_band != fallback or in_band, (delta, trace)
        assert in_band or fallback
        assert trace.evaluations <= 100
        assert trace.chosen_a > 0.0


def test_phi_equals_misfit_of_vr_solution():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 4))
        f = rng.standard_normal(6)
        a = float(rng.uniform(1e-3, 10.0))
        recomputed = float(np.linalg.norm(A @ vr_solve(A, f, a) - f))
        assert abs(phi(A, f, a) - recomputed) <= 1e-12


def test_newton_identity_closed_form():
    """On the identity the discrepancy equation has the solution Cd / (1 - Cd)."""
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    a, u, iterations = vr_newton(A, f, 0.1, C=1.01)
    a_star = 0.11234705228031146
    assert a == pytest.approx(a_star, rel=1e-6)
    assert iterations <= 100
    assert np.allclose(u, f / (1.0 + a), rtol=1e-10, atol=1e-14)
    target = 1.01 * 0.1
    assert abs(phi(A, f, a) - target) <= 1e-8 * target


def test_newton_solves_heat_instances_quickly():
    for seed in range(10):
        inst = heat_instance(20, 0.05, seed)
        a, u, iterations = vr_newton(inst.A, inst.b_noisy, inst.delta)
        assert iterations <= 12
        target = 1.01 * inst.delta
        misfit = float(np.linalg.norm(inst.A @ u - inst.b_noisy))
        assert abs(misfit - target) <= 1e-8 * target
        assert np.allclose(u, vr_solve(inst.A, inst.b_noisy, a), rtol=1e-12, atol=1e-15)


def test_searches_reproduce_public_misfit_and_solution_bit_for_bit():
    """choose_a and vr_newton share one Gram matrix per call; results must not move."""
    for seed in range(3):
        inst = heat_instance(30, 0.05, seed)
        A, f = inst.A, inst.b_noisy
        trace = choose_a(A, f, inst.delta)
        for step in trace.steps:
            assert step.phi == phi(A, f, step.a)
        assert trace.phi_at_chosen == phi(A, f, trace.chosen_a)
        a, u, _ = vr_newton(A, f, inst.delta)
        assert np.array_equal(u, vr_solve(A, f, a))


def test_newton_iterates_stay_in_bracket():
    import dsmsolve

    for seed in range(5):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((8, 8))
        f = rng.standard_normal(8)
        delta = 0.1 * float(np.linalg.norm(f))
        a, _, _ = vr_newton(A, f, delta)
        s2 = dsmsolve.op_norm(A) ** 2
        assert 1e-16 * s2 <= a <= s2


def test_newton_input_validation():
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="delta"):
        vr_newton(A, f, 0.0)
    with pytest.raises(ValueError, match="positive"):
        vr_newton(A, f, 0.1, C=-1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        vr_newton(A, np.ones(3), 0.1)
    with pytest.raises(ValueError, match="no root"):
        vr_newton(A, f, 2.0)  # C * delta above the data norm
    with pytest.raises(ValueError, match="no root"):
        vr_newton(np.zeros((2, 2)), f, 0.1)


def test_newton_detects_misfit_floor_above_target():
    """Data stuck outside the range keeps the misfit above C delta for every a."""
    A = np.diag([1.0, 0.0])
    f = np.array([0.1, 0.99])
    with pytest.raises(ValueError, match="misfit floor"):
        vr_newton(A, f, 0.5, C=1.01)


def test_newton_survives_target_below_roundoff_resolution():
    """Tiny noise levels collapse the bracket; the result is still a usable root."""
    inst = heat_instance(40, 1e-9, 0)
    a, u, iterations = vr_newton(inst.A, inst.b_noisy, inst.delta)
    assert 0 < iterations <= 100
    assert a > 0.0
    assert np.all(np.isfinite(u))
    target = 1.01 * inst.delta
    misfit = float(np.linalg.norm(inst.A @ u - inst.b_noisy))
    assert abs(misfit - target) <= 0.05 * target
