"""Tests for the continuous-time flow: its spectra, propagation, residual decay,
crossing time, and the discrepancy it stops on."""

import math

import numpy as np
import pytest

from dsmsolve import (
    EigenDecomposition,
    build_preconditioner,
    choose_a,
    find_t_delta,
    propagate,
    residual_t,
    spectral_q,
    spectral_t,
)
from dsmsolve.problems import heat_instance

# closed-form crossing time of exp(-t/2) = 1.01 * 0.01
T_CROSS_HALF = 2.0 * math.log(1.0 / 0.0101)


def identity_spectral(n=4, a=1.0):
    precond = build_preconditioner(np.eye(n), a)
    return spectral_t(precond), spectral_q(precond)


def test_identity_eigenvalues():
    T, Q = identity_spectral(n=3, a=1.0)
    assert np.allclose(T.eigenvalues, 0.5, rtol=1e-12, atol=1e-14)
    assert np.allclose(Q.eigenvalues, 0.5, rtol=1e-12, atol=1e-14)
    assert T.dimension == 3
    assert T.eigenvalues[-1] == pytest.approx(0.5, rel=1e-12)


def test_propagate_identity_closed_form():
    """For T = I/2 with zero start, u(t) = (1 - exp(-t/2)) f."""
    T, _ = identity_spectral(n=4, a=1.0)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(4)
    pf = f / 2.0
    for t in (0.0, 0.3, 1.0, 7.5):
        expected = (1.0 - math.exp(-t / 2.0)) * f
        assert np.allclose(propagate(T, np.zeros(4), pf, t), expected, rtol=1e-12, atol=1e-14)


def test_residual_identity_closed_form():
    _, Q = identity_spectral(n=4, a=1.0)
    r0 = np.array([0.6, 0.0, -0.8, 0.0])
    for t in (0.0, 0.5, 2.0, 10.0):
        assert residual_t(Q, r0, t) == pytest.approx(math.exp(-t / 2.0), rel=1e-12)


def test_zero_eigenvalue_takes_linear_limit():
    """A null direction accumulates source weight t instead of 0/0."""
    A = np.diag([0.0, 1.0])
    T = spectral_t(build_preconditioner(A, 1.0))
    lam = np.sort(T.eigenvalues)
    assert lam[0] == pytest.approx(0.0, abs=1e-15)
    assert lam[1] == pytest.approx(0.5, rel=1e-12)
    u0 = np.array([1.0, 0.0])
    pf = np.array([1.0, 1.0])
    t = 3.0
    got = propagate(T, u0, pf, t)
    expected = np.array([1.0 + t, 2.0 * (1.0 - math.exp(-t / 2.0))])
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_propagate_validates_input():
    T, _ = identity_spectral(n=3)
    with pytest.raises(ValueError, match="nonnegative"):
        propagate(T, np.zeros(3), np.zeros(3), -1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        propagate(T, np.zeros(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        residual_t(T, np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        residual_t(T, np.zeros(3), -0.5)


def test_semigroup_property():
    """Flowing t1 then t2 equals flowing t1 + t2 when there is no source."""
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 6))
    T = spectral_t(build_preconditioner(A, 0.4))
    u0 = rng.standard_normal(6)
    zero = np.zeros(6)
    for t1, t2 in ((0.2, 0.9), (1.5, 3.0), (0.0, 4.0)):
        direct = propagate(T, u0, zero, t1 + t2)
        chained = propagate(T, propagate(T, u0, zero, t1), zero, t2)
        assert np.allclose(direct, chained, rtol=1e-10, atol=1e-12)


def test_exact_data_flow_converges_to_solution():
    """With clean consistent data the flow tends to the true solution."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
    y = rng.standard_normal(8)
    f = A @ y
    precond = build_preconditioner(A, 0.7)
    T = spectral_t(precond)
    pf = precond.apply_p(f)
    lam_min = float(np.min(T.eigenvalues))
    assert lam_min > 0.0
    u = propagate(T, np.zeros(8), pf, 1e3 / lam_min)
    assert np.linalg.norm(u - y) <= 1e-6 * np.linalg.norm(y)


def test_discrete_iteration_tracks_flow_for_small_steps():
    """Explicit stepping with h = 0.01 stays O(h) close to the exact flow."""
    rng = np.random.default_rng(11)
    A = rng.standard_normal((10, 10)) + 2.0 * np.eye(10)
    y = rng.standard_normal(10)
    f = A @ y
    precond = build_preconditioner(A, 0.5)
    T = spectral_t(precond)
    pf = precond.apply_p(f)
    h = 0.01
    u = np.zeros(10)
    for _ in range(100):
        u = u - h * (precond.apply_t(u) - pf)
    flow = propagate(T, np.zeros(10), pf, 1.0)
    assert np.linalg.norm(u - flow) <= 5.0 * h * np.linalg.norm(y)


def test_source_integral_bound():
    """The accumulated source never exceeds t times the source norm."""
    rng = np.random.default_rng(13)
    A = rng.standard_normal((7, 7))
    T = spectral_t(build_preconditioner(A, 0.2))
    zero = np.zeros(7)
    for _ in range(20):
        zeta = rng.standard_normal(7)
        for t in (0.05, 0.7, 4.0, 50.0):
            assert np.linalg.norm(propagate(T, zero, zeta, t)) <= t * np.linalg.norm(zeta) * (1 + 1e-12)


def test_crossing_time_closed_form():
    _, Q = identity_spectral(n=4, a=1.0)
    rng = np.random.default_rng(17)
    r0 = rng.standard_normal(4)
    r0 /= np.linalg.norm(r0)
    t = find_t_delta(Q, r0, 1.01, 0.01)
    assert t == pytest.approx(T_CROSS_HALF, rel=1e-8)
    target = 1.01 * 0.01
    assert abs(residual_t(Q, r0, t) - target) <= 1e-10 * target


def test_crossing_within_value_rtol_when_floats_run_out():
    """At value_rtol = 4e-16 the bisection runs out of floats before its
    internal value_rtol / 8; the crossing it reached is still within
    value_rtol, so it is returned."""
    Q = spectral_q(build_preconditioner(np.eye(4), 1.0))
    r0 = np.full(4, 0.5)
    t = find_t_delta(Q, r0, 1.01, 0.01, value_rtol=4e-16)
    assert abs(residual_t(Q, r0, t) - 0.0101) <= 4e-16 * 0.0101


def test_crossing_time_validates_input():
    _, Q = identity_spectral(n=3, a=1.0)
    r0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="already at or below"):
        find_t_delta(Q, r0, 1.01, 2.0)
    with pytest.raises(ValueError, match="delta > 0"):
        find_t_delta(Q, r0, 1.01, 0.0)
    with pytest.raises(ValueError, match="positive"):
        find_t_delta(Q, r0, -1.0, 0.1)


def test_crossing_time_detects_plateau():
    """Residual mass in the null space of Q never decays, so no crossing exists."""
    Q = spectral_q(build_preconditioner(np.diag([1.0, 0.0]), 1.0))
    r0 = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="plateau"):
        find_t_delta(Q, r0, 1.01, 0.1)


def test_residual_monotone_on_sampled_grid():
    rng = np.random.default_rng(19)
    A = rng.standard_normal((9, 6))
    precond = build_preconditioner(A, 0.15)
    Q = spectral_q(precond)
    r0 = rng.standard_normal(9)
    grid = np.linspace(0.0, 25.0, 100)
    values = [residual_t(Q, r0, float(t)) for t in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_one_svd_gives_both_spectra(monkeypatch):
    """T and Q come from one cached SVD of A; nothing is diagonalized again."""
    calls = []

    def counting(name):
        real = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    precond = build_preconditioner(heat_instance(50, 0.01, 0).A, 1e-3)
    monkeypatch.setattr(np.linalg, "svd", counting("svd"))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh"))
    T, Q, T_again = spectral_t(precond), spectral_q(precond), spectral_t(precond)
    assert calls == ["svd"]
    assert T_again.eigenvectors is T.eigenvectors
    assert np.array_equal(T.eigenvalues, Q.eigenvalues)


def test_tied_singular_values_keep_eigenvalues_ascending():
    """An orthogonal A has all its singular values within an ulp or two of 1.
    s^2 / (s^2 + a), rounded, can then come out of order (it does for seed 1
    at a = 0.437...); the spectra stay ascending."""
    for seed in (1, 2, 3):
        A, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((8, 8)))
        for a in np.linspace(0.01, 3.0, 50):
            precond = build_preconditioner(A, float(a))
            for eigen in (spectral_t(precond), spectral_q(precond)):
                assert np.all(np.diff(eigen.eigenvalues) >= 0.0)


@pytest.mark.parametrize("seed", [*range(1, 31), 104729])
@pytest.mark.parametrize("n", [100, 400])
def test_flow_stops_on_the_discrepancy(n, seed):
    """From u0 = 0, the flow propagated to find_t_delta's crossing time has its
    residual ||A u(t_delta) - f_delta||, measured directly, not in the
    eigenbasis of Q, within value_rtol / 2 of C delta: the crossing keeps a
    margin for roundoff instead of meeting value_rtol by luck."""
    inst = heat_instance(n, 0.01, seed)
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    precond = build_preconditioner(A, choose_a(A, f, delta).chosen_a)
    target = 1.01 * delta
    t_delta = find_t_delta(spectral_q(precond), -f, 1.01, delta, value_rtol=1e-10)
    u = propagate(spectral_t(precond), np.zeros(n), precond.apply_p(f), t_delta)
    assert abs(float(np.linalg.norm(A @ u - f)) - target) <= 0.5e-10 * target


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [100, 400])
def test_crossing_maps_the_residual_into_the_eigenbasis_once(n, seed, monkeypatch):
    """find_t_delta forms r0's coefficients in Q's eigenbasis once per crossing,
    and its t_delta equals, bit for bit, the same doubling and bisection run
    through the public residual_t, which maps r0 again on every probe."""
    inst = heat_instance(n, 0.01, seed)
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    Q = spectral_q(build_preconditioner(A, choose_a(A, f, delta).chosen_a))
    target = 1.01 * delta

    t_lo, t_hi = 0.0, 1.0 / float(Q.eigenvalues[-1])
    while residual_t(Q, -f, t_hi) > target:
        t_lo, t_hi = t_hi, 2.0 * t_hi
    while True:
        mid = 0.5 * (t_lo + t_hi)
        value = residual_t(Q, -f, mid)
        if abs(value - target) <= 1e-10 / 8 * target:
            break
        t_lo, t_hi = (mid, t_hi) if value > target else (t_lo, mid)

    mapped = []
    real_to_basis = EigenDecomposition.to_basis

    def counting_to_basis(self, x):
        mapped.append(x.shape)
        return real_to_basis(self, x)

    monkeypatch.setattr(EigenDecomposition, "to_basis", counting_to_basis)
    assert find_t_delta(Q, -f, 1.01, delta) == mid
    assert mapped == [(n,)]
