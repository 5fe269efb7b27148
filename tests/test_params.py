"""Tests for misfit evaluation, damping selection, and the variational baselines."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from dsmsolve import as_operator, choose_a, linalg, params, phi, vr_newton, vr_solve
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
    with pytest.raises(ValueError, match="finite delta > 0, got inf"):
        choose_a(A, np.ones(2), float("inf"))
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


def test_searches_reproduce_public_misfit_and_solution():
    """choose_a's misfits, taken on a Golub-Kahan basis, are the public
    phi's, exact, within 1e-12 relative; vr_newton's u is vr_solve's at its
    a bit for bit, as both take it on the same basis."""
    for seed in range(3):
        inst = heat_instance(30, 0.05, seed)
        A, f = inst.A, inst.b_noisy
        trace = choose_a(A, f, inst.delta)
        for a, misfit in [(step.a, step.phi) for step in trace.steps] + [(trace.chosen_a, trace.phi_at_chosen)]:
            assert abs(misfit - phi(A, f, a)) <= 1e-12 * phi(A, f, a)
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
    for max_iter in (2.5, 0, -1):
        with pytest.raises(ValueError, match="max_iter must be"):
            vr_newton(A, f, 0.1, max_iter=max_iter)


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


def record_spectrum_sizes(monkeypatch) -> list:
    """The number of eigenvalues in each misfit spectrum vr_newton's root
    search is run on from here on: k + 1 for a Golub-Kahan spectrum after k
    steps, m for the eigenpairs of A A^T."""
    sizes = []
    real = params._discrepancy_root

    def recording(lam, gamma, *args):
        sizes.append(len(lam))
        return real(lam, gamma, *args)

    monkeypatch.setattr(params, "_discrepancy_root", recording)
    return sizes


@pytest.mark.parametrize("delta_rel, k", [(0.05, 20), (0.01, 25), (0.001, 35)])
def test_golub_kahan_steps_on_heat(monkeypatch, delta_rel, k):
    """On heat n = 600 the bidiagonalization settles after 20, 25 and 35
    steps at 5%, 1% and 0.1% noise, the counts measured at n = 600, 1000 and
    2000 (seeds 1, 2 and 104729), give or take one extension of 5: the root
    is taken every 5 steps, and the final search runs on the spectrum of
    the step where it settled."""
    sizes = record_spectrum_sizes(monkeypatch)
    inst = heat_instance(600, delta_rel, 1)
    vr_newton(inst.A, inst.b_noisy, inst.delta)
    steps = sizes[-1] - 1
    assert abs(steps - k) <= 5
    assert sizes[:-1] == [j + 1 for j in range(5, steps + 1, 5)]


def test_vr_newton_solves_on_the_basis_of_its_root(monkeypatch):
    """On heat n = 1000 at 5% noise (seed 3), vr_newton on a
    ToeplitzOperator takes u on the Golub-Kahan basis its misfit spectrum
    was taken on: every product with A goes through op.matvec, and the
    whole call makes at most one 5-step extension more than the root's k
    of each product. ||A|| is taken first, by Gram products."""
    inst = heat_instance(1000, 0.05, 3)
    op = as_operator(inst.A)
    assert isinstance(op, linalg.ToeplitzOperator)
    op.norm
    sizes = record_spectrum_sizes(monkeypatch)
    with mock.patch.object(op, "matvec", wraps=op.matvec) as matvec, \
            mock.patch.object(op, "rmatvec", wraps=op.rmatvec) as rmatvec, \
            mock.patch.object(op._fft, "matvec", wraps=op._fft.matvec) as fft_matvec:
        vr_newton(op, inst.b_noisy, inst.delta)
    k = sizes[-1] - 1
    assert fft_matvec.call_count == matvec.call_count
    assert k <= rmatvec.call_count == matvec.call_count <= k + 5


def test_golub_kahan_does_not_stop_while_the_root_moves(monkeypatch):
    """A triangular Toeplitz A that does not smooth (n = 800, first column
    N(0, 1) e^{-i/40}) moves the projected root for hundreds of steps: at 5%
    and 1% noise a fixed k = 25 leaves a off by 6e-3 and 3e-2, and k = 100 by
    6e-7 and 9e-5. The route must not stop there: the root is taken every 5
    steps up to the bound of 60, and then on the eigenpairs of A A^T, both
    on the ToeplitzOperator and on the DenseOperator of the same matrix
    nudged one ulp off Toeplitz, whose a matches within 1e-12. Each call
    takes 60 Golub-Kahan steps, one product with A and one with A^T each,
    and one more A^T for vr_solve's exact route, which replays the basis
    and extends it no further."""
    n = 800
    rng = np.random.default_rng(0)
    c = rng.standard_normal(n) * np.exp(-np.arange(n) / 40)
    A = scipy.linalg.toeplitz(c, np.zeros(n))
    nudged = A.copy()
    nudged[n - 1, n - 1] = np.nextafter(nudged[n - 1, n - 1], np.inf)
    op, reference = as_operator(A), as_operator(nudged)
    b = A @ np.sin(np.linspace(0.0, np.pi, n))
    noise = rng.standard_normal(n)
    sizes = record_spectrum_sizes(monkeypatch)
    cap = linalg._GOLUB_KAHAN_MAX_STEPS
    assert isinstance(op, linalg.ToeplitzOperator) and not isinstance(reference, linalg.ToeplitzOperator)
    for delta_rel in (0.05, 0.01):
        delta = delta_rel * float(np.linalg.norm(b))
        f = b + noise * (delta / np.linalg.norm(noise))
        roots = []
        for operator in (op, reference):
            operator.norm  # read first: the power iteration's products are not the call's
            sizes.clear()
            with mock.patch.object(operator, "matvec", wraps=operator.matvec) as matvec, \
                    mock.patch.object(operator, "rmatvec", wraps=operator.rmatvec) as rmatvec:
                roots.append(vr_newton(operator, f, delta)[0])
            assert sizes == [k + 1 for k in range(5, cap + 1, 5)] + [n]
            assert operator._basis(f).steps == cap
            assert (matvec.call_count, rmatvec.call_count) == (cap, cap + 1)
        a, a_ref = roots
        assert abs(a - a_ref) <= 1e-12 * a_ref


def test_golub_kahan_falls_back_after_60_steps(monkeypatch):
    """A projected misfit floor that stays above C delta (heat n = 600 at a
    delta 1e-12 times the true one) takes the root search every 5 steps up
    to the bound of 60, whatever n is, and then the eigenpairs of A A^T,
    which name the error."""
    inst = heat_instance(600, 1e-3, 0)
    sizes = record_spectrum_sizes(monkeypatch)
    with pytest.raises(ValueError, match="misfit floor"):
        vr_newton(inst.A, inst.b_noisy, 1e-12 * inst.delta)
    assert sizes == [k + 1 for k in range(5, linalg._GOLUB_KAHAN_MAX_STEPS + 1, 5)] + [600]


def no_root_cases():
    """(A, f_delta, delta) for each of vr_newton's no-root errors that heat
    data can reach, at n = 20 and at n = 600, where the misfit spectrum is
    first sought by bidiagonalization: C delta at or above ||f_delta||, and
    a misfit floor above C delta at a tiny delta."""
    cases = []
    for n in (20, 600):
        inst = heat_instance(n, 1e-3, 0)
        suffix = "" if n == 20 else "-n600"
        norm_f = float(np.linalg.norm(inst.b_noisy))
        cases.append(pytest.param(inst.A, inst.b_noisy, norm_f, id="target_above_data" + suffix))
        cases.append(pytest.param(inst.A, inst.b_noisy, 1e-12 * inst.delta, id="misfit_floor" + suffix))
    return cases


@pytest.mark.parametrize("A, f, delta", no_root_cases())
def test_newton_no_root_messages_are_the_tridiagonal_route_s(A, f, delta):
    """Each no-root error carries the tridiagonal route's message, its
    figures read from the eigenpairs of A A^T: a projected floor above
    C delta never raises; it extends the bidiagonalization and, after 60
    steps, falls back."""
    op = as_operator(A)
    target = 1.01 * delta
    norm_f = float(np.linalg.norm(f))
    if target >= norm_f:
        expected = f"no root: C*delta = {target:.6g} is not below ||f_delta|| = {norm_f:.6g}"
    else:
        lam, gamma = linalg._eigen_coefficients(op.gram_right, f)
        lo = 1e-16 * op.norm**2
        floor = lo * float(np.linalg.norm(gamma / (lam + lo)))
        assert floor >= target
        expected = f"no root: the misfit floor {floor:.6g} already exceeds C*delta = {target:.6g}"
    with pytest.raises(ValueError) as error:
        vr_newton(op, f, delta)
    assert str(error.value) == expected


# Relative bound on phi against its SVD form, per noise level.
MISFIT_BOUNDS = {1e-5: 1e-11, 1e-8: 5e-7}


@pytest.mark.parametrize("n, structured", [(100, False), (400, False), (100, True), (600, True)])
@pytest.mark.parametrize("delta_rel", sorted(MISFIT_BOUNDS))
def test_misfit_at_the_chosen_damping_matches_the_svd(n, structured, delta_rel):
    """phi at choose_a's a on heat data (seed 1), dense and on a
    ToeplitzOperator built directly, and the search's own misfit at a, taken
    on a Golub-Kahan basis, each against a ||(s^2 + a)^{-1} U^T f_delta||
    from the SVD A = U diag(s) V^T: within 1e-11 relative at 1e-5 noise and
    5e-7 at 1e-8 (see MISFIT_BOUNDS); measured for phi 1.3e-12 to 2.8e-12,
    and 9.5e-10 to 1.3e-7, and for the search's misfit 1.1e-13 to 2.7e-12 at
    1e-5. At 1e-8 no basis settles, and the search's misfit is phi. On the
    ToeplitzOperator the two agree within 1e-12 relative; on the dense route
    they differ by up to 1.5e-12 (n = 100), as phi's Cholesky solve loses
    digits like ||A||^2 / a, so there each is held to the SVD form only.
    The misfit taken as ||A u_a - f_delta|| loses digits like
    ||f_delta|| / delta: 1.9e-11 to 1.7e-10, and 1.5e-6 to 8.2e-5."""
    inst = heat_instance(n, delta_rel, 1)
    A, f = inst.A, inst.b_noisy
    op = linalg.ToeplitzOperator(A, *linalg._triangular_toeplitz(A)) if structured else linalg.DenseOperator(A)
    trace = choose_a(op, f, inst.delta)
    a = trace.chosen_a
    U, s, _ = np.linalg.svd(A)
    reference = a * float(np.linalg.norm((U.T @ f) / (s * s + a)))
    if structured:
        assert abs(trace.phi_at_chosen - phi(op, f, a)) <= 1e-12 * phi(op, f, a)
    for misfit in (trace.phi_at_chosen, phi(op, f, a)):
        assert abs(misfit - reference) <= MISFIT_BOUNDS[delta_rel] * reference


def test_damping_too_small_for_the_data_is_named():
    """A damping so small that ||f_delta|| / a overflows, as a search
    driven down by a misfit floor far above delta reaches, is named before
    the solve instead of returning a NaN misfit or solution."""
    A, f = np.diag([1.0, 0.0]), np.array([1.0, 0.5])
    assert phi(A, f, 1e-300) == 0.5
    message = r"^damping parameter a=.* is too small for this right-hand side"
    for call in (lambda: phi(A, f, 1e-310), lambda: vr_solve(A, f, 1e-310), lambda: choose_a(A, f, 1e-6)):
        with pytest.raises(ValueError, match=message):
            call()
