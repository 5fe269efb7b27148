"""Tests for the damped preconditioner, the smoothed operators T and Q, and
the shared operator that as_operator returns."""

import gc
import inspect
import weakref
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from dsmsolve import (
    DenseOperator,
    Preconditioner,
    SolveConfig,
    SolveResult,
    as_operator,
    build_preconditioner,
    choose_a,
    cli,
    find_t_delta,
    landweber_solve,
    linalg,
    op_norm,
    phi,
    propagate,
    solve_dsm,
    spectral_q,
    spectral_t,
    sym_eigen,
    vr_newton,
    vr_solve,
)
from dsmsolve.linalg import ToeplitzOperator
from dsmsolve.problems import heat_instance, heat_matrix


def random_operator(seed, m, n):
    return np.random.default_rng(seed).standard_normal((m, n))


def test_rejects_nonpositive_damping():
    A = np.eye(3)
    for a in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            Preconditioner(A, a)


@pytest.mark.parametrize("a", [np.nan, np.inf, -1.0, -0.5, 0.0])
def test_rejects_nonfinite_or_negative_damping_as_such(a):
    A = np.eye(3)
    f = np.ones(3)
    for build in (Preconditioner, build_preconditioner,
                  lambda A, a: vr_solve(A, f, a), lambda A, a: phi(A, f, a),
                  lambda A, a: DenseOperator(A).damped_solve(a, f)):
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
    assert P.op.shape == (5, 3)
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


def test_assembled_operators_are_their_column_products():
    """assemble_t and assemble_q, built from one damped solve per column of
    A, are column by column the T e_j and Q e_j that apply_t and apply_q
    give, within 1e-13 of ||T|| (symmetrizing moves them by roundoff; these
    40 draws reach 3.6e-14), on tall, wide and square A of order 2 to 20."""
    rng = np.random.default_rng(77)
    for _ in range(40):
        m, n = rng.integers(2, 21, size=2)
        P = Preconditioner(rng.standard_normal((m, n)), float(rng.uniform(0.05, 1.0)))
        for assembled, apply in ((P.assemble_t(), P.apply_t), (P.assemble_q(), P.apply_q)):
            k = assembled.shape[0]
            assert assembled.shape == (k, k)
            for j, e in enumerate(np.eye(k)):
                assert np.linalg.norm(assembled[:, j] - apply(e)) <= 1e-13 * P.t_norm


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


def _outcome(call):
    """The result of call() with arrays as raw bytes, or the error it raises.

    A solver result is compared by its solution, residual history and stop
    reason.
    """
    try:
        value = call()
    except ValueError as exc:
        return ("ValueError", str(exc))
    if isinstance(value, SolveResult):
        value = (value.solution, value.residual_history, value.stop_reason)
    parts = value if isinstance(value, tuple) else (value,)
    return tuple(p.tobytes() if isinstance(p, np.ndarray) else p for p in parts)


def _noisy_data(A, rng):
    """(f, delta): f = A x + 1% noise for a Gaussian x, and delta the noise norm."""
    clean = A @ rng.standard_normal(A.shape[1])
    noise = rng.standard_normal(A.shape[0])
    noise *= 0.01 * np.linalg.norm(clean) / np.linalg.norm(noise)
    return clean + noise, float(np.linalg.norm(noise))


def _assert_shared_operator_gives_the_array_s_bits(A, f, delta, kind):
    """One operator from as_operator, of type kind, shared by every call,
    gives the bits of passing the array. A DenseOperator of an A that
    as_operator makes a ToeplitzOperator is built directly, and shared, and
    gives the bits of a DenseOperator built for each call."""
    fresh = (lambda: A) if type(as_operator(A)) is kind else (lambda: DenseOperator(A))
    a = choose_a(fresh(), f, delta).chosen_a
    landweber = SolveConfig(h=1.0 / op_norm(fresh()) ** 2, max_iter=200)
    op = as_operator(fresh())
    assert type(op) is kind
    n = A.shape[1]

    def flow(A):
        precond = build_preconditioner(A, a)
        T, Q = spectral_t(precond), spectral_q(precond)
        t_delta = find_t_delta(Q, -f, 1.01, delta)
        u = propagate(T, np.zeros(n), precond.apply_p(f), t_delta)
        return T.eigenvalues, T.eigenvectors, Q.eigenvalues, Q.eigenvectors, t_delta, u

    for call in (
        lambda A: choose_a(A, f, delta),
        lambda A: phi(A, f, a),
        lambda A: vr_solve(A, f, a),
        lambda A: vr_newton(A, f, delta),
        lambda A: build_preconditioner(A, a).apply_p(f),
        lambda A: solve_dsm(A, f, delta, build_preconditioner(A, a)),
        lambda A: solve_dsm(A, f, delta, build_preconditioner(A, a), SolveConfig(h=2.5)),
        lambda A: landweber_solve(A, f, delta, landweber),
        flow,
    ):
        assert _outcome(lambda: call(op)) == _outcome(lambda: call(fresh()))


@given(
    shape=st.sampled_from(("tall", "wide", "rank_deficient", "lower_toeplitz", "upper_toeplitz")),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
)
def test_operator_and_array_give_the_same_bits(shape, seed, scale):
    """One operator from as_operator, shared by every call, gives the bits of
    passing the array; an 8 x 8 triangular Toeplitz A shares a
    ToeplitzOperator, and a DenseOperator built directly on it gives the
    bits of one built for each call."""
    rng = np.random.default_rng(seed)
    m, n = {"tall": (9, 5), "wide": (5, 9)}.get(shape, (8, 8))
    if shape == "rank_deficient":
        A = rng.standard_normal((m, 3)) @ rng.standard_normal((3, n))
    elif shape.endswith("toeplitz"):
        A = scipy.linalg.toeplitz(rng.standard_normal(n), np.zeros(n))
        if shape == "upper_toeplitz":
            A = np.ascontiguousarray(A.T)
    else:
        A = rng.standard_normal((m, n))
    A *= scale
    f, delta = _noisy_data(A, rng)
    if shape.endswith("toeplitz"):
        _assert_shared_operator_gives_the_array_s_bits(A, f, delta, ToeplitzOperator)
    _assert_shared_operator_gives_the_array_s_bits(A, f, delta, DenseOperator)


@pytest.mark.parametrize("lower", (True, False))
def test_toeplitz_operator_and_array_give_the_same_bits(lower):
    """A lower- or upper-triangular Toeplitz A of order 512 shares a
    ToeplitzOperator, which gives the bits of passing the array over the
    same calls."""
    rng = np.random.default_rng(512)
    n = 512
    A = scipy.linalg.toeplitz(rng.standard_normal(n) * np.exp(-np.arange(n) / 40), np.zeros(n))
    if not lower:
        A = np.ascontiguousarray(A.T)
    _assert_shared_operator_gives_the_array_s_bits(A, *_noisy_data(A, rng), ToeplitzOperator)


def count_factorizations(monkeypatch) -> list:
    """The factorizations of A A^T + a I made from here on, by LAPACK's
    Cholesky or by the Schur algorithm for a triangular Toeplitz A, in order,
    each as (a, factor)."""
    factored = []
    for name in ("_cholesky", "_toeplitz_cholesky"):
        def counting(*args, real=getattr(linalg, name)):
            factor = real(*args)
            factored.append((inspect.signature(real).bind(*args).arguments["shift"], factor))
            return factor

        monkeypatch.setattr(linalg, name, counting)
    return factored


def test_newton_factors_only_for_the_final_solve(monkeypatch):
    """vr_newton takes every misfit from one spectrum, and u on the same
    one, so it factors nothing, however many bracket probes and Newton
    steps ran: on a Golub-Kahan basis, and with the basis capped at 5
    steps, where none settles and the spectrum is A's SVD, which vr_solve
    reads from the operator's entry. (The name is the one the test had when
    the give-up factored A A^T + a I once.)"""
    factored = count_factorizations(monkeypatch)
    for cap in (linalg._GOLUB_KAHAN_MAX_STEPS, 5):
        monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", cap)
        for n, seed in ((30, 0), (60, 3)):
            inst = heat_instance(n, 0.05, seed)
            factored.clear()
            _, _, iterations = vr_newton(inst.A, inst.b_noisy, inst.delta)
            assert iterations > 1
            assert factored == []


def test_one_operator_forms_each_gram_once(formed_grams):
    """On heat n = 30, and on the 45 x 30 stack of it on its first 15 rows,
    each a DenseOperator built directly, every method settles on the
    Golub-Kahan basis the operator keeps, and ||A|| and the Gram range check
    take A only through products and its rows: no call forms a Gram matrix,
    not even the tall A's 45 x 45 one. The first exact call, phi, forms
    A A^T, once, and the exact calls after it reuse it. The
    ToeplitzOperator that as_operator makes of heat n = 30 forms none, phi
    included, as its damped factor is the Schur algorithm's."""
    formed = formed_grams
    inst = heat_instance(30, 0.05, 0)
    tall = np.vstack((inst.A, inst.A[:15]))
    tall_f = np.concatenate((inst.b_noisy, inst.b_noisy[:15]))
    tall_delta = float(np.linalg.norm(tall_f - tall @ inst.u_exact))
    for A, f, delta, make, exact in ((inst.A, inst.b_noisy, inst.delta, DenseOperator, ["A A^T"]),
                                     (tall, tall_f, tall_delta, DenseOperator, ["A A^T"]),
                                     (inst.A, inst.b_noisy, inst.delta, as_operator, [])):
        formed.clear()
        op = make(A)
        assert type(op) is (DenseOperator if exact else ToeplitzOperator)
        a = choose_a(op, f, delta).chosen_a
        solve_dsm(op, f, delta, build_preconditioner(op, a))
        vr_solve(op, f, a)
        vr_newton(op, f, delta)
        landweber_solve(op, f, delta)
        assert formed == []
        phi(op, f, a)
        phi(op, f, 2.0 * a)
        assert formed == exact

        # The CLI's dispatch, every method on one fresh operator, forms none
        # either, nor does the damped iteration's step-size guard (h >= 2
        # reads ||A||).
        formed.clear()
        op = make(A)
        for method in cli.METHODS:
            cli._run_method(method, op, f, delta, SolveConfig(), a)
        with pytest.raises(ValueError, match="step size too large"):
            solve_dsm(op, f, delta, build_preconditioner(op, a), SolveConfig(h=2.5))
        assert formed == []


def test_fft_route_forms_no_left_gram(formed_grams):
    """On heat n = 600, which takes the FFT products, choose_a, the dsm
    preconditioner and its solve, and vr_solve form no Gram matrix: ||A||
    and the damped factor's refinement use FFT products instead. The same
    matrix with one entry moved by one ulp is no longer Toeplitz: its
    methods settle on a basis by gemv, and its ||A|| and Gram range check
    form no Gram matrix either."""
    formed = formed_grams
    inst = heat_instance(600, 0.01, 1)
    nudged = inst.A.copy()
    nudged[599, 599] = np.nextafter(nudged[599, 599], np.inf)
    for A in (inst.A, nudged):
        formed.clear()
        op = as_operator(A)
        a = choose_a(op, inst.b_noisy, inst.delta).chosen_a
        solve_dsm(op, inst.b_noisy, inst.delta, build_preconditioner(op, a))
        vr_solve(op, inst.b_noisy, a)
        assert formed == []


def test_fft_route_newton_forms_no_gram(formed_grams):
    """On heat n = 600 vr_newton takes its misfit spectrum from a Golub-Kahan
    bidiagonalization by FFT products: it forms neither A^T A nor A A^T and
    calls no dsytrd. The same matrix with one entry moved by one ulp is no
    longer Toeplitz: it takes its spectrum from a basis by gemv, so it
    calls no dsytrd either, and forms no Gram matrix, as its ||A|| and Gram
    range check need none."""
    formed = formed_grams
    inst = heat_instance(600, 0.01, 1)
    nudged = inst.A.copy()
    nudged[599, 599] = np.nextafter(nudged[599, 599], np.inf)
    for A in (inst.A, nudged):
        formed.clear()
        with mock.patch.object(scipy.linalg.lapack, "dsytrd", wraps=scipy.linalg.lapack.dsytrd) as dsytrd:
            vr_newton(as_operator(A), inst.b_noisy, inst.delta)
        assert formed == []
        assert dsytrd.call_count == 0


def test_dropped_operator_frees_its_spectrum_route_without_the_collector():
    """The bidiagonalization keeps no reference to the operator: with the
    cyclic collector off, a heat n = 600 operator that vr_newton ran on is
    freed as soon as it is dropped."""
    inst = heat_instance(600, 0.01, 1)
    gc.disable()
    try:
        op = as_operator(inst.A)
        vr_newton(op, inst.b_noisy, inst.delta)
        assert isinstance(op, ToeplitzOperator) and "gram_right" not in vars(op)
        ref = weakref.ref(op)
        del op
        assert ref() is None
    finally:
        gc.enable()


def test_basis_routes_keep_no_reference_to_the_operator():
    """choose_a, vr_solve and solve_dsm on a heat n = 600 ToeplitzOperator
    take their Golub-Kahan basis from the structure's entry, which holds no
    operator: with the cyclic collector off, no basis, closure or factor
    keeps the operator alive once it and its preconditioner are dropped,
    and the preconditioner, never applied, has factored nothing."""
    inst = heat_instance(600, 0.01, 1)
    f, delta = inst.b_noisy, inst.delta
    gc.disable()
    try:
        op = as_operator(inst.A)
        a = choose_a(op, f, delta).chosen_a
        vr_solve(op, f, a)
        precond = build_preconditioner(op, a)
        for config in (SolveConfig(), SolveConfig(h=0.1, stopping="apriori")):
            solve_dsm(op, f, delta, precond, config)
        assert isinstance(op, ToeplitzOperator) and op._damped is None
        ref = weakref.ref(op)
        del op, precond
        assert ref() is None
    finally:
        gc.enable()


def test_dropped_operator_frees_its_factor_without_the_collector():
    """The damped factor, which the operator keeps, refers to the FFT
    spectra and not back to the operator: with the cyclic collector off, a
    dropped heat n = 600 operator and its factor are freed at once, not
    left holding their n x n arrays until a collection."""
    gc.disable()
    try:
        op = as_operator(heat_matrix(600))
        assert isinstance(op, ToeplitzOperator)
        factor = op._factor_shifted(1e-3 * op.norm**2)
        refs = (weakref.ref(op), weakref.ref(factor))
        del op, factor
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [100, 600])
def test_preconditioner_factors_on_its_first_apply(monkeypatch, n):
    """build_preconditioner only checks a: the operator's _factor runs at the
    first apply_p, once, and the applies after it reuse the factor, on a
    DenseOperator (n = 100) and on a ToeplitzOperator (n = 600). An a that
    is not positive and finite is still rejected at construction."""
    inst = heat_instance(n, 0.01, 1)
    op = as_operator(inst.A)
    factored = []
    real = type(op)._factor

    def counting(self, a):
        factored.append(a)
        return real(self, a)

    monkeypatch.setattr(type(op), "_factor", counting)
    precond = build_preconditioner(op, 1e-3)
    assert factored == []
    first = precond.apply_p(inst.b_noisy)
    assert factored == [1e-3]
    assert np.array_equal(precond.apply_p(inst.b_noisy), first)
    assert factored == [1e-3]
    for a in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="damping parameter must be positive and finite"):
            build_preconditioner(op, a)
    assert factored == [1e-3]


def test_t_norm_reads_the_shared_operator(formed_grams):
    """A preconditioner's t_norm comes from the ||A|| of the operator it was
    built from, by products with A and A^T: no A A^T, and the value of a
    fresh operator's."""
    formed = formed_grams
    inst = heat_instance(30, 0.05, 0)
    a = 1e-3
    for A in (as_operator(inst.A), inst.A):
        formed.clear()
        t_norm = build_preconditioner(A, a).t_norm
        assert formed == []
        s2 = as_operator(inst.A).norm ** 2
        assert t_norm == s2 / (s2 + a)


def test_shared_operator_factors_once_per_damping(monkeypatch):
    """On heat n = 100 every method takes its filter on the one Golub-Kahan
    basis the operator keeps, so none factors and none takes A's SVD. With
    the basis capped at 5 steps, where every method gives up to A's SVD,
    none factors either, and the operator takes the SVD once for all of
    them. That holds for a DenseOperator built directly and for the
    ToeplitzOperator that as_operator makes, from a cold structure entry.
    (The name is the one the test had when each give-up factored
    A A^T + a I.)"""
    factored = count_factorizations(monkeypatch)
    inst = heat_instance(100, 0.01, 1)
    real_svd = np.linalg.svd
    for cap in (linalg._GOLUB_KAHAN_MAX_STEPS, 5):
        monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", cap)
        for make, kind in ((DenseOperator, DenseOperator), (as_operator, ToeplitzOperator)):
            monkeypatch.setattr(linalg, "_last_structure", None)
            factored.clear()
            op = make(inst.A)
            assert type(op) is kind
            with mock.patch.object(np.linalg, "svd", wraps=real_svd) as svd:
                trace = choose_a(op, inst.b_noisy, inst.delta)
                for method in cli.METHODS:
                    cli._run_method(method, op, inst.b_noisy, inst.delta, SolveConfig(), trace.chosen_a)
            assert trace.evaluations == 1
            assert factored == []
            svds_of_a = [call for call in svd.call_args_list if call.args[0].shape == inst.A.shape]
            assert len(svds_of_a) == (0 if cap > 5 else 1)


def test_two_dampings_share_the_operator_svd_and_keep_their_bits(monkeypatch):
    """Preconditioners at two dampings on one operator take one SVD between
    them, and interleaved applies give the bits of separate operators."""
    inst = heat_instance(40, 0.01, 2)
    op = as_operator(inst.A)
    dampings = (1e-4, 3e-3)
    shared = [build_preconditioner(op, a) for a in dampings]
    fresh = [build_preconditioner(as_operator(inst.A), a) for a in dampings]
    rng = np.random.default_rng(0)
    for _ in range(3):
        r = rng.standard_normal(40)
        for mine, theirs in zip(shared, fresh):
            assert np.array_equal(mine.apply_p(r), theirs.apply_p(r))

    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        spectra = [spectral_t(shared[0]), spectral_q(shared[1])]
    assert svd.call_count == 1
    for spectrum, reference in zip(spectra, (spectral_t(fresh[0]), spectral_q(fresh[1]))):
        assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
        assert np.array_equal(spectrum.eigenvectors, reference.eigenvectors)
