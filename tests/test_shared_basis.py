"""Tests for the entry that keeps ||A||, A's SVD and one Golub-Kahan
bidiagonalization per (A, data) across calls, replayed and extended by every
call on that data, bit for bit: one module-level entry per triangular
Toeplitz structure for ToeplitzOperator, and each DenseOperator's own."""

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest

from dsmsolve import (
    SolveConfig,
    as_operator,
    build_preconditioner,
    choose_a,
    landweber_solve,
    linalg,
    solve_dsm,
    spectral_q,
    spectral_t,
    vr_newton,
    vr_solve,
)
from dsmsolve.linalg import DenseOperator, ToeplitzOperator
from dsmsolve.problems import heat_instance, volterra_instance

FAMILIES = {"heat": heat_instance, "volterra": volterra_instance}


def _bits(x):
    """x with every float replaced by its exact bits, comparable by ==."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x).__name__, _bits(dataclasses.astuple(x))
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    if isinstance(x, float):
        return x.hex()
    return x


def _outcome(call):
    """The bits of call(), or the message of the ValueError it raised."""
    try:
        return _bits(call())
    except ValueError as exc:
        return "ValueError", str(exc)


def _calls(A, f, delta, a):
    """Every call that takes a filter on a basis, on the array A, so each
    builds its own operator: name -> thunk."""
    u0 = np.linspace(-1.0, 1.0, A.shape[1]) * 1e-2
    calls = {
        "choose_a": lambda: choose_a(A, f, delta),
        "vr_solve": lambda: vr_solve(A, f, a),
        "landweber_solve": lambda: landweber_solve(A, f, delta),
        "vr_newton": lambda: vr_newton(A, f, delta),
    }
    for stopping in ("discrepancy", "apriori"):
        for name, start in (("zero", None), ("u0", u0)):
            calls[f"solve_dsm-{stopping}-{name}"] = (
                lambda stopping=stopping, start=start:
                solve_dsm(A, f, delta, build_preconditioner(A, a), SolveConfig(stopping=stopping), u0=start))
    return calls


MISMATCHED_CALLS = ("vr_solve", "landweber_solve", "solve_dsm-apriori-zero", "solve_dsm-apriori-u0")


@pytest.mark.parametrize("n", [600, 1000])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_results_do_not_depend_on_what_ran_before(family, n):
    """On heat and Volterra data at 5%, 1% and 0.1% noise, with A = L lower
    triangular and A = L^T upper, each of choose_a, vr_solve, solve_dsm
    (both stopping rules, from zero and from u0 != 0), landweber_solve and
    vr_newton gives the same bits with no entry kept as after all the
    others, run in a shuffled order. L^T runs on f_delta reversed, its own
    system's data, and, so that L and L^T share data, on f_delta itself for
    the calls that take a basis there; every call here settles on a
    Golub-Kahan basis, with no give-up to A's SVD."""
    rng = np.random.default_rng([n, len(family)])
    for delta_rel in (0.05, 0.01, 0.001):
        inst = FAMILIES[family](n, delta_rel, 5)
        L, f, delta = inst.A, inst.b_noisy, inst.delta
        upper = np.ascontiguousarray(L.T)
        a = choose_a(L, f, delta).chosen_a
        # L^T = J L J for the reversal J, so J f is the upper system's data.
        systems = {"lower": (L, f), "upper": (upper, f[::-1].copy()), "upper-f": (upper, f)}
        calls = {}
        for system, (A, data) in systems.items():
            assert isinstance(as_operator(A), ToeplitzOperator)
            calls.update({(system, name): call for name, call in _calls(A, data, delta, a).items()
                          if system != "upper-f" or name in MISMATCHED_CALLS})
        cold = {}
        for key, call in calls.items():
            linalg._last_structure = None
            cold[key] = _outcome(call)
        linalg._last_structure = None
        for index in rng.permutation(len(calls)):
            key = list(calls)[index]
            assert _outcome(calls[key]) == cold[key], (delta_rel, key)


def test_the_entry_holds_no_operator_and_one_basis(monkeypatch):
    """With the cyclic collector off: once the caller drops them, an
    operator and its A are freed while the entry stays filled; a call on
    new data frees the previous bidiagonalization before the new one is
    allocated; and a call on another A frees the entry itself."""
    inst = heat_instance(600, 0.01, 1)
    f, delta = inst.b_noisy, inst.delta
    other = heat_instance(600, 0.01, 2)
    assert np.array_equal(other.A, inst.A)
    built = []
    init = linalg._Bidiagonalization.__init__

    def recording(self, *args):
        built.append([ref() for ref in previous])
        init(self, *args)

    gc.disable()
    try:
        A = inst.A.copy()
        op = as_operator(A)
        choose_a(op, f, delta)
        vr_newton(op, f, delta)
        entry = linalg._last_structure
        assert entry is not None and entry.norm is not None and entry.basis.steps > 0
        previous = [weakref.ref(entry.basis)]
        refs = [weakref.ref(op), weakref.ref(A)]
        del op, A
        assert [ref() for ref in refs] == [None, None]
        assert linalg._last_structure is entry and previous[0]() is not None

        monkeypatch.setattr(linalg._Bidiagonalization, "__init__", recording)
        vr_solve(inst.A, other.b_noisy, 1e-3)
        assert built == [[None]]
        assert linalg._last_structure is entry and entry.start == other.b_noisy.tobytes()

        previous = [weakref.ref(entry), weakref.ref(entry.basis)]
        del entry
        vr_solve(2.0 * inst.A, f, 1e-3)
        assert built[-1] == [None, None]
    finally:
        gc.enable()


def test_a_dense_entry_holds_no_operator_and_one_basis(monkeypatch):
    """A DenseOperator's own entry, with the cyclic collector off: once the
    caller drops it, the operator frees its A, its entry and its
    bidiagonalization; and a call on new data frees the previous
    bidiagonalization before the new one is allocated."""
    inst = heat_instance(100, 0.01, 1)
    f, delta = inst.b_noisy, inst.delta
    other = heat_instance(100, 0.01, 2)
    built = []
    init = linalg._Bidiagonalization.__init__

    def recording(self, *args):
        built.append([ref() for ref in previous])
        init(self, *args)

    gc.disable()
    try:
        A = inst.A.copy()
        op = DenseOperator(A)
        choose_a(op, f, delta)
        vr_newton(op, f, delta)
        entry = op._entry()
        assert entry.key is None and entry.norm is not None and entry.basis.steps > 0
        assert linalg._last_structure is None
        refs = [weakref.ref(op), weakref.ref(A), weakref.ref(entry), weakref.ref(entry.basis)]
        del op, A, entry
        assert [ref() for ref in refs] == [None] * 4

        op = DenseOperator(inst.A)
        vr_solve(op, f, 1e-3)
        previous = [weakref.ref(op._entry().basis)]
        monkeypatch.setattr(linalg._Bidiagonalization, "__init__", recording)
        vr_solve(op, other.b_noisy, 1e-3)
        assert built == [[None]]
        assert op._entry().start == other.b_noisy.tobytes()
    finally:
        gc.enable()


def test_threads_sharing_the_entry_give_the_serial_bits():
    """Two threads that call vr_newton and choose_a on the same (A, f_delta),
    and on two f_delta in turn, so that one call extends a basis another
    replays and one replaces the basis another is still using: every result
    is bit-equal to the serial one on a cold entry. The interpreter's
    switch interval is cut to 10 us, so that the threads interleave often."""
    first, second = heat_instance(1000, 0.01, 1), heat_instance(1000, 0.01, 2)
    jobs = [(method, data) for data in (first, first, second, first, second, second)
            for method in (vr_newton, choose_a)]

    def run(job):
        method, inst = job
        return _outcome(lambda: method(inst.A, inst.b_noisy, inst.delta))

    serial = []
    for job in jobs:
        linalg._last_structure = None
        serial.append(run(job))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            linalg._last_structure = None
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(run, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_a_dense_operator_give_the_serial_bits():
    """As above, on one DenseOperator shared by both threads, whose own
    entry keeps the basis (heat n = 400 at 1% noise): every result is
    bit-equal to the serial one on a fresh operator."""
    first, second = heat_instance(400, 0.01, 1), heat_instance(400, 0.01, 2)
    jobs = [(method, data) for data in (first, first, second, first, second, second)
            for method in (vr_newton, choose_a)]
    serial = [_outcome(lambda: method(DenseOperator(inst.A), inst.b_noisy, inst.delta)) for method, inst in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            op = DenseOperator(first.A)

            def run(job):
                method, inst = job
                return _outcome(lambda: method(op, inst.b_noisy, inst.delta))

            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(run, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_an_exhausted_basis_replays_its_end():
    """A Krylov space exhausted at the first step is remembered, and its
    basis is complete: on A = I, applied exactly, from f = ones(1024),
    whose unit vector has norm 1 exactly, beta is 0 at step 1, so the
    basis keeps that step, B_1 = (1, 0), and vr_solve accepts it, with
    u = f / (1 + a); a second call takes no step and gives the first
    call's bits."""
    op = as_operator(np.eye(1024))
    op.matvec = op.rmatvec = lambda x: x.copy()
    f = np.ones(1024)
    with mock.patch.object(linalg, "_cholesky") as cholesky, \
            mock.patch.object(linalg, "_toeplitz_cholesky") as schur:
        first = vr_solve(op, f, 0.5)
        basis = linalg._last_structure.basis
        assert basis.exhausted and basis.steps == 1
        assert np.array_equal(basis.B[:2, :1], [[1.0], [0.0]])
        assert np.allclose(first, f / 1.5, rtol=1e-15, atol=0.0)
        assert np.array_equal(vr_solve(op, f, 0.5), first)
    assert cholesky.call_count == schur.call_count == 0
    assert linalg._last_structure.basis is basis and basis.steps == 1


def test_each_projected_svd_is_taken_once_per_basis():
    """The SVD of each B_k is taken by the first call that reaches k and is
    kept, read-only, with the basis: on heat n = 1000 at 1% noise vr_newton
    takes one SVD per 5 steps of the basis, and a second vr_newton on the
    same data, which replays them, takes none and gives the first one's
    bits."""
    inst = heat_instance(1000, 0.01, 1)
    op = as_operator(inst.A)
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        first = vr_newton(op, inst.b_noisy, inst.delta)
        basis = linalg._last_structure.basis
        assert svd.call_count == basis.steps // 5 > 0
        second = vr_newton(op, inst.b_noisy, inst.delta)
        assert svd.call_count == basis.steps // 5
    assert _bits(second) == _bits(first)
    for factors in basis._svds:
        assert not any(factor.flags.writeable for factor in factors)


def test_one_structure_takes_one_svd_kept_without_an_operator(monkeypatch):
    """With the step cap at 5, where every method gives up to A's SVD: two
    ToeplitzOperators of one structure, the give-ups of choose_a and
    vr_solve on one and of vr_newton and landweber_solve and the flow's
    spectra on the other, take one SVD of A between them, kept in the
    structure's entry. With the cyclic collector off, the operators and
    their A are freed once dropped while the entry keeps the SVD, and a call
    on another structure frees it."""
    monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", 5)
    shapes = []

    def recording(M, *args, real=np.linalg.svd, **kwargs):
        shapes.append(M.shape)
        return real(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    inst = heat_instance(200, 0.01, 1)
    f, delta = inst.b_noisy, inst.delta
    gc.disable()
    try:
        A, B = inst.A.copy(), inst.A.copy()
        first, second = as_operator(A), as_operator(B)
        assert type(first) is type(second) is ToeplitzOperator
        a = choose_a(first, f, delta).chosen_a
        vr_solve(first, f, a)
        vr_newton(second, f, delta)
        landweber_solve(second, f, delta)
        precond = build_preconditioner(second, a)
        spectral_t(precond), spectral_q(precond)
        assert shapes.count(A.shape) == 1
        entry = linalg._last_structure
        kept = [weakref.ref(factor) for factor in entry.svd]
        refs = [weakref.ref(x) for x in (first, second, A, B, precond)]
        del first, second, A, B, precond
        assert [ref() for ref in refs] == [None] * 5
        assert all(ref() is not None for ref in kept)
        del entry
        vr_solve(2.0 * inst.A, f, 1e-3)
        assert [ref() for ref in kept] == [None] * 3
    finally:
        gc.enable()


def test_threads_sharing_the_svd_give_the_serial_bits(monkeypatch):
    """With the step cap at 5, where every call gives up to the structure's
    SVD, two threads that call vr_newton, choose_a and landweber_solve on
    heat n = 200 at two noise draws, and so both find the SVD missing at
    first and fill the entry outside the lock: every result is bit-equal
    to the serial one on a cold entry."""
    monkeypatch.setattr(linalg, "_GOLUB_KAHAN_MAX_STEPS", 5)
    first, second = heat_instance(200, 0.01, 1), heat_instance(200, 0.01, 2)
    jobs = [(method, data) for data in (first, second, first, second)
            for method in (vr_newton, choose_a, landweber_solve)]

    def run(job):
        method, inst = job
        return _outcome(lambda: method(inst.A, inst.b_noisy, inst.delta))

    serial = []
    for job in jobs:
        linalg._last_structure = None
        serial.append(run(job))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            linalg._last_structure = None
            with ThreadPoolExecutor(max_workers=2) as pool:
                assert list(pool.map(run, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)
