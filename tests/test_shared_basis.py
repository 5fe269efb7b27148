"""Tests for the structure entry that ToeplitzOperator keeps across calls:
||A|| and one Golub-Kahan bidiagonalization per (A, data), replayed and
extended by every call on that data, bit for bit."""

import dataclasses
import gc
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

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
    vr_newton,
    vr_solve,
)
from dsmsolve.linalg import ToeplitzOperator
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
    the calls that take a basis there: on that system the damping search
    and the root fail on the exact route, and the discrepancy stop takes
    thousands of exact steps."""
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


def test_an_exhausted_basis_replays_its_end():
    """A Krylov space exhausted at the first step is remembered: on A = I,
    applied exactly, from f = ones(1024), whose unit vector has norm 1
    exactly, beta is 0 at step 1, and a second call takes no step and gives
    the first call's bits by the exact route."""
    op = as_operator(np.eye(1024))
    op.matvec = op.rmatvec = lambda x: x.copy()
    f = np.ones(1024)
    first = vr_solve(op, f, 0.5)
    basis = linalg._last_structure.basis
    assert basis.exhausted and basis.steps == 0
    assert np.array_equal(vr_solve(op, f, 0.5), first)
    assert linalg._last_structure.basis is basis
