"""Selection of the damping parameter from the noise level.

Every function here takes A as an array or as an operator from
linalg.as_operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_check_damping, _check_max_iter, _check_solution_bound, _eigen_coefficients, _norm,
                     _settled_on_basis, as_operator)

MAX_EVALUATIONS = 100


@dataclass(frozen=True)
class ParamStep:
    """One trial during parameter selection: damping tried, misfit, ratio to delta."""

    a: float
    phi: float
    ratio: float
    action: str  # accept | shrink | triple | fallback_triple


@dataclass(frozen=True)
class ParamTrace:
    """Full record of a parameter search, ending at chosen_a."""

    chosen_a: float
    phi_at_chosen: float
    steps: tuple[ParamStep, ...]

    @property
    def evaluations(self) -> int:
        return len(self.steps)


def start_damping(delta: float, norm_a: float, norm_f: float) -> float:
    """Untuned damping delta ||A||^2 / (3 ||f_delta||), where choose_a starts."""
    return delta * norm_a**2 / (3.0 * norm_f)


def _vectors_agree(new: np.ndarray, old: np.ndarray) -> bool:
    """Whether the vector new is within 1e-12 of old, relative to ||new||."""
    return _norm(new - old) <= 1e-12 * _norm(new)


def vr_solve(A, f_delta, a: float) -> np.ndarray:
    """Damped least-squares solution A^T (A A^T + a I)^{-1} f_delta, which
    equals (A^T A + a I)^{-1} A^T f_delta.

    It is taken on a Golub-Kahan basis started at f_delta (see
    solvers.landweber_solve): with B_k = P diag(s) Q^T and
    g = ||f_delta|| P^T e_1, it is V_k Q diag(s / (s^2 + a)) g_{1..k}, and the
    first k whose solution is within 1e-12 relative of the one on B_{k-5} is
    accepted. With none accepted by 60 steps, and for zero data, it is one
    damped solve of the factored A A^T + a I. Either way a must be positive
    and finite, and ||f_delta|| / a finite."""
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if f_delta.any():
        _check_damping(a)
        op._check_gram_range()  # the exact route's error order: a, then A A^T, then ||f|| / a
        _check_solution_bound(_norm(f_delta), a)

        def solve(s, g, V, Qt):
            return V.T @ (Qt.T @ (s / (s * s + a) * g[: s.shape[0]]))

        u = _settled_on_basis(op, f_delta, solve, _vectors_agree)
        if u is not None:
            return u
    return op.rmatvec(op.damped_solve(a, f_delta))


def phi(A, f_delta, a: float) -> float:
    """Data misfit ||A u_a - f_delta|| of u_a = vr_solve(A, f_delta, a),
    increasing in a; taken as a ||z|| for z = (A A^T + a I)^{-1} f_delta, as
    A u_a - f_delta = -a z, so no two nearly equal vectors are subtracted.
    Always exact: one damped solve of the factored A A^T + a I."""
    op = as_operator(A)
    z = op.damped_solve(a, op.check_data(f_delta))
    return float(a) * _norm(z)


def _search(misfit, a: float, delta: float) -> ParamTrace:
    """choose_a's search from a, on the misfit callable a -> phi(a)."""
    undershot_before = False
    steps: list[ParamStep] = []
    for _ in range(MAX_EVALUATIONS):
        value = misfit(a)
        c = value / delta
        if delta <= value <= 2.0 * delta:
            steps.append(ParamStep(a, value, c, "accept"))
            return ParamTrace(a, value, tuple(steps))
        if c > 2.0:
            steps.append(ParamStep(a, value, c, "shrink"))
            a = a / (2.0 * (c - 1.0))
        else:
            if undershot_before:
                steps.append(ParamStep(a, value, c, "fallback_triple"))
                chosen = 3.0 * a
                return ParamTrace(chosen, misfit(chosen), tuple(steps))
            steps.append(ParamStep(a, value, c, "triple"))
            undershot_before = True
            a = 3.0 * a
    raise ValueError(f"no damping parameter found within {MAX_EVALUATIONS} misfit evaluations")


def _projected_misfit(s: np.ndarray, g: np.ndarray):
    """a -> phi(a) on B_k = P diag(s) Q^T with g = ||f_delta|| P^T e_1:
    a ||g / (lam + a)|| for lam = (s^2, 0), by dnrm2, after damped_solve's
    checks on a and on ||g|| / a, so that nothing overflows."""
    lam = np.append(s * s, 0.0)
    norm_g = _norm(g)

    def misfit(a: float) -> float:
        _check_damping(a)
        _check_solution_bound(norm_g, a)
        return float(a) * _norm(g / (lam + a))

    return misfit


def _traces_agree(new: ParamTrace, old: ParamTrace) -> bool:
    """Same actions, and every a and misfit within 1e-12 relative."""
    if [step.action for step in new.steps] != [step.action for step in old.steps]:
        return False
    new_values, old_values = (np.array([(t.chosen_a, t.phi_at_chosen)] + [(step.a, step.phi) for step in t.steps])
                              for t in (new, old))
    return bool(np.all(np.abs(new_values - old_values) <= 1e-12 * np.abs(new_values)))


def choose_a(A, f_delta, delta: float) -> ParamTrace:
    """Pick a damping parameter whose misfit lands in [delta, 2 delta].

    Starting from start_damping(delta, ||A||, ||f_delta||), each trial evaluates
    c = phi(a) / delta and then either accepts (1 <= c <= 2), shrinks
    (c > 2, a <- a / (2 (c - 1))) or triples (c < 1, a <- 3 a). A second
    undershoot ends the search with 3 a, recorded as fallback_triple; the
    misfit at that fallback value can sit outside the target band.

    The search runs on a Golub-Kahan basis started at f_delta: on B_k, whose
    misfit is a ||gamma / (lam + a)|| for lam = (s^2, 0) and
    gamma = ||f_delta|| P^T e_1 (B_k = P diag(s) Q^T), once the projected
    floor |gamma_{k+1}| is below delta; a search that raises ValueError
    there counts as not yet. The first k whose trace has the actions of the
    trace on B_{k-5}, with every a and misfit within 1e-12 relative, is
    accepted. With none accepted by 60 steps the search runs on phi.

    Raises ValueError on zero data, a zero operator, or after 100 trials.
    """
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if not 0.0 < delta < math.inf:
        raise ValueError(f"needs a finite delta > 0, got {delta}")
    norm_f = float(np.linalg.norm(f_delta))
    if norm_f == 0.0:
        raise ValueError("data vector is zero; no damping parameter to select")
    if op.norm_squared == 0.0:
        raise ValueError("operator norm is zero; the misfit does not depend on a")

    start = start_damping(delta, op.norm, norm_f)

    def search(s, g, V, Qt):
        return _search(_projected_misfit(s, g), start, delta) if abs(g[-1]) < delta else None

    trace = _settled_on_basis(op, f_delta, search, _traces_agree)
    if trace is not None:
        return trace
    return _search(lambda a: phi(op, f_delta, a), start, delta)


def _discrepancy_root(lam: np.ndarray, gamma: np.ndarray, target: float, s2: float,
                      start: float, max_iter: int) -> tuple[float, int]:
    """(a, iterations): the root of phi(a) = target for the misfit
    phi(a)^2 = sum (a gamma_i / (lam_i + a))^2 of the spectrum (lam, gamma),
    by the bracket and safeguarded Newton search that vr_newton describes,
    from start clamped into the bracket; s2 is ||A||^2. Each probe costs
    O(len(lam)). The one root finder on a misfit spectrum: vr_newton runs
    it on each Golub-Kahan spectrum until the root settles, and once more
    on the spectrum it settled on, or on that of A A^T. Raises ValueError,
    naming the reason, when there is no root or no convergence within
    max_iter Newton steps."""

    def misfit_parts(a: float):
        shifted = lam + a
        z = gamma / shifted
        return a * float(np.linalg.norm(z)), z, shifted

    lo = 1e-16 * s2
    phi_lo, _, _ = misfit_parts(lo)
    if phi_lo >= target:
        raise ValueError(
            f"no root: the misfit floor {phi_lo:.6g} already exceeds C*delta = {target:.6g}"
        )

    hi = s2
    for _ in range(200):
        phi_hi, _, _ = misfit_parts(hi)
        if phi_hi > target:
            break
        lo = hi
        hi *= 2.0
    else:
        raise ValueError("no root: the misfit stays below C*delta for every tried damping")

    a = min(max(start, lo), hi)
    for iteration in range(1, max_iter + 1):
        value, z, shifted = misfit_parts(a)
        if abs(value - target) <= 1e-8 * target:
            return a, iteration
        if value < target:
            lo = a
        else:
            hi = a
        if hi <= np.nextafter(lo, np.inf):
            return a, iteration
        zz = float(z @ z)
        w = z / shifted
        g = a * a * zz - target * target
        g_prime = 2.0 * a * zz - 2.0 * a * a * float(z @ w)
        if g_prime > 0.0:
            candidate = a - g / g_prime
        else:
            candidate = lo  # forces the midpoint fallback
        if not lo < candidate < hi:
            candidate = float(np.sqrt(lo * hi))
        a = candidate
    raise ValueError(f"no convergence within {max_iter} Newton steps")


def vr_newton(A, f_delta, delta: float, C: float = 1.01,
              max_iter: int = 100) -> tuple[float, np.ndarray, int]:
    """Solve phi(a) = C delta for the damping parameter by safeguarded Newton.

    Works on G(a) = phi(a)^2 - (C delta)^2 through the identity
    phi(a) = a ||z||, z = (A A^T + a I)^{-1} f_delta, whose derivative is
    G'(a) = 2 a <z, z> - 2 a^2 <z, (A A^T + a I)^{-1} z>. The search runs on
    a misfit spectrum (lambda, gamma), in which z = gamma / (lambda + a), so
    each bracket probe and Newton step costs O(len(lambda)). Steps that
    leave the current bracket fall back to its geometric midpoint, so
    iterates stay inside the initial bracket.

    The spectrum is taken on a Golub-Kahan basis B_k = P diag(s) Q^T from
    f_delta: lambda = (0, s^2) and gamma = ||f_delta|| P^T e_1, ordered
    alike, the damped misfit restricted to span(V_k), at or above the full
    one. The first k whose root agrees with B_{k-5}'s within 1e-12 relative
    is taken (linalg._settled_on_basis). Otherwise the spectrum is the
    eigenpairs of A A^T, from one tridiagonal reduction. The root is then
    taken once more on it. u_a is vr_solve's, which replays the same basis,
    kept in the operator's entry, and factors nothing unless it falls back.

    Returns (a, u_a, iterations) with |phi(a) - C delta| <= 1e-8 * C delta.
    When C delta sits below the roundoff noise of the misfit itself, that
    band contains no representable point; the search then ends at the last
    bracket point once no interior float is left, which is the root at
    working precision.
    """
    op = as_operator(A)
    f_delta = op.check_data(f_delta)
    if not delta > 0.0:
        raise ValueError("needs delta > 0")
    if not C > 0.0:
        raise ValueError(f"C must be positive, got {C}")
    _check_max_iter(max_iter)
    target = C * delta
    norm_f = float(np.linalg.norm(f_delta))
    if target >= norm_f:
        raise ValueError(
            f"no root: C*delta = {target:.6g} is not below ||f_delta|| = {norm_f:.6g}"
        )
    s2 = op.norm_squared
    if s2 == 0.0:
        raise ValueError("no root: operator is zero, the misfit is constant")
    start = start_damping(delta, op.norm, norm_f)

    def root(lam: np.ndarray, gamma: np.ndarray) -> tuple[float, int]:
        return _discrepancy_root(lam, gamma, target, s2, start, max_iter)

    def settle(s, g, V, Qt):
        lam, gamma = np.concatenate(([0.0], s[::-1] ** 2)), g[::-1]
        return lam, gamma, root(lam, gamma)[0]

    settled = _settled_on_basis(op, f_delta, settle, lambda new, old: abs(new[2] - old[2]) <= 1e-12 * new[2])
    lam, gamma = settled[:2] if settled is not None else _eigen_coefficients(op.gram_right, f_delta)
    a, iterations = root(lam, gamma)
    return a, vr_solve(op, f_delta, a), iterations
