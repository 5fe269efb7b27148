"""Tests for the damped and plain gradient iterations and their stopping rules."""

import math
from unittest import mock

import numpy as np
import pytest

from dsmsolve import (
    DenseOperator,
    Preconditioner,
    SolveConfig,
    apriori_steps,
    as_operator,
    build_preconditioner,
    choose_a,
    dsm_step,
    landweber_solve,
    residuals_nonincreasing,
    solve_dsm,
)
from dsmsolve.linalg import ToeplitzOperator
from dsmsolve.problems import heat_instance


def identity_setup(n=3, a=1.0):
    A = np.eye(n)
    f = np.zeros(n)
    f[0] = 1.0
    return A, f, build_preconditioner(A, a)


def test_config_defaults_are_valid():
    cfg = SolveConfig()
    assert cfg.h == 1.0 and cfg.C == 1.01 and cfg.stopping == "discrepancy"
    assert cfg.max_iter == 10_000


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": 0.0},
        {"h": -1.0},
        {"C": 1.0},
        {"C": 2.0},
        {"C": 0.5},
        {"gamma": 0.0},
        {"gamma": 1.0},
        {"apriori_C": 0.0},
        {"stopping": "never"},
        {"max_iter": 0},
        {"h": float("inf")},
        {"max_iter": 2.5},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolveConfig(**kwargs)


def test_apriori_steps_reference_values():
    assert apriori_steps(0.01, 1.0, 1.0, 0.5) == 10
    assert apriori_steps(0.04, 0.5, 1.0, 0.5) == 10
    assert apriori_steps(1.0, 1.0, 1.0, 0.5) == 1
    assert apriori_steps(0.0001, 1.0, 1.0, 0.5) == 100


def test_apriori_steps_rejects_bad_arguments():
    with pytest.raises(ValueError):
        apriori_steps(0.0, 1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        apriori_steps(0.01, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        apriori_steps(0.01, 1.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        apriori_steps(0.01, 1.0, 1.0, 1.5)
    # SolveConfig refuses an infinite h, and so does the rule itself.
    for h in (np.inf, np.nan):
        with pytest.raises(ValueError, match="^step size h must be positive and finite, got "):
            apriori_steps(0.01, h, 1.0, 0.5)
    # h * delta**gamma underflows to 0, or the budget itself is infinite.
    with pytest.raises(ValueError, match="a-priori step budget"):
        apriori_steps(0.01, 1e-320, 1.0, 0.5)
    with pytest.raises(ValueError, match="a-priori step budget"):
        apriori_steps(0.01, 1.0, float("inf"), 0.5)
    with pytest.raises(ValueError, match="a-priori step budget"):
        apriori_steps(1e-300, 1e-300, 1.0, 0.5)


def test_identity_discrepancy_run_halves_residual():
    """Unit step on the identity with a = 1 halves the residual every step."""
    A, f, precond = identity_setup()
    result = solve_dsm(A, f, 0.01, precond)
    assert result.stop_reason == "discrepancy_met"
    assert result.iterations == 7
    assert len(result.residual_history) == 8
    for k, value in enumerate(result.residual_history):
        assert value == pytest.approx(2.0**-k, rel=1e-12)
    assert np.allclose(result.solution, f * (1.0 - 2.0**-7), rtol=1e-12, atol=1e-15)
    assert result.a_used == 1.0


def test_first_crossing_is_reported():
    A, f, precond = identity_setup()
    result = solve_dsm(A, f, 0.01, precond)
    threshold = 1.01 * 0.01
    assert result.residual_history[result.iterations] <= threshold
    assert result.residual_history[result.iterations - 1] > threshold


def test_initial_guess_already_below_threshold():
    A, f, precond = identity_setup()
    result = solve_dsm(A, f, 0.5, precond, u0=f)
    assert result.stop_reason == "initial_already_small"
    assert result.iterations == 0
    assert len(result.residual_history) == 1


def test_apriori_mode_runs_exactly_the_budget():
    A, f, precond = identity_setup()
    cfg = SolveConfig(h=0.5, stopping="apriori")
    result = solve_dsm(A, f, 0.04, precond, cfg)
    assert result.stop_reason == "apriori_reached"
    assert result.iterations == 10
    assert len(result.residual_history) == 11


def test_apriori_budget_capped_by_max_iter():
    A, f, precond = identity_setup()
    cfg = SolveConfig(stopping="apriori", max_iter=5)
    result = solve_dsm(A, f, 1e-8, precond, cfg)
    assert result.iterations == 5
    assert result.stop_reason == "max_iter"


def test_discrepancy_unreachable_hits_max_iter():
    A = np.diag([1.0, 0.0])
    f = np.array([1.0, 1.0])
    precond = build_preconditioner(A, 0.5)
    cfg = SolveConfig(max_iter=30)
    result = solve_dsm(A, f, 0.1, precond, cfg)
    assert result.stop_reason == "max_iter"
    assert result.iterations == 30
    assert result.residual_history[-1] >= 1.0 - 1e-12


def test_solver_input_validation():
    A, f, precond = identity_setup()
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_dsm(A, np.ones(4), 0.01, precond)
    with pytest.raises(ValueError, match="preconditioner"):
        solve_dsm(np.eye(4), np.ones(4), 0.01, precond)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_dsm(A, f, -0.1, precond)
    with pytest.raises(ValueError, match="delta > 0"):
        solve_dsm(A, f, 0.0, precond)
    with pytest.raises(ValueError, match="initial guess"):
        solve_dsm(A, f, 0.01, precond, u0=np.ones(5))


def test_step_size_guard_for_damped_iteration():
    A, f, precond = identity_setup()  # ||T|| = 0.5
    with pytest.raises(ValueError, match="step size too large"):
        solve_dsm(A, f, 0.01, precond, SolveConfig(h=4.0))
    result = solve_dsm(A, f, 0.01, precond, SolveConfig(h=3.5))
    assert result.stop_reason == "discrepancy_met"
    # Damping so small that ||T|| = 1 / (1 + a) rounds to exactly 1.
    A, f, precond = identity_setup(a=1e-20)
    assert precond.t_norm == 1.0
    with pytest.raises(ValueError, match="step size too large"):
        solve_dsm(A, f, 0.01, precond, SolveConfig(h=2.0))
    result = solve_dsm(A, f, 0.01, precond, SolveConfig(h=1.999))
    assert result.stop_reason == "discrepancy_met"


def test_nan_noise_level_is_rejected_before_iterating():
    A, f, precond = identity_setup()
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        solve_dsm(A, f, float("nan"), precond)
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        landweber_solve(A, f, float("nan"), SolveConfig(h=0.5))


@pytest.mark.parametrize("stopping", ["discrepancy", "apriori"])
def test_infinite_noise_level_is_rejected_by_name(stopping):
    """delta = inf, which the discrepancy rule met at u0 and the a-priori
    rule turned into one step, is an error that names it, as choose_a's is."""
    A, f, precond = identity_setup()
    config = SolveConfig(stopping=stopping)
    with pytest.raises(ValueError, match="^delta must be finite and nonnegative, got inf$"):
        solve_dsm(A, f, math.inf, precond, config)
    with pytest.raises(ValueError, match="^delta must be finite and nonnegative, got inf$"):
        landweber_solve(A, f, math.inf, SolveConfig(h=0.5, stopping=stopping))
    with pytest.raises(ValueError, match="^a-priori rule needs a finite delta > 0, got inf$"):
        apriori_steps(math.inf, 1.0, 1.0, 0.5)


def test_landweber_identity_run():
    A = np.eye(3)
    f = np.array([1.0, 0.0, 0.0])
    result = landweber_solve(A, f, 0.01, SolveConfig(h=0.5))
    assert result.stop_reason == "discrepancy_met"
    assert result.iterations == 7
    for k, value in enumerate(result.residual_history):
        assert value == pytest.approx(2.0**-k, rel=1e-12)
    assert result.a_used is None


def test_landweber_step_size_guard():
    A = np.eye(2)
    f = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="step size too large"):
        landweber_solve(A, f, 0.01, SolveConfig(h=2.0))
    with pytest.raises(ValueError, match=r">= 2; use h < 2/\|\|A\|\|\^2 = 0\.5$"):
        landweber_solve(2.0 * A, f, 0.01)
    with pytest.raises(ValueError, match="dimension mismatch"):
        landweber_solve(A, np.ones(3), 0.01)


def gradient_reference(op, f, delta, config):
    """The plain gradient iteration in its iterate form, u <- u - h A^T r,
    with r = A u - f_delta taken directly after every step; discrepancy
    stopping from u = 0. Returns (u, steps, history, stop_reason)."""
    u = np.zeros(op.shape[1])
    r = op.matvec(u) - f
    history = [float(np.linalg.norm(r))]
    for n in range(1, config.max_iter + 1):
        u = u - config.h * op.rmatvec(r)
        r = op.matvec(u) - f
        history.append(float(np.linalg.norm(r)))
        if history[-1] <= config.C * delta:
            return u, n, history, "discrepancy_met"
    return u, config.max_iter, history, "max_iter"


@pytest.mark.parametrize("n, delta_rel, max_iter", [
    *((n, delta_rel, 10_000) for n in (100, 400, 600) for delta_rel in (0.05, 0.01)),
    *((n, 0.001, 3000) for n in (100, 400, 600)),
])
def test_landweber_recurrence_matches_the_iterate_form(n, delta_rel, max_iter):
    """landweber_solve advances the residual by r <- r - h A A^T r and forms
    u once at the end; against the iterate form on heat data (dense below
    n = 512, FFT products at 600) it takes the same steps and stops for the
    same reason, its solution and every history entry agree within 1e-12
    relative, and so does ||A u - f_delta|| of its solution, taken directly,
    with its last history entry."""
    inst = heat_instance(n, delta_rel, 104729)
    f, delta = inst.b_noisy, inst.delta
    op = as_operator(inst.A)
    assert (type(op) is ToeplitzOperator) == (n >= 512)
    config = SolveConfig(max_iter=max_iter)
    result = landweber_solve(op, f, delta, config)
    u, steps, history, reason = gradient_reference(op, f, delta, config)
    assert (result.iterations, result.stop_reason) == (steps, reason)
    assert np.linalg.norm(result.solution - u) <= 1e-12 * np.linalg.norm(u)
    assert len(result.residual_history) == len(history)
    for value, expected in zip(result.residual_history, history):
        assert abs(value - expected) <= 1e-12 * expected
    direct = float(np.linalg.norm(inst.A @ result.solution - f))
    assert abs(direct - result.residual_history[-1]) <= 1e-12 * direct


@pytest.mark.parametrize("n", [100, 600])
def test_landweber_applies_a_and_its_transpose_once(n, formed_grams):
    """Whatever the step count, one landweber_solve makes one product with A
    (the initial residual) and one with A^T (the solution); every step is a
    product with A A^T, which a DenseOperator forms once as a Gram triangle
    and a ToeplitzOperator never forms."""
    inst = heat_instance(n, 0.01, 1)
    op = as_operator(inst.A)
    with mock.patch.object(op, "matvec", wraps=op.matvec) as matvec, \
            mock.patch.object(op, "rmatvec", wraps=op.rmatvec) as rmatvec:
        result = landweber_solve(op, inst.b_noisy, inst.delta)
    assert result.stop_reason == "discrepancy_met" and result.iterations > 100
    assert matvec.call_count == rmatvec.call_count == 1
    if n < 512:
        assert type(op) is DenseOperator and formed_grams.count("A A^T") == 1
    else:
        assert type(op) is ToeplitzOperator and formed_grams == []


def test_dsm_step_is_one_damped_update():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((6, 4))
    f = rng.standard_normal(6)
    u = rng.standard_normal(4)
    precond = build_preconditioner(A, 0.2)
    expected = u - 0.8 * precond.apply_p(A @ u - f)
    assert np.allclose(dsm_step(precond, 0.8, u, f), expected, rtol=0, atol=0)
    with pytest.raises(ValueError, match="dimension mismatch: u has length 3"):
        dsm_step(precond, 0.8, u[:3], f)
    with pytest.raises(ValueError, match="dimension mismatch: data has length 5"):
        dsm_step(precond, 0.8, u, f[:5])

    # A discrepancy run of solve_dsm is a hand loop of dsm_step, bit for bit.
    inst = heat_instance(40, 0.01, 3)
    precond = build_preconditioner(inst.A, 1e-4)
    config = SolveConfig(h=0.5)
    result = solve_dsm(inst.A, inst.b_noisy, inst.delta, precond, config)
    assert result.stop_reason == "discrepancy_met" and result.iterations > 3
    u = np.zeros(inst.n)
    history = [float(np.linalg.norm(inst.A @ u - inst.b_noisy))]
    for _ in range(result.iterations):
        u = dsm_step(precond, config.h, u, inst.b_noisy)
        history.append(float(np.linalg.norm(inst.A @ u - inst.b_noisy)))
    assert np.array_equal(result.solution, u)
    assert result.residual_history == history


def test_residual_histories_never_increase():
    """Monotone residuals on random rectangular systems, both solvers, both modes."""
    for seed in range(25):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(3, 12, size=2)
        A = rng.standard_normal((m, n))
        f = rng.standard_normal(m)
        delta = 0.05 * float(np.linalg.norm(f))
        a = float(rng.uniform(1e-3, 1.0))
        cfg = SolveConfig(max_iter=200)
        result = solve_dsm(A, f, delta, build_preconditioner(A, a), cfg)
        assert residuals_nonincreasing(result.residual_history), f"seed {seed}"
        h = float(1.5 / op_norm_squared(A))
        lw = landweber_solve(A, f, delta, SolveConfig(h=h, max_iter=200))
        assert residuals_nonincreasing(lw.residual_history), f"seed {seed} landweber"
        ap = solve_dsm(A, f, delta, build_preconditioner(A, a),
                       SolveConfig(stopping="apriori", apriori_C=2.0))
        assert residuals_nonincreasing(ap.residual_history), f"seed {seed} apriori"


def op_norm_squared(A):
    return float(np.linalg.svd(A, compute_uv=False)[0] ** 2)


def test_monotone_on_noisy_heat_instances():
    for seed in range(5):
        inst = heat_instance(20, 0.05, seed)
        precond = build_preconditioner(inst.A, 1e-3)
        result = solve_dsm(inst.A, inst.b_noisy, inst.delta, precond)
        assert residuals_nonincreasing(result.residual_history)
        assert result.stop_reason == "discrepancy_met"


@pytest.mark.parametrize("delta_rel", [0.05, 0.01, 0.001])
def test_monotone_on_the_structured_route(delta_rel):
    """Criterion 02 on heat n = 600, a ToeplitzOperator whose damped solves
    refine against FFT products: at choose_a's damping, the damped iteration
    at h = 1 with discrepancy stopping and at h = 0.1 with the a-priori rule
    never raises the residual by more than RESIDUAL_SLACK, and stops as its
    rule says."""
    for seed in range(3):
        inst = heat_instance(600, delta_rel, seed)
        op = as_operator(inst.A)
        assert type(op) is ToeplitzOperator
        precond = build_preconditioner(op, choose_a(op, inst.b_noisy, inst.delta).chosen_a)
        for config, reason in ((SolveConfig(h=1.0), "discrepancy_met"),
                               (SolveConfig(h=0.1, stopping="apriori"), "apriori_reached")):
            result = solve_dsm(op, inst.b_noisy, inst.delta, precond, config)
            assert residuals_nonincreasing(result.residual_history), f"seed {seed}"
            assert result.stop_reason == reason, f"seed {seed}"


def test_residuals_nonincreasing_helper():
    assert residuals_nonincreasing([3.0, 2.0, 2.0, 1.0])
    assert residuals_nonincreasing([1.0, 1.0 + 1e-13])
    assert not residuals_nonincreasing([1.0, 1.1])
    assert residuals_nonincreasing([])
    assert residuals_nonincreasing([5.0])
