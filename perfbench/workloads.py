"""The benchmark's workloads: inputs drawn from a seed, one task, and its checks.

A task is one noisy right-hand side of the inverse heat problem, solved by
the workload's methods through the public ``dsmsolve`` API. ``run_task`` is
the timed region; ``check_task`` and ``task_counts`` run outside it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager
from dataclasses import dataclass, field

import numpy as np

import dsmsolve
from dsmsolve.problems import ProblemInstance, heat_instance
from dsmsolve.solvers import SolveConfig, SolveResult

# Discrepancy constant of every run, the package default.
C = 1.01
# find_t_delta's default tolerance on the flow residual at the crossing time.
FLOW_RTOL = 1e-10
# vr_newton's documented accuracy on phi(a) = C delta.
NEWTON_RTOL = 1e-8

Span = Callable[[str], AbstractContextManager]


@dataclass(frozen=True)
class Task:
    index: int  # -1 for the warm-up task
    noise_seed: int
    kappa: float


@dataclass
class TaskOutput:
    """What one task returned, kept for the checks and the traced probes."""

    inst: ProblemInstance
    precond: dsmsolve.Preconditioner
    choice: dsmsolve.ParamTrace
    # iterative runs by span name, with the stop reason each must end on
    runs: dict[str, tuple[SolveResult, str]] = field(default_factory=dict)
    # every solution returned, by method
    solutions: dict[str, np.ndarray] = field(default_factory=dict)
    newton: tuple[float, int] | None = None  # (a, iterations)
    t_delta: float | None = None


def _grid_shared_op(inst: ProblemInstance, span: Span) -> TaskOutput:
    """dsm, vr_i and vr_n on one noise draw, as the CLI's bench grid runs them."""
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    with span("params.choose_a"):
        choice = dsmsolve.choose_a(A, f, delta)
    with span("operators.build_preconditioner"):
        precond = dsmsolve.build_preconditioner(A, choice.chosen_a)
    with span("solvers.solve_dsm"):
        dsm = dsmsolve.solve_dsm(A, f, delta, precond, SolveConfig(C=C))
    with span("params.vr_solve"):
        u_vr_i = dsmsolve.vr_solve(A, f, choice.chosen_a)
    with span("params.vr_newton"):
        a_n, u_vr_n, newton_iters = dsmsolve.vr_newton(A, f, delta, C=C)
    return TaskOutput(
        inst, precond, choice,
        runs={"solvers.solve_dsm": (dsm, "discrepancy_met")},
        solutions={"dsm": dsm.solution, "vr_i": u_vr_i, "vr_n": u_vr_n},
        newton=(a_n, newton_iters),
    )


def _fresh_op_dsm(inst: ProblemInstance, span: Span) -> TaskOutput:
    """The damped iteration alone, on an operator no earlier task used."""
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    with span("params.choose_a"):
        choice = dsmsolve.choose_a(A, f, delta)
    with span("operators.build_preconditioner"):
        precond = dsmsolve.build_preconditioner(A, choice.chosen_a)
    with span("solvers.solve_dsm"):
        dsm = dsmsolve.solve_dsm(A, f, delta, precond, SolveConfig(C=C))
    return TaskOutput(
        inst, precond, choice,
        runs={"solvers.solve_dsm": (dsm, "discrepancy_met")},
        solutions={"dsm": dsm.solution},
    )


def _iterate_compare(inst: ProblemInstance, span: Span) -> TaskOutput:
    """Step counts of the damped, a-priori, plain gradient and continuous runs."""
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    with span("params.choose_a"):
        choice = dsmsolve.choose_a(A, f, delta)
    with span("operators.build_preconditioner"):
        precond = dsmsolve.build_preconditioner(A, choice.chosen_a)
    with span("solvers.solve_dsm"):
        dsm = dsmsolve.solve_dsm(A, f, delta, precond, SolveConfig(h=1.0, C=C))
    with span("solvers.solve_dsm_apriori"):
        apriori = dsmsolve.solve_dsm(A, f, delta, precond,
                                     SolveConfig(h=0.1, C=C, stopping="apriori"))
    with span("solvers.landweber_solve"):
        landweber = dsmsolve.landweber_solve(A, f, delta, SolveConfig(C=C))
    with span("continuous.spectral_t"):
        T = dsmsolve.spectral_t(precond)
    with span("continuous.spectral_q"):
        Q = dsmsolve.spectral_q(precond)
    # From u0 = 0 the flow's initial residual is A u0 - f = -f.
    with span("continuous.find_t_delta"):
        t_delta = dsmsolve.find_t_delta(Q, -f, C, delta, value_rtol=FLOW_RTOL)
    with span("operators.apply_p"):
        pf = precond.apply_p(f)
    with span("continuous.propagate"):
        u_flow = dsmsolve.propagate(T, np.zeros(inst.n), pf, t_delta)
    return TaskOutput(
        inst, precond, choice,
        runs={
            "solvers.solve_dsm": (dsm, "discrepancy_met"),
            "solvers.solve_dsm_apriori": (apriori, "apriori_reached"),
            "solvers.landweber_solve": (landweber, "discrepancy_met"),
        },
        solutions={"dsm": dsm.solution, "dsm_apriori": apriori.solution,
                   "landweber": landweber.solution, "flow": u_flow},
        t_delta=t_delta,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    delta_rel: float
    kappa_range: tuple[float, float] | None  # None: the unit conductor every time
    # Every run completes at least this many tasks; deterministic counts and
    # rel_error_mean are taken over exactly these, so they repeat per seed.
    det_tasks: int
    solve: Callable[[ProblemInstance, Span], TaskOutput]

    def tasks(self, seed: int) -> tuple[Task, Iterator[Task]]:
        """The warm-up task and the endless stream of timed tasks for a seed.

        Conductivities are stratified: each block of det_tasks tasks takes one
        kappa from each of det_tasks equal slices of kappa_range, in shuffled
        order, so every seed covers the range evenly and the solution error,
        which depends strongly on kappa, varies little from seed to seed.
        """
        rng = np.random.default_rng(seed)

        def draw(index: int, stratum: float | None) -> Task:
            noise_seed = int(rng.integers(2**31))
            if self.kappa_range is None:
                return Task(index, noise_seed, 1.0)
            lo, hi = self.kappa_range
            share = rng.uniform() if stratum is None else (stratum + rng.uniform()) / self.det_tasks
            return Task(index, noise_seed, lo + (hi - lo) * share)

        warmup = draw(-1, None)

        def stream() -> Iterator[Task]:
            index = 0
            while True:
                for stratum in rng.permutation(self.det_tasks):
                    yield draw(index, float(stratum))
                    index += 1

        return warmup, stream()


def run_task(workload: Workload, task: Task, span: Span) -> TaskOutput:
    """The timed region of one task: build its instance, then solve it."""
    with span("problems.heat_instance"):
        inst = heat_instance(workload.n, workload.delta_rel, task.noise_seed, kappa=task.kappa)
    return workload.solve(inst, span)


def check_task(out: TaskOutput) -> list[str]:
    """Every correctness check on one task's output; empty when all pass."""
    inst = out.inst
    A, f, delta = inst.A, inst.b_noisy, inst.delta
    problems = []
    for method, u in out.solutions.items():
        if u.shape != (inst.n,):
            problems.append(f"{method}: solution has shape {u.shape}, expected ({inst.n},)")
        elif not np.all(np.isfinite(u)):
            problems.append(f"{method}: solution has non-finite entries")
    for name, (result, expected_stop) in out.runs.items():
        if not dsmsolve.residuals_nonincreasing(result.residual_history):
            problems.append(f"{name}: residual history increases")
        if result.stop_reason != expected_stop:
            problems.append(f"{name}: stopped on {result.stop_reason}, expected {expected_stop}")
    last = out.choice.steps[-1]
    if not ((last.action == "accept" and delta <= out.choice.phi_at_chosen <= 2.0 * delta)
            or last.action == "fallback_triple"):
        problems.append(f"choose_a ended on {last.action} with misfit "
                        f"{out.choice.phi_at_chosen:.6g}, band [{delta:.6g}, {2 * delta:.6g}]")
    target = C * delta
    if out.newton is not None:
        misfit = dsmsolve.phi(A, f, out.newton[0])
        if abs(misfit - target) > NEWTON_RTOL * target:
            problems.append(f"vr_newton: misfit {misfit:.12g} misses C*delta = {target:.12g}")
    if out.t_delta is not None:
        flow_residual = float(np.linalg.norm(A @ out.solutions["flow"] - f))
        if abs(flow_residual - target) > FLOW_RTOL * target:
            problems.append(f"flow: residual {flow_residual:.12g} at t_delta misses "
                            f"C*delta = {target:.12g}")
    return problems


def task_counts(out: TaskOutput) -> dict[str, float]:
    """Deterministic per-task quantities: work counts and solution errors."""
    counts = {
        "params.choose_a.evals": out.choice.evaluations,
        "params.choose_a.in_band": int(out.choice.steps[-1].action == "accept"),
        "params.vr_newton.iters": out.newton[1] if out.newton else 0,
    }
    for name, (result, _) in out.runs.items():
        counts[f"{name}.steps"] = result.iterations
    u_exact = out.inst.u_exact
    errors = [float(np.linalg.norm(u - u_exact) / np.linalg.norm(u_exact))
              for u in out.solutions.values()]
    counts["rel_error_sum"] = sum(errors)
    counts["solutions"] = len(errors)
    return counts


# Why each workload was chosen is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_shared_op", n=1000, delta_rel=0.05, kappa_range=None, det_tasks=20,
                 solve=_grid_shared_op),
        Workload("fresh_op_dsm", n=2000, delta_rel=0.01, kappa_range=(0.8, 1.25), det_tasks=12,
                 solve=_fresh_op_dsm),
        Workload("iterate_compare", n=400, delta_rel=0.01, kappa_range=None, det_tasks=40,
                 solve=_iterate_compare),
    )
}
