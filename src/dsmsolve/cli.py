"""Command line front end: benchmark tables, single solves, conditioning, plot data."""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .linalg import as_operator, cond_estimate
from .operators import build_preconditioner
from .params import choose_a, start_damping, vr_newton, vr_solve
from .problems import heat_instance, heat_matrix, load_matrix, load_vector, save_vector
from .solvers import SolveConfig, SolveResult, landweber_solve, residuals_nonincreasing, solve_dsm

METHODS = ("dsm", "vr_i", "vr_n", "landweber")

BENCH_HEADER = "n,method,n_iter,rel_error,seed,delta_rel,a_used"
SUMMARY_HEADER = "n,method,runs,mean_n_iter,mean_rel_error,std_rel_error"


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".17g")


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers: {text!r}")
    return values


def _parse_methods(text: str) -> list[str]:
    methods = [part.strip() for part in text.split(",") if part.strip()]
    for method in methods:
        if method not in METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {method!r}, pick from {','.join(METHODS)}")
    if not methods:
        raise argparse.ArgumentTypeError("at least one method is required")
    return methods


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--C", type=float, default=1.01, help="discrepancy constant in (1, 2)")
    parser.add_argument("--h", type=float, default=1.0, help="step size")
    parser.add_argument("--gamma", type=float, default=0.5, help="a-priori rule exponent in (0, 1)")
    parser.add_argument("--stopping", choices=("discrepancy", "apriori"), default="discrepancy")


def _config_from(args) -> SolveConfig:
    return SolveConfig(h=args.h, C=args.C, gamma=args.gamma, stopping=args.stopping)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsmsolve",
        description="Stable solvers for ill-conditioned linear systems with noisy data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run the inverse heat benchmark grid")
    bench.add_argument("--n-list", type=_parse_int_list,
                       default=[10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
    bench.add_argument("--delta-rel", type=float, default=0.05)
    bench.add_argument("--seeds", type=int, default=10, help="number of noise draws per size")
    bench.add_argument("--seed", type=int, default=0, help="first seed of the range")
    bench.add_argument("--methods", type=_parse_methods, default=["dsm", "vr_i", "vr_n"])
    bench.add_argument("--out", type=Path, default=Path("bench.csv"))
    bench.add_argument("--assert-invariants", action="store_true",
                       help="fail if any run's residual history increases")
    bench.add_argument("--vr-i-a0", action="store_true",
                       help="run vr_i at the untuned starting damping instead of the searched one")
    _add_config_flags(bench)
    bench.set_defaults(func=cmd_bench)

    solve = sub.add_parser("solve", help="solve one system from matrix and vector files")
    solve.add_argument("--matrix", type=Path, required=True)
    solve.add_argument("--rhs", type=Path, required=True)
    solve.add_argument("--delta", type=float, required=True, help="noise level bound")
    solve.add_argument("--method", choices=METHODS, default="dsm")
    solve.add_argument("--a", type=float, default=None, help="damping parameter (default: selected from delta)")
    solve.add_argument("--out", type=Path, default=Path("solution.txt"))
    _add_config_flags(solve)
    solve.set_defaults(func=cmd_solve)

    cond = sub.add_parser("cond", help="condition estimate of the size-n benchmark operator")
    cond.add_argument("n", type=int)
    cond.set_defaults(func=cmd_cond)

    plot = sub.add_parser("plot-data", help="write solution profiles for plotting")
    plot.add_argument("n", type=int)
    plot.add_argument("--delta-rel", type=float, default=0.05)
    plot.add_argument("--seed", type=int, default=0)
    plot.add_argument("--out", type=Path, default=Path("profiles.csv"))
    plot.set_defaults(func=cmd_plot_data)

    return parser


def _run_method(method, op, f, delta, config, a) -> SolveResult:
    """Run one method on one system; a is the damping that dsm and vr_i use.

    The direct methods vr_i and vr_n record their final residual as a
    one-entry history.
    """
    if method == "dsm":
        return solve_dsm(op, f, delta, build_preconditioner(op, a), config)
    if method == "landweber":
        return landweber_solve(op, f, delta, config)
    if method == "vr_i":
        u, iterations, reason = vr_solve(op, f, a), 1, "direct"
    else:
        a, u, iterations = vr_newton(op, f, delta, C=config.C)
        reason = "discrepancy_root"
    return SolveResult(u, iterations, [float(np.linalg.norm(op.matvec(u) - f))], reason, a)


def _warn_on_fallback(where: str, trace, delta: float) -> None:
    """Say on stderr when choose_a ended on fallback_triple, whose misfit
    need not lie in the band [delta, 2 delta] that the search aims for."""
    if trace.steps[-1].action == "fallback_triple":
        print(f"warning: {where}: choose_a ended on fallback_triple at a={trace.chosen_a:.6g}, "
              f"misfit {trace.phi_at_chosen:.6g} against the band [{delta:.6g}, {2.0 * delta:.6g}]",
              file=sys.stderr)


def cmd_bench(args) -> int:
    config = _config_from(args)
    if args.seeds < 1:
        print("error: --seeds must be at least 1", file=sys.stderr)
        return 2
    needs_trace = "dsm" in args.methods or ("vr_i" in args.methods and not args.vr_i_a0)
    rows = []
    cells: dict[tuple[int, str], list[tuple[int, float]]] = {}
    wall: dict[tuple[int, str], float] = {}
    failed = False
    for n in args.n_list:
        op = as_operator(heat_matrix(n))  # the heat operator does not depend on the seed
        for seed in range(args.seed, args.seed + args.seeds):
            inst = heat_instance(n, args.delta_rel, seed)
            try:
                trace = choose_a(op, inst.b_noisy, inst.delta) if needs_trace else None
            except ValueError as exc:
                print(f"error: n={n} seed={seed}: parameter selection failed: {exc}", file=sys.stderr)
                failed = True
                continue
            if trace is not None:
                _warn_on_fallback(f"n={n} seed={seed}", trace, inst.delta)
            for method in args.methods:
                started = time.perf_counter()
                if method == "vr_i" and args.vr_i_a0:
                    a = start_damping(inst.delta, op.norm, float(np.linalg.norm(inst.b_noisy)))
                else:
                    a = trace.chosen_a if trace else None
                try:
                    result = _run_method(method, op, inst.b_noisy, inst.delta, config, a)
                    if args.assert_invariants and not residuals_nonincreasing(result.residual_history):
                        raise ValueError(
                            f"invariant violated: residual norms increased during {method} n={n} seed={seed}"
                        )
                except ValueError as exc:
                    print(f"error: n={n} seed={seed} method={method}: {exc}", file=sys.stderr)
                    failed = True
                    continue
                elapsed = time.perf_counter() - started
                u, n_iter = result.solution, result.iterations
                rel_error = float(np.linalg.norm(u - inst.u_exact) / np.linalg.norm(inst.u_exact))
                rows.append((n, method, n_iter, rel_error, seed, args.delta_rel, result.a_used))
                cells.setdefault((n, method), []).append((n_iter, rel_error))
                wall[(n, method)] = wall.get((n, method), 0.0) + elapsed

    lines = [BENCH_HEADER]
    for n, method, n_iter, rel_error, seed, delta_rel, a_used in rows:
        lines.append(f"{n},{method},{n_iter},{_fmt(rel_error)},{seed},{_fmt(delta_rel)},{_fmt(a_used)}")
    args.out.write_text("\n".join(lines) + "\n", encoding="ascii")

    summary_lines = [SUMMARY_HEADER]
    print(f"{'n':>5} {'method':<10} {'runs':>4} {'mean_iter':>10} {'mean_rel_err':>13} "
          f"{'std_rel_err':>12} {'wall_s':>8}")
    for n in args.n_list:
        for method in args.methods:
            data = cells.get((n, method))
            if not data:
                continue
            iters = np.array([d[0] for d in data], dtype=float)
            errors = np.array([d[1] for d in data])
            mean_iter = float(iters.mean())
            mean_err = float(errors.mean())
            std_err = float(errors.std())
            summary_lines.append(
                f"{n},{method},{len(data)},{_fmt(mean_iter)},{_fmt(mean_err)},{_fmt(std_err)}"
            )
            print(f"{n:>5} {method:<10} {len(data):>4} {mean_iter:>10.2f} {mean_err:>13.4e} "
                  f"{std_err:>12.4e} {wall[(n, method)]:>8.3f}")
    summary_path = args.out.with_name(args.out.stem + "_summary" + (args.out.suffix or ".csv"))
    summary_path.write_text("\n".join(summary_lines) + "\n", encoding="ascii")
    print(f"wrote {len(rows)} rows to {args.out} and {summary_path}")
    return 1 if failed else 0


def cmd_solve(args) -> int:
    config = _config_from(args)
    A = load_matrix(args.matrix)
    f = load_vector(args.rhs)
    if A.shape[0] != f.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix {args.matrix} is {A.shape}, "
            f"right-hand side {args.rhs} has length {f.shape[0]}"
        )

    op = as_operator(A)
    a = args.a
    trace = None
    if args.method in ("dsm", "vr_i"):
        if a is None:
            trace = choose_a(op, f, args.delta)
            a = trace.chosen_a
        elif a <= 0.0:
            raise ValueError(f"--a must be positive, got {a}")
    result = _run_method(args.method, op, f, args.delta, config, a)
    if trace is not None:  # after the solve, so a failed run reports only its error
        _warn_on_fallback(f"n={A.shape[1]}", trace, args.delta)

    save_vector(args.out, result.solution)
    print(f"method={args.method}")
    print(f"iterations={result.iterations}")
    print(f"residual={result.residual_history[-1]:.10e}")
    print(f"a_used={'' if result.a_used is None else format(result.a_used, '.10e')}")
    print(f"stop_reason={result.stop_reason}")
    print(f"solution written to {args.out}")
    return 0


def cmd_cond(args) -> int:
    if args.n < 1:
        print("error: n must be at least 1", file=sys.stderr)
        return 2
    value = cond_estimate(heat_matrix(args.n))
    print(f"{value:.6e}")
    return 0


def cmd_plot_data(args) -> int:
    if args.n < 1:
        print("error: n must be at least 1", file=sys.stderr)
        return 2
    inst = heat_instance(args.n, args.delta_rel, args.seed)
    op = as_operator(inst.A)
    trace = choose_a(op, inst.b_noisy, inst.delta)
    dsm = _run_method("dsm", op, inst.b_noisy, inst.delta, SolveConfig(), trace.chosen_a)
    u_newton = _run_method("vr_n", op, inst.b_noisy, inst.delta, SolveConfig(), None).solution
    t = (np.arange(1, args.n + 1) - 0.5) / args.n
    lines = ["t,u_exact,u_dsm,u_vr_n"]
    for k in range(args.n):
        lines.append(f"{_fmt(t[k])},{_fmt(inst.u_exact[k])},{_fmt(dsm.solution[k])},{_fmt(u_newton[k])}")
    args.out.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {args.n} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
