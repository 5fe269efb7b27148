#!/usr/bin/env python3
"""Closed-loop benchmark of dsmsolve on the inverse heat problem.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller solves one task after another: the next task starts only after
the previous one returned and was checked. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` wraps every call into dsmsolve in a span,
counts decompositions at the numpy/scipy boundary, prints the per-layer
metrics and writes the spans to ``perfbench/out/``. The last line of standard
output is one JSON object with the result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("grid_shared_op", "fresh_op_dsm", "iterate_compare")
# BLAS pool size. One thread: in trials on a shared 2-core machine, runs with
# two spread 8-10% between runs against 2-4% with one (see README.md).
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is timed this many times per run (this process plus fresh children);
# setup_s is the median.
SETUP_SAMPLES = 3
# Samples that must lie beyond the tail percentile.
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (used for setup_s samples)")
    return parser.parse_args(argv)


def machine_info() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it, but not below the median.

    Returns (value, percentile, samples beyond it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - index - 1


def setup_samples(args, own_setup_s: float) -> list[float]:
    """This process's set-up time plus fresh-interpreter repeats of it."""
    samples = [own_setup_s]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def layer_report(spans: list[dict], all_counts: list[dict]) -> dict:
    """Per-span-name statistics from the traced run.

    In-task spans have the task span as parent; probe spans (parent None) run
    between tasks, outside the task time.
    """
    task_spans = [s for s in spans if s["name"] == "task"]
    task_ms = sum((s["end"] - s["start"]) * 1e3 for s in task_spans)
    n_tasks = len(task_spans)
    layers: dict[str, dict] = {}
    for s in spans:
        if s["name"] == "task":
            continue
        entry = layers.setdefault(s["name"], {"calls": 0, "in_task_calls": 0, "ms": 0.0,
                                              "in_task_ms": 0.0, "factorizations": 0,
                                              "tri_solves": 0})
        ms = (s["end"] - s["start"]) * 1e3
        entry["calls"] += 1
        entry["ms"] += ms
        entry["factorizations"] += s["factorizations"]
        entry["tri_solves"] += s["tri_solves"]
        if s["parent"] is not None:
            entry["in_task_calls"] += 1
            entry["in_task_ms"] += ms
    report = {}
    for name, entry in sorted(layers.items()):
        report[name] = {
            "ms_per_call": entry["ms"] / entry["calls"],
            "calls_per_task": entry["in_task_calls"] / n_tasks,
            "ms_per_task": entry["in_task_ms"] / n_tasks,
            "share_of_task": entry["in_task_ms"] / task_ms,
            "probe": entry["in_task_calls"] == 0,
            "factorizations_per_call": entry["factorizations"] / entry["calls"],
            "tri_solves_per_call": entry["tri_solves"] / entry["calls"],
        }
    steps = sum(c.get("solvers.landweber_solve.steps", 0) for c in all_counts)
    if "solvers.landweber_solve" in layers and steps:
        report["solvers.landweber_solve"]["us_per_step"] = (
            layers["solvers.landweber_solve"]["in_task_ms"] * 1e3 / steps)
    return report


def main(argv=None) -> int:
    setup_started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "dsmsolve" / "__init__.py").is_file():
        print(f"error: the dsmsolve sources are missing under {SRC}", file=sys.stderr)
        return 2
    # The BLAS pool size must be fixed before numpy loads its BLAS.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import resource

    import dsmsolve
    from tracing import Tracer, no_span
    from workloads import WORKLOADS, check_task, run_task, task_counts

    if Path(dsmsolve.__file__).resolve().parent != SRC / "dsmsolve":
        print(f"error: imported dsmsolve from {dsmsolve.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    warmup, tasks = workload.tasks(args.seed)
    warmup_problems = check_task(run_task(workload, warmup, no_span))
    setup_s = time.perf_counter() - setup_started
    for problem in warmup_problems:
        print(f"warm-up task: {problem}", file=sys.stderr)
    if args.setup_only:
        print(f"setup_s {setup_s!r}")
        return 0

    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    durations: list[float] = []
    all_counts: list[dict] = []
    det: list[dict] = []
    attempted = failed = 0
    loop_started = time.perf_counter()
    with tracer or nullcontext():
        while attempted < workload.det_tasks or time.perf_counter() - loop_started < args.seconds:
            task = next(tasks)
            attempted += 1
            if tracer:
                tracer.task = task.index
            started = time.perf_counter()
            try:
                with span("task") as task_span:
                    out = run_task(workload, task, span)
            except Exception:  # a task that raises is a failed task, never a crash
                failed += 1
                print(f"task {task.index} raised:", file=sys.stderr)
                traceback.print_exc()
                continue
            durations.append(time.perf_counter() - started)
            problems = check_task(out)
            if problems:
                failed += 1
                for problem in problems:
                    print(f"task {task.index}: {problem}", file=sys.stderr)
            counts = task_counts(out)
            if task_span is not None:
                counts["linalg.factorizations"] = task_span["factorizations"]
                counts["linalg.tri_solves"] = task_span["tri_solves"]
            all_counts.append(counts)
            if task.index < workload.det_tasks:
                det.append(counts)
            if tracer:
                # Probes: layers whose cost is measured apart from the task.
                with span("operators.apply_p"):
                    out.precond.apply_p(out.inst.b_noisy)
                with span("linalg.op_norm"):
                    dsmsolve.op_norm(out.inst.A)

    machine = machine_info()
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("settings " + json.dumps({
        "loop": "closed, one caller", "warmup_tasks": 1, "setup_samples": SETUP_SAMPLES,
        "blas_threads": BLAS_THREADS, "n": workload.n, "delta_rel": workload.delta_rel,
        "kappa_range": workload.kappa_range, "det_tasks": workload.det_tasks}))
    correct = failed == 0 and not warmup_problems and len(det) == workload.det_tasks
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted} tasks)")

    def det_mean(key: str) -> float:
        return sum(c.get(key, 0) for c in det) / max(len(det), 1)

    deterministic = {key: sum(c.get(key, 0) for c in det) for key in sorted(
        {k for c in det for k in c} - {"rel_error_sum", "solutions"})}
    deterministic["rel_error_mean"] = (sum(c["rel_error_sum"] for c in det)
                                       / max(sum(c["solutions"] for c in det), 1))
    p50_ms = statistics.median(durations) * 1e3 if durations else float("nan")

    if not tracer:
        tail_s, tail_pct, beyond = tail(durations) if durations else (float("nan"), 0.0, 0)
        setups = setup_samples(args, setup_s)
        metrics = {
            "tasks_per_s": (len(durations) / sum(durations) if durations else 0.0, "1/s"),
            "task_p50_ms": (p50_ms, "ms"),
            "task_tail_ms": (tail_s * 1e3, "ms"),
            "rel_error_mean": (deterministic["rel_error_mean"], "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"task_tail_ms is p{tail_pct:.1f} of {len(durations)} tasks, {beyond} beyond it")
        print(f"setup_s samples {setups!r}")
    else:
        spans = tracer.spans
        report = layer_report(spans, all_counts)
        task_spans = [s for s in spans if s["name"] == "task"]

        def per_task(key: str) -> float:
            return sum(s[key] for s in task_spans) / len(task_spans)

        def ms(name: str) -> float:
            return report[name]["ms_per_call"]

        def per_task_ms(prefix: str) -> float:
            return sum(r["ms_per_task"] for name, r in report.items() if name.startswith(prefix))

        metrics = {
            "problems.heat_instance.ms": (ms("problems.heat_instance"), "ms"),
            "params.ms": (per_task_ms("params."), "ms"),
            "params.choose_a.ms": (ms("params.choose_a"), "ms"),
            "params.choose_a.evals": (det_mean("params.choose_a.evals"), "count"),
            "params.choose_a.in_band_frac": (det_mean("params.choose_a.in_band"), "frac"),
            "params.vr_newton.iters": (det_mean("params.vr_newton.iters"), "count"),
            "operators.build_preconditioner.ms": (ms("operators.build_preconditioner"), "ms"),
            "operators.apply_p.ms": (ms("operators.apply_p"), "ms"),
            "solvers.ms": (per_task_ms("solvers."), "ms"),
            "solvers.solve_dsm.ms": (ms("solvers.solve_dsm"), "ms"),
            "solvers.solve_dsm.steps": (det_mean("solvers.solve_dsm.steps"), "count"),
            "solvers.solve_dsm_apriori.steps": (det_mean("solvers.solve_dsm_apriori.steps"), "count"),
            "solvers.landweber_solve.steps": (det_mean("solvers.landweber_solve.steps"), "count"),
            "linalg.op_norm.ms": (ms("linalg.op_norm"), "ms"),
            "linalg.factorizations": (det_mean("linalg.factorizations"), "count"),
            "linalg.factor_ms": (per_task("factor_ms"), "ms"),
            "linalg.tri_solves": (det_mean("linalg.tri_solves"), "count"),
            "linalg.tri_solve_ms": (per_task("tri_solve_ms"), "ms"),
            "traced.task_p50_ms": (p50_ms, "ms"),
        }
        for name, r in report.items():
            where = "probe between tasks" if r["probe"] else (
                f"{r['calls_per_task']:.2f} calls/task, {r['share_of_task']:.3f} of task time")
            print(f"{name}.ms {r['ms_per_call']!r} ms per call ({where}, "
                  f"{r['factorizations_per_call']:.2f} factorizations/call)")
            if "us_per_step" in r:
                print(f"{name}.us_per_step {r['us_per_step']!r} us")
        print("linalg counts are calls counted at the numpy/scipy boundary")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "machine": machine, "det_tasks": workload.det_tasks, "traced_tasks": len(task_spans),
            "deterministic": deterministic, "layers": report, "spans": spans,
        }, indent=1) + "\n", encoding="ascii")
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print("counts " + json.dumps(deterministic, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
