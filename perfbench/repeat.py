#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize each metric by median and quartiles.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

Runs run.py once per (workload, seed) for each requested trace mode, one run
at a time, and writes every value with its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and spread, the quartile distance as a
share of the median. With both trace modes it also reports the tracing
overhead: the traced run's task median minus the untraced one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, action="append", choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    summary: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        modes: dict = {}
        for trace in args.trace or (0,):
            values: dict[str, list[float]] = {}
            for seed in args.seeds:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                     str(seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                    cwd=HERE.parent, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                          f"{proc.stderr}", file=sys.stderr)
                    ok = False
                    continue
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                for line in lines:
                    if line.startswith("machine "):
                        summary["machine"] = line[len("machine "):]
                    elif line.startswith("settings "):
                        modes["settings"] = json.loads(line[len("settings "):])
                if not result["correct"] or result["failed"]:
                    ok = False
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                values.setdefault("attempted", []).append(result["attempted"])
                values.setdefault("failed", []).append(result["failed"])
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      flush=True)
            modes[f"trace{trace}"] = {name: summarize(v) for name, v in values.items()}
        if "trace0" in modes and "trace1" in modes:
            untraced = modes["trace0"]["task_p50_ms"]["values"]
            traced = modes["trace1"]["traced.task_p50_ms"]["values"]
            modes["tracing_overhead_ms"] = summarize([t - u for t, u in zip(traced, untraced)])
        summary["workloads"][workload] = modes
        for mode, metrics in modes.items():
            if mode in ("trace0", "trace1"):
                for name, stats in metrics.items():
                    if stats["spread"] is not None:
                        print(f"  {workload} {mode} {name}: median {stats['median']:.6g} "
                              f"spread {stats['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
