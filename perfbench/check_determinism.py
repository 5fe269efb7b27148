#!/usr/bin/env python3
"""The benchmark's own test: deterministic counts repeat, and a held-out seed runs clean.

    python3 perfbench/check_determinism.py [--workload NAME ...]

For each workload it makes two traced runs with the same seed and one
untraced run with HELD_OUT_SEED. Each run is as short as the benchmark allows
(its det_tasks tasks). The two traced runs must report the same counts:
steps, choose_a evaluations, Newton iterations, decompositions and solves at
the numpy/scipy boundary, and rel_error_mean, all compared exactly. Every run
must report correct with no failed task. Exits 0 when all of this holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent
SEED = 7
# The seed kept out of tuning; later performance claims are confirmed on it.
HELD_OUT_SEED = 104729


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One shortest run; returns (counts, result)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    counts = next(json.loads(line[len("counts "):]) for line in lines if line.startswith("counts "))
    return counts, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOAD_NAMES:
        first, result_1 = run(workload, SEED, trace=1)
        second, result_2 = run(workload, SEED, trace=1)
        _, held_out = run(workload, HELD_OUT_SEED, trace=0)
        for label, result in (("first", result_1), ("second", result_2), ("held-out", held_out)):
            if not result["correct"] or result["failed"]:
                print(f"FAIL {workload}: {label} run: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                ok = False
        differing = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        if differing:
            for key in differing:
                print(f"FAIL {workload}: {key} differs: {first.get(key)!r} vs {second.get(key)!r}")
            ok = False
        else:
            print(f"ok   {workload}: {len(first)} counts repeat exactly over seed {SEED}; "
                  f"held-out seed {HELD_OUT_SEED} ran clean")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
