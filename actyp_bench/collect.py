"""Run the benchmark over several seeds and report each metric's spread.

For every workload, runs ``run.py`` once per seed (seeds 1..N) with
``BENCHMARK.json``'s ``run_seconds``, then prints each end-to-end
metric's median and its quartile spread -- the distance between the
first and third quartiles over the median, as
``statistics.quantiles(values, n=4)`` gives them -- against the
metric's bound.  ``--trace-runs`` adds that many traced runs per
workload, and ``--workloads`` picks a subset.  ``--out`` writes every
run's result and context as a dated ``BENCH_<date>.json``.  Run from
the repository root::

    python3 actyp_bench/collect.py --runs 10 \\
        --out actyp_bench/results/BENCH_2026-10-17.json

Exit code 1 when a run fails or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    """Run the benchmark once; returns its result and context lines."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(line.split(" ", 1)[1]) for line in lines
                    if line.startswith("context ")), {})
    result = json.loads(lines[-1]) if lines else {"correct": False}
    result.update(exit_code=proc.returncode, context=context)
    return result


def spread(values: List[float]) -> float:
    """Quartile spread over the median (0 for a zero median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    """Run, summarise, optionally write the results file."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(1, args.runs + 1)
    document = {
        "date": time.strftime("%Y-%m-%d"),
        "host": {"cpus": len(os.sched_getaffinity(0)),
                 "processor": platform.processor() or platform.machine(),
                 "python": platform.python_version()},
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = [one_run(workload, seed, spec["run_seconds"], 0)
                for seed in seeds]
        traced = [one_run(workload, seed, spec["run_seconds"], 1)
                  for seed in list(seeds)[:args.trace_runs]]
        document["workloads"][workload] = {"runs": runs, "traced": traced}
        for run in runs + traced:
            if run["exit_code"] != 0 or not run["correct"]:
                ok = False
                print(f"{workload} seed {run['context'].get('seed')}: "
                      f"FAILED (exit {run['exit_code']})")
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs
                      if "metrics" in r]
            if len(values) < 2:
                continue
            s = spread(values)
            flag = "" if s <= bound else "  OVER BOUND"
            ok &= not flag
            print(f"  {name:24s} median {statistics.median(values):12.5g}"
                  f"  spread {s:6.3f}  bound {bound:5.2f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
