"""Self-test: the ledger's exact counts repeat under one seed.

Runs every workload twice with ``--trace 1 --cycles 60`` and the same
``--seed``, under different ``PYTHONHASHSEED`` values, and asserts
that every count metric is identical across the two runs and that
both runs were correct.  Timings are not compared.  Run from the
repository root::

    python3 actyp_bench/selftest.py            # ~2 min on 2 cores

Exit code 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict

RUN = Path(__file__).resolve().parent / "run.py"
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEED = 3
CYCLES = 60
#: Metrics that count work rather than time it.
EXACT = (
    "resource_pool.records_examined_per_alloc",
    "whitepages.match_rows",
    "janitor.machines_reclaimed_per_sweep",
    "whitepages.get_per_cycle",
    "whitepages.update_dynamic_per_cycle",
    "service.get_per_cycle",
    "shard_worker.requests_per_cycle",
    "wal.appends_per_cycle",
    "wal.syncs_per_cycle",
    "wal.bytes_per_cycle",
)


def traced_counts(workload: str, seed: int, cycles: int,
                  hash_seed: str) -> Dict[str, float]:
    """One exact-count run; returns its count metrics."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--cycles", str(cycles)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})")
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main() -> int:
    """Compare two runs per workload; print every count."""
    ok = True
    workloads = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    for workload in workloads:
        first = traced_counts(workload, SEED, CYCLES, "1")
        second = traced_counts(workload, SEED, CYCLES, "2")
        for name in EXACT:
            same = first[name] == second[name]
            ok &= same
            print(f"{workload:13s} {name:42s} {first[name]!r:>20} "
                  f"{'==' if same else '!='} {second[name]!r}")
    print("exact counts repeat" if ok else "EXACT COUNTS DIFFER")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
