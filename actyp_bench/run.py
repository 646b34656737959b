"""ActYP benchmark: the paper's operation, submit -> allocation -> release.

One closed-loop client waits for each allocation, releases it, and
goes again, as the paper's clients did.  Run from the repository root::

    python3 actyp_bench/run.py --workload steady_alloc --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced blocks of cycles with blocks in which every layer's
public functions are wrapped, and reports the per-layer ledger plus the
tracing overhead.  Correctness is checked outside the timed intervals
on every cycle and at teardown; any failure makes the exit code 1.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units are
``BENCHMARK.json``'s.  Workloads, metrics and the layer map are
described in ``actyp_bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for the shard workers' seed files and op logs.
STATE_ROOT = ROOT / ".actyp_bench_state"
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Untraced/traced block pairs of a ``--trace 1`` run.  Pairs alternate
#: their order (untraced first, then traced first), so that a drift in
#: the host's speed cancels out of ``trace.overhead_frac``.
PAIRS = 4


class Tally:
    """Attempted and failed operations and checks, with the first few
    failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        """Count one operation or check; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(message)
        return ok


class Phase:
    """What one measured phase of closed-loop cycles recorded."""

    def __init__(self) -> None:
        self.submit_s: List[float] = []
        self.release_s: List[float] = []
        self.monitor_s: List[float] = []
        self.cycles = 0
        #: Wall time of the cycles, without the benchmark's own input
        #: generation and correctness checks.
        self.wall_s = 0.0
        #: ``holder_of`` probes sent to the white pages by the checks.
        self.holder_checks = 0

    @property
    def cycles_per_s(self) -> float:
        """Completed cycles per second of measured wall time."""
        return self.cycles / self.wall_s if self.wall_s > 0 else 0.0

    @classmethod
    def merge(cls, phases: List["Phase"]) -> "Phase":
        """One phase holding everything ``phases`` recorded."""
        merged = cls()
        for phase in phases:
            merged.submit_s += phase.submit_s
            merged.release_s += phase.release_s
            merged.monitor_s += phase.monitor_s
            merged.cycles += phase.cycles
            merged.wall_s += phase.wall_s
            merged.holder_checks += phase.holder_checks
        return merged


class Clock:
    """The synthetic clock handed to the program (one second a cycle)."""

    def __init__(self) -> None:
        self.now = 0.0

    def tick(self) -> float:
        """Advance one cycle and return the new time."""
        self.now += 1.0
        return self.now


async def warm(stack, inputs, clock: Clock, tally: Tally) -> None:
    """Create the workload's warm pools: one submit and release per
    pool text."""
    from repro.errors import ReproError
    for text in inputs.warm_texts:
        try:
            alloc = await stack.submit(text, clock.tick())
            await stack.release(alloc.access_key)
        except ReproError as exc:
            tally.check(False, f"warm-up {text!r}: {exc}")
            continue
        tally.check(alloc.ok, f"warm-up {text!r}: {alloc.error}")


async def run_cycles(stack, workload, inputs, queries, clock: Clock,
                     tally: Tally, *, seconds: float,
                     cycles: Optional[int]) -> Phase:
    """The closed loop: submit, check, release, check, then the
    workload's side work.  Runs ``cycles`` cycles, or for ``seconds``."""
    from repro.errors import ReproError
    perf = time.perf_counter
    phase = Phase()
    service, database = stack.service, stack.database
    excluded = 0.0
    start = perf()
    deadline = start + seconds
    while (phase.cycles < cycles) if cycles else (perf() < deadline):
        t = perf()
        now = clock.tick()
        text = next(queries)
        t0 = perf()
        try:
            alloc = await stack.submit(text, now)
        except ReproError as exc:
            alloc = None
            error = str(exc)
        t1 = perf()
        phase.submit_s.append(t1 - t0)
        if alloc is not None:
            error = alloc.error
        if not tally.check(alloc is not None and alloc.ok
                           and bool(alloc.access_key),
                           f"submit {text!r}: {error}"):
            excluded += perf() - t1 + t0 - t
            continue
        holder = database.holder_of(alloc.machine)
        phase.holder_checks += 1
        tally.check(holder == alloc.pool,
                    f"{alloc.machine} held by {holder!r}, "
                    f"allocated from {alloc.pool!r}")
        t2 = perf()
        try:
            await stack.release(alloc.access_key)
            error = ""
        except ReproError as exc:
            error = str(exc)
        t3 = perf()
        phase.release_s.append(t3 - t2)
        tally.check(not error, f"release: {error}")
        tally.check(not any(pool.active_runs for pool in service.pools()),
                    "active runs left after release")
        t4 = perf()
        excluded += (t0 - t) + (t2 - t1) + (t4 - t3)
        if workload.churn:
            destroyed = service.sweep_idle_pools(now, idle_timeout_s=0)
            t5 = perf()
            tally.check(destroyed == 1,
                        f"sweep destroyed {destroyed} pools, expected 1")
            excluded += perf() - t5
        if phase.cycles % workload.monitor_every == 0:
            t6 = perf()
            names = inputs.monitor_batch()
            t7 = perf()
            updated = stack.monitor.refresh_once(now, names)
            t8 = perf()
            phase.monitor_s.append(t8 - t7)
            tally.check(updated == len(names),
                        f"monitor refreshed {updated} of {len(names)}")
            excluded += (t7 - t6) + (perf() - t8)
        phase.cycles += 1
    phase.wall_s = perf() - start - excluded
    return phase


def teardown_checks(stack, clock: Clock, tally: Tally) -> None:
    """Every machine taken belongs to a live pool; destroying the pools
    returns them all."""
    service, database = stack.service, stack.database
    live = sum(pool.size for pool in service.pools())
    taken = database.taken_count()
    tally.check(taken == live,
                f"taken_count {taken} != live pool sizes {live}")
    service.sweep_idle_pools(stack.now(clock), idle_timeout_s=0)
    taken = database.taken_count()
    tally.check(taken == 0, f"taken_count {taken} after destroying pools")


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _quantile(samples: List[float], q: int) -> float:
    """The q-th percentile in ms (interpolated between samples)."""
    if len(samples) < 2:
        return samples[0] * 1e3 if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def end_to_end(phase: Phase, setup_times: List[float],
               rss_mb: float) -> Dict[str, float]:
    """The untraced run's bounded user-visible metrics.  Timings are
    upper percentiles: see the README's spread section for why not the
    p50, the mean or the throughput."""
    return {
        "setup_s": statistics.median(setup_times),
        "submit_p95_ms": _quantile(phase.submit_s, 95),
        "release_p95_ms": _quantile(phase.release_s, 95),
        "monitor_refresh_p90_ms": _quantile(phase.monitor_s, 90),
        "peak_rss_mb": rss_mb,
    }


def summary(phase: Phase) -> List[str]:
    """Each timed call's sample count, mean, p50 and p99: printed
    beside the metrics, not bounded."""
    lines = []
    for name, samples in (("submit", phase.submit_s),
                          ("release", phase.release_s),
                          ("monitor_refresh", phase.monitor_s)):
        mean = statistics.fmean(samples) * 1e3 if samples else 0.0
        lines.append(f"{name}: n={len(samples)} mean={mean:.4f} "
                     f"p50={_quantile(samples, 50):.4f} "
                     f"p99={_quantile(samples, 99):.4f} ms")
    return lines


def _terminate(signum, frame) -> None:
    """SIGTERM unwinds like an exception, so teardown stops the shard
    workers instead of orphaning them."""
    raise SystemExit(128 + signum)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    """The benchmark's arguments, plus ``--cycles`` for exact-count runs."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady_alloc", "pool_churn",
                                 "remote_serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cycles", type=int, default=0,
                        help="run this many cycles (with --trace 1: this "
                             "many traced and as many untraced) instead of "
                             "--seconds (exact-count self-test)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """Set up, measure, check, tear down, report."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"actyp_bench: no src/repro under {ROOT}; run the benchmark "
              "from a full checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(ROOT / "src"))
    from ledger import (UNATTRIBUTED_TOLERANCE, Tracer, WorkerWindow,
                        instrument, ledger_rows, per_layer)
    from stacks import WORKLOADS, Inputs, build_stack

    signal.signal(signal.SIGTERM, _terminate)
    workload = WORKLOADS[args.workload]
    tally = Tally()
    setup_times: List[float] = []
    stack = None
    try:
        for attempt in range(SETUPS):
            if stack is not None:
                stack.close()
                stack = None
                gc.collect()
            t0 = time.perf_counter()
            state_dir = STATE_ROOT / f"{workload.name}-{os.getpid()}-{attempt}"
            stack = build_stack(workload, args.seed, state_dir)
            inputs = Inputs(workload, args.seed,
                            sorted(stack.database.names()))
            clock = Clock()
            stack.run(warm(stack, inputs, clock, tally))
            setup_times.append(time.perf_counter() - t0)
        queries = inputs.queries()
        gc.collect()

        blocks = 2 * PAIRS if args.trace else 1
        block_cycles = args.cycles // PAIRS if args.trace else args.cycles

        def measure() -> Phase:
            return stack.run(run_cycles(
                stack, workload, inputs, queries, clock, tally,
                seconds=args.seconds / blocks, cycles=block_cycles))

        if not args.trace:
            phase = measure()
        else:
            tracer = Tracer()
            window = WorkerWindow(stack.database) if stack.remote else None
            untraced: List[Phase] = []
            traced_blocks: List[Phase] = []
            for pair in range(PAIRS):
                for wrap in (False, True) if pair % 2 == 0 else (True, False):
                    if not wrap:
                        untraced.append(measure())
                        continue
                    if window is not None:
                        window.open()
                    db_layer = instrument(tracer, stack)
                    try:
                        traced_blocks.append(measure())
                    finally:
                        tracer.restore()
                    if window is not None:
                        window.close()
            phase = Phase.merge(untraced)
            traced = Phase.merge(traced_blocks)
            metrics = per_layer(tracer, db_layer, traced.cycles,
                                traced.wall_s, window,
                                traced.holder_checks)
            metrics["trace.overhead_frac"] = 1.0 - statistics.median(
                t.cycles_per_s / u.cycles_per_s
                for u, t in zip(untraced, traced_blocks))
            tally.check(
                metrics["ledger.unattributed_frac"] <= UNATTRIBUTED_TOLERANCE,
                f"ledger leaves {metrics['ledger.unattributed_frac']:.1%} of "
                f"traced wall time unattributed "
                f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if stack.remote:
            rss_mb += sum(_vm_hwm_mb(pid) for pid in stack.worker_pids())
        teardown_checks(stack, clock, tally)
        if not args.trace:
            metrics = end_to_end(phase, setup_times, rss_mb)
        if set(metrics) != set(units):
            raise RuntimeError("computed metrics differ from BENCHMARK.json: "
                               f"{sorted(set(metrics) ^ set(units))}")
    finally:
        if stack is not None:
            stack.close()
        with contextlib.suppress(OSError):
            STATE_ROOT.rmdir()  # only when no other run still uses it

    context = workload.context(args.seed)
    context.update(setups=setup_times, cycles=phase.cycles,
                   cycles_per_s=phase.cycles_per_s,
                   failed_frac=tally.failed / max(1, tally.attempted))
    print("context " + json.dumps(context, sort_keys=True))
    for line in summary(phase):
        print(line)
    if args.trace:
        print(f"ledger ({traced.cycles} traced cycles, "
              f"{traced.wall_s:.3f} s): span, calls/cycle, "
              f"self ms/cycle, share of wall")
        for name, calls, self_ms, share in ledger_rows(
                tracer, traced.cycles, traced.wall_s):
            print(f"  {name:32s} {calls:10.2f} {self_ms:10.4f} {share:7.2%}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
