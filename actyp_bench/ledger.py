"""The traced run's per-layer ledger, measured from outside the program.

:class:`Tracer` wraps the public functions each layer exposes and
times every call into them: a span per call, nested by a call stack,
so a layer's *self time* is its span minus the spans of the layers it
called.  A white-pages call made from inside another
(``update_dynamic`` reading its own record) belongs to the outer call.
Spans are folded into per-name totals as they end rather than kept one
by one: a ``steady_alloc`` cycle makes ~2.6k calls into the white
pages.

The shard workers' side comes from their public counters, windowed
around each traced block: ``metrics()`` histograms (count-weighted
means of ``histogram_delta``; the bucketed percentiles quantise by up
to ~26%), request counters and ``wal`` stats.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.core.resource_pool import ResourcePool
from repro.obs.telemetry import histogram_delta

#: ``ledger.unattributed_frac`` above this fails the traced run: the
#: self times of the named layers must account for the traced wall
#: time.
UNATTRIBUTED_TOLERANCE = 0.10


class Tracer:
    """Per-name call counts, total and self times of wrapped calls."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        #: Calls of a name made directly under a parent span name.
        self.under: Counter = Counter()
        #: Summed sizes of results, for the names that ask for it.
        self.sizes: Counter = Counter()
        self._stack: List[list] = []
        self._undo: List[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, *,
              size: Optional[Callable[[Any], int]] = None,
              fold_inner: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is an instance (only its calls are timed) or a class
        (every instance's calls are).  ``size`` maps a result to a count
        summed under ``name``.  With ``fold_inner``, a call made from
        inside another span of the same layer is left to that span.
        """
        is_class = isinstance(owner, type)
        original = owner.__dict__[attr] if is_class else getattr(owner, attr)
        layer = name.split(".", 1)[0] + "."
        stack = self._stack
        record = self._record

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                frame = [name, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    record(frame, time.perf_counter() - t0)
                if size is not None:
                    self.sizes[name] += size(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if fold_inner and stack and stack[-1][0].startswith(layer):
                    return original(*args, **kwargs)
                frame = [name, 0.0]
                stack.append(frame)
                t0 = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    record(frame, time.perf_counter() - t0)
                if size is not None:
                    self.sizes[name] += size(result)
                return result
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original if is_class else None))

    def _record(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        name = frame[0]
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += elapsed
            self.under[(parent[0], name)] += 1

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def mean_total(self, name: str) -> float:
        """Mean span length of ``name`` in seconds (0 when never called)."""
        calls = self.calls[name]
        return self.total[name] / calls if calls else 0.0

    def mean_self(self, name: str) -> float:
        """Mean self time of ``name`` in seconds (0 when never called)."""
        calls = self.calls[name]
        return self.self_time[name] / calls if calls else 0.0


def instrument(tracer: Tracer, stack) -> str:
    """Wrap every layer the stack's cycle reaches; returns the white
    pages' layer name ("whitepages" in-process, "service" remote)."""
    service = stack.service
    qm = service.query_manager
    db_layer = "service" if stack.remote else "whitepages"
    tracer.patch(service, "submit", "pipeline.submit")
    tracer.patch(service, "release", "pipeline.release")
    tracer.patch(service, "sweep_idle_pools", "janitor.sweep")
    tracer.patch(qm.translators, "translate", "translation.translate")
    tracer.patch(qm, "admit", "query_manager.admit")
    tracer.patch(qm, "complete_component", "query_manager.complete")
    for manager in service.pool_managers.values():
        tracer.patch(manager, "route", "pool_manager.route")
        tracer.patch(manager, "create_pool", "pool_manager.create_pool")
    tracer.patch(ResourcePool, "initialize", "resource_pool.initialize")
    tracer.patch(ResourcePool, "allocate", "resource_pool.allocate")
    tracer.patch(ResourcePool, "release", "resource_pool.release")
    tracer.patch(ResourcePool, "destroy", "resource_pool.destroy",
                 size=int)
    tracer.patch(stack.monitor, "refresh_once", "monitor.refresh", size=int)
    db = stack.database
    for attr in ("get", "update_dynamic", "match", "take_all",
                 "release_pool"):
        tracer.patch(db, attr, f"{db_layer}.{attr}", fold_inner=True,
                     size=len if attr == "match" else None)
    if stack.remote:
        tracer.patch(stack.client, "query", "client.query")
        tracer.patch(stack.client, "release", "client.release")
    return db_layer


class WorkerWindow:
    """The shard workers' public counters, summed over the traced blocks.

    ``open()`` and ``close()`` bracket one traced block with a
    ``metrics()`` snapshot each.  A snapshot is itself one request per
    shard, and the closing one counts inside its block.
    """

    #: Histogram series whose windowed count and sum are kept.
    SERIES = ("verb.get", "verb.update_dynamic", "wal.fsync")
    #: Summed ``wal`` stats whose deltas are kept.
    WAL = ("appended", "syncs", "bytes")

    def __init__(self, database) -> None:
        self._database = database
        self._before: Optional[List[Dict[str, Any]]] = None
        self._requests = 0
        self._wal: Counter = Counter()
        self._count: Counter = Counter()
        self._sum: Dict[str, float] = defaultdict(float)

    def _snapshot(self) -> List[Dict[str, Any]]:
        return self._database.metrics(max_spans=0)["per_shard"]

    def open(self) -> None:
        """Start a block."""
        self._before = self._snapshot()

    def close(self) -> None:
        """End the block and add its deltas."""
        for a, b in zip(self._snapshot(), self._before):
            self._requests += int(a["requests"]) - int(b["requests"]) - 1
            for key in self.WAL:
                self._wal[key] += (int(a["wal"].get(key, 0))
                                   - int(b["wal"].get(key, 0)))
            for series in self.SERIES:
                after = a["metrics"]["histograms"].get(series)
                if after:
                    delta = histogram_delta(
                        after, b["metrics"]["histograms"].get(series))
                    self._count[series] += delta.count
                    self._sum[series] += delta.sum
        self._before = None

    def requests(self) -> int:
        """Requests the workers served inside the blocks, excluding the
        closing ``metrics()`` probes."""
        return self._requests

    def wal(self, key: str) -> int:
        """Delta of one summed ``wal`` stat (``appended``, ``syncs``,
        ``bytes``)."""
        return self._wal[key]

    def mean_s(self, series: str) -> float:
        """Count-weighted mean of a histogram series over the blocks,
        across shards (0 when it recorded nothing)."""
        count = self._count[series]
        return self._sum[series] / count if count else 0.0


#: Span-name prefixes of code outside the layers the ledger names
#: (``core.pipeline``'s own glue): their self time counts as
#: unattributed.
UNNAMED = ("pipeline.",)
#: Metrics read from the shard workers or the TCP hop.
REMOTE_ONLY = ("shard_worker.get_mean_us",
               "shard_worker.update_dynamic_mean_us",
               "shard_worker.requests_per_cycle", "service.get_wire_us",
               "server.wire_submit_us", "server.wire_release_us",
               "wal.appends_per_cycle", "wal.syncs_per_cycle",
               "wal.bytes_per_cycle", "wal.fsync_mean_us")


def per_layer(tracer: Tracer, db_layer: str, cycles: int, wall_s: float,
              window: Optional[WorkerWindow],
              holder_checks: int) -> Dict[str, float]:
    """Every per-layer metric but ``trace.overhead_frac``.

    ``cycles`` (at least 1) ran in ``wall_s`` seconds.  Metrics of a
    layer the workload does not reach read 0.  ``window`` is None
    in-process.  ``holder_checks`` is the number of ``holder_of``
    correctness probes the benchmark sent to the workers inside it.
    """
    t = tracer
    us, ms = 1e6, 1e3
    allocs = t.calls["resource_pool.allocate"]
    sweeps = t.calls["janitor.sweep"]
    refreshed = t.sizes["monitor.refresh"]

    def per_cycle(name: str) -> float:
        return t.calls[name] / cycles

    out: Dict[str, float] = {
        "resource_pool.records_examined_per_alloc":
            t.under[("resource_pool.allocate", f"{db_layer}.get")] / allocs
            if allocs else 0.0,
        "resource_pool.allocate_us":
            t.mean_self("resource_pool.allocate") * us,
        "whitepages.match_ms": t.mean_total("whitepages.match") * ms,
        "whitepages.match_rows":
            t.sizes["whitepages.match"] / t.calls["whitepages.match"]
            if t.calls["whitepages.match"] else 0.0,
        "whitepages.take_all_us": t.mean_total("whitepages.take_all") * us,
        "whitepages.release_pool_us":
            t.mean_total("whitepages.release_pool") * us,
        "resource_pool.initialize_ms":
            t.mean_self("resource_pool.initialize") * ms,
        "pool_manager.create_pool_ms":
            t.mean_total("pool_manager.create_pool") * ms,
        "janitor.sweep_us": t.mean_total("janitor.sweep") * us,
        "janitor.machines_reclaimed_per_sweep":
            t.sizes["resource_pool.destroy"] / sweeps if sweeps else 0.0,
        "whitepages.get_us": t.mean_total("whitepages.get") * us,
        "whitepages.get_per_cycle": per_cycle("whitepages.get"),
        "whitepages.update_dynamic_us":
            t.mean_total("whitepages.update_dynamic") * us,
        "whitepages.update_dynamic_per_cycle":
            per_cycle("whitepages.update_dynamic"),
        "monitor.refresh_per_machine_us":
            t.total["monitor.refresh"] / refreshed * us if refreshed else 0.0,
        "service.get_us": t.mean_total("service.get") * us,
        "service.get_per_cycle": per_cycle("service.get"),
        "service.update_dynamic_us":
            t.mean_total("service.update_dynamic") * us,
        "translation.translate_us":
            t.mean_total("translation.translate") * us,
        "query_manager.admit_us": t.mean_self("query_manager.admit") * us,
        "query_manager.complete_us":
            t.mean_total("query_manager.complete") * us,
        "pool_manager.route_us": t.mean_self("pool_manager.route") * us,
    }
    if window is None:
        out.update(dict.fromkeys(REMOTE_ONLY, 0.0))
    else:
        worker_get = window.mean_s("verb.get")
        out.update({
            "shard_worker.get_mean_us": worker_get * us,
            "shard_worker.update_dynamic_mean_us":
                window.mean_s("verb.update_dynamic") * us,
            "shard_worker.requests_per_cycle":
                (window.requests() - holder_checks) / cycles,
            "service.get_wire_us":
                (t.mean_total("service.get") - worker_get) * us,
            "server.wire_submit_us":
                (t.mean_total("client.query")
                 - t.mean_total("pipeline.submit")) * us,
            "server.wire_release_us":
                (t.mean_total("client.release")
                 - t.mean_total("pipeline.release")) * us,
            "wal.appends_per_cycle": window.wal("appended") / cycles,
            "wal.syncs_per_cycle": window.wal("syncs") / cycles,
            "wal.bytes_per_cycle": window.wal("bytes") / cycles,
            "wal.fsync_mean_us": window.mean_s("wal.fsync") * us,
        })
    attributed = sum(self_s for name, self_s in t.self_time.items()
                     if not name.startswith(UNNAMED))
    out["ledger.unattributed_frac"] = (wall_s - attributed) / wall_s
    return out


def ledger_rows(tracer: Tracer, cycles: int, wall_s: float
                ) -> List[tuple]:
    """``(span, calls per cycle, self ms per cycle, share of wall)``
    rows, largest self time first."""
    rows = []
    for name, self_s in sorted(tracer.self_time.items(),
                               key=lambda kv: -kv[1]):
        rows.append((name, tracer.calls[name] / cycles,
                     self_s / cycles * 1e3, self_s / wall_s))
    return rows
