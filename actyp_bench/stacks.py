"""The three workloads: their seeded inputs, the stacks they run on, and
the calls one closed-loop cycle makes.

Every stack is assembled with the program's live defaults: the
pipeline comes from ``build_service`` with no config override (so
``ResourcePoolConfig.linear_scan`` stays ``True``), and the remote
white pages is a ``build_shard_service`` fleet (``wal="fsync"``) behind
a ``ShardServiceClient``, as ``repro serve --shard-service`` builds it.
The stacks only call the program's public API; the benchmark never
reaches into private state.
"""

from __future__ import annotations

import asyncio
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, NamedTuple, Optional

import numpy as np

from repro.core.pipeline import build_service
from repro.database.service import ShardServiceClient
from repro.fleet import FleetSpec, build_database, build_fleet, \
    build_shard_service
from repro.monitoring.collectors import OrnsteinUhlenbeckLoadCollector
from repro.monitoring.monitor import ResourceMonitor
from repro.runtime.client import ActYPClient
from repro.runtime.server import ActYPServer

#: ``repro serve``'s default pool-manager count, used by every stack.
POOL_MANAGERS = 2
#: Distinct ``punch.user.login`` values in the query streams.
USERS = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: fleet shape, stack, and cycle shape."""

    name: str
    machines: int
    stripes: int
    #: Pools created during set-up; 0 means every cycle creates its own.
    warm_pools: int
    #: Shard workers behind the white pages; 0 means in-process.
    shards: int
    #: A monitor pass refreshes ``monitor_machines`` seeded-random
    #: machines every ``monitor_every`` cycles.
    monitor_machines: int
    monitor_every: int
    #: Each cycle ends with ``sweep_idle_pools(now, idle_timeout_s=0)``.
    churn: bool

    @property
    def wal(self) -> str:
        """WAL mode of the white pages ("none" when in-process)."""
        return "fsync" if self.shards else "none"

    def context(self, seed: int) -> dict:
        """What every result is recorded with."""
        return {"workload": self.name, "seed": seed,
                "machines": self.machines, "stripes": self.stripes,
                "warm_pools": self.warm_pools, "shards": self.shards,
                "wal": self.wal, "monitor_machines": self.monitor_machines,
                "monitor_every": self.monitor_every}


#: Why each workload exists is in ``BENCHMARK.json`` and the README.
WORKLOADS = {w.name: w for w in (
    Workload("steady_alloc",
             machines=20000, stripes=8, warm_pools=8, shards=0,
             monitor_machines=64, monitor_every=1, churn=False),
    Workload("pool_churn",
             machines=20000, stripes=32, warm_pools=0, shards=0,
             monitor_machines=64, monitor_every=6, churn=True),
    Workload("remote_serve",
             machines=20000, stripes=256, warm_pools=8, shards=2,
             # Each remote write is an fsynced WAL append: a 64-machine
             # pass every 6 cycles took a third to a half of wall time,
             # and the workload's timings spread up to 0.47 between runs.
             monitor_machines=16, monitor_every=6, churn=False),
)}


def _text(stripe: int, user: int, memory: Optional[int] = None) -> str:
    lines = [f"punch.rsrc.pool = p{stripe:02d}"]
    if memory is not None:
        lines.append(f"punch.rsrc.memory = >={memory}")
    lines.append(f"punch.user.login = user{user}")
    return "\n".join(lines)


class Inputs:
    """The seeded input streams of one run.

    The program sees only what these produce: query texts, the machine
    names a monitor pass refreshes, and the synthetic clock.
    """

    def __init__(self, workload: Workload, seed: int, names: List[str]):
        rng = random.Random(seed)
        if workload.warm_pools:
            stripes = (list(range(workload.stripes))
                       if workload.warm_pools == workload.stripes
                       else sorted(rng.sample(range(workload.stripes),
                                              workload.warm_pools)))
            self.warm_texts = [_text(s, 0) for s in stripes]
            self._texts = [_text(s, u) for s in stripes
                           for u in range(USERS)]
        else:
            self.warm_texts = []
            self._texts = []
        self._workload = workload
        self._rng = rng
        self._names = names

    def queries(self) -> Iterator[str]:
        """The closed loop's query texts, one per cycle."""
        rng = self._rng
        while True:
            if self._workload.churn:
                # memory >= M with M in (256, 512] keeps ~47% of a
                # 625-machine stripe: a ~300-machine pool whose name
                # (stripe, M) is almost always new.
                yield _text(rng.randrange(self._workload.stripes),
                            rng.randrange(USERS), rng.randint(257, 512))
            else:
                yield self._texts[rng.randrange(len(self._texts))]

    def monitor_batch(self) -> List[str]:
        """The machines of the next monitor pass."""
        return self._rng.sample(self._names,
                                self._workload.monitor_machines)


class Allocated(NamedTuple):
    """What a submit returned, in one shape for every stack."""

    ok: bool
    access_key: str
    machine: str
    pool: str
    error: str


def _spec(workload: Workload, seed: int) -> FleetSpec:
    return FleetSpec(size=workload.machines, stripe_pools=workload.stripes,
                     seed=seed)


def _monitor(database, seed: int) -> ResourceMonitor:
    return ResourceMonitor(database, OrnsteinUhlenbeckLoadCollector(),
                           rng=np.random.default_rng(seed))


class InProcessStack:
    """``build_service`` (2 pool managers, shadow accounts) over an
    in-process ``WhitePagesDatabase``."""

    remote = False

    def __init__(self, workload: Workload, seed: int):
        self.database, shadows = build_database(_spec(workload, seed),
                                                with_shadows=True)
        self.service = build_service(self.database,
                                     n_pool_managers=POOL_MANAGERS,
                                     shadow_registry=shadows)
        self.monitor = _monitor(self.database, seed)

    async def submit(self, text: str, now: float) -> Allocated:
        """One query through the pipeline to an allocation."""
        result = self.service.submit(text, now=now)
        alloc, error = result.allocation, result.error or ""
        if alloc is None:
            return Allocated(result.ok, "", "", "", error)
        return Allocated(result.ok, alloc.access_key, alloc.machine_name,
                         alloc.pool_name, error)

    async def release(self, access_key: str) -> None:
        """Release one allocation."""
        self.service.release(access_key)

    def run(self, coroutine):
        """Run one of the benchmark's coroutines to completion."""
        return asyncio.run(coroutine)

    def now(self, clock) -> float:
        """The pipeline's clock: the benchmark's synthetic one."""
        return clock.tick()

    def close(self) -> None:
        """Nothing to stop in-process."""


class RemoteStack:
    """``ActYPServer`` on loopback over ``build_service`` over a
    ``ShardServiceClient`` to a ``build_shard_service`` fleet, driven by
    one ``ActYPClient``.

    The server and the client share one event loop in this process; the
    shard workers are the supervisor's processes.
    """

    remote = True

    def __init__(self, workload: Workload, seed: int, state_dir: Path):
        self._state_dir = state_dir
        self.supervisor = build_shard_service(
            workload.shards, state_dir,
            records=build_fleet(_spec(workload, seed)))
        self.database = self.server = self.client = None
        self.loop = asyncio.new_event_loop()
        try:
            self.supervisor.start()
            self.database = ShardServiceClient(self.supervisor.endpoints)
            self.service = build_service(self.database,
                                         n_pool_managers=POOL_MANAGERS)
            self.monitor = _monitor(self.database, seed)
            self.server = ActYPServer(self.service)
            self.loop.run_until_complete(self.server.start("127.0.0.1", 0))
            self.client = ActYPClient("127.0.0.1", self.server.port)
            self.loop.run_until_complete(self.client.connect())
        except BaseException:
            self.close()
            raise

    async def submit(self, text: str, now: float) -> Allocated:
        """One query over TCP to an allocation (``now`` is the
        server's clock)."""
        frame = await self.client.query(text)
        alloc = frame.get("allocation") or {}
        return Allocated(bool(frame.get("ok")), alloc.get("access_key", ""),
                         alloc.get("machine_name", ""),
                         alloc.get("pool_name", ""), frame.get("error", ""))

    async def release(self, access_key: str) -> None:
        """Release one allocation over TCP."""
        await self.client.release(access_key)

    def run(self, coroutine):
        """Run one of the benchmark's coroutines on the server's loop."""
        return self.loop.run_until_complete(coroutine)

    def now(self, clock) -> float:
        """The pipeline's clock: the server stamps submits with its
        loop's time."""
        return self.loop.time()

    def worker_pids(self) -> List[int]:
        """The shard workers' process ids, from ``health()``."""
        return [int(h["pid"]) for h in self.database.health()]

    def close(self) -> None:
        """Tear down in order: client, then server, then supervisor."""
        try:
            if self.client is not None:
                self.loop.run_until_complete(self.client.close())
            if self.server is not None:
                self.loop.run_until_complete(self.server.stop())
            if self.database is not None:
                self.database.close()
        finally:
            self.supervisor.stop()
            self.loop.close()
            shutil.rmtree(self._state_dir, ignore_errors=True)


def build_stack(workload: Workload, seed: int, state_dir: Path):
    """Assemble the workload's stack (not yet warm)."""
    if workload.shards:
        return RemoteStack(workload, seed, state_dir)
    return InProcessStack(workload, seed)
