"""Top-level serve drivers: boot a server, drive load, report.

:func:`run_serve` is what the ``serve`` evaluator calls: it boots
the serving tier -- one in-process :class:`~repro.serve.server.SQLServer`
-- drives it with the :mod:`~repro.serve.loadgen` generator at one
connection count, and returns a :class:`ServeRunResult`.
:func:`run_sweep` repeats that across a list of connection counts --
the TPS / p50 / p99 *versus connection count* curve the evaluator
reports.

The server and the load generator share **one** event loop in one
process.  That is not a toy shortcut: the engine is synchronous pure
Python, so a separate server process would measure the same
single-CPU execution plus context switches.  What the socket adds --
framing, serialization, admission queueing, per-connection sessions --
is exactly what this driver measures, and the loopback socket is real
(real TCP, real partial reads, real connection drops).  Every counter
is deterministic per seed.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.perf.openloop import parse_arrival
from repro.serve.loadgen import run_load
from repro.serve.server import ServeFaultInjector, ServerConfig, SQLServer
from repro.shard.fleet import load_sales_fleet
from repro.shard.workload import primary_keys

__all__ = [
    "BackgroundServer",
    "ServeRunResult",
    "collect_keys",
    "run_serve",
    "run_sweep",
]


@dataclass
class ServeRunResult:
    """Outcome of one serve drive at one connection count."""

    connections: int
    qos: bool
    persona: str
    arrival: str
    offered: int
    committed: int
    aborted: int
    shed: int
    expired: int
    errors: int
    reconnects: int
    lost: int
    rejected: int
    deadline_misses: int
    wall_s: float
    tps: float
    goodput_tps: float
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: server-side accounting
    server: Dict[str, int] = field(default_factory=dict)
    fsyncs: int = 0


def collect_keys(fleet) -> Dict[str, List[int]]:
    """The fleet-wide order/customer key space for load personas."""
    orders: List[int] = []
    customers: List[int] = []
    for shard in fleet.shards:
        orders.extend(primary_keys(shard, "ORDERS"))
        customers.extend(primary_keys(shard, "CUSTOMER"))
    return {"orders": sorted(orders), "customers": sorted(customers)}


class BackgroundServer:
    """An in-process :class:`SQLServer` on a daemon thread.

    For *blocking* clients -- synchronous workloads recoded against the
    :class:`~repro.core.client.Client` protocol use this to run over a
    real socket (``transport="socket"``) without restructuring around
    asyncio: the server's event loop lives on its own thread, the
    workload keeps its plain call-and-return shape.  The fleet is only
    ever touched from the server thread once :meth:`start` returns, so
    there is no cross-thread engine access.
    """

    def __init__(self, fleet, observer=None):
        self.fleet = fleet
        self.config = ServerConfig(qos=False)
        self.observer = observer
        self.server: Optional[SQLServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop = None
        self._stop_event = None
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(
            target=self._thread_main, name="serve-bg", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise self._error
        if self.server is None:
            raise RuntimeError("background server failed to start")
        return self.server.address

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 -- surfaced to start()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self.server = SQLServer(self.fleet, self.config, observer=self.observer)
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _server_stats(server: SQLServer) -> Dict[str, int]:
    return {
        "accepted": server.accepted,
        "rejected": server.rejected,
        "statements": server.statements,
        "errors": server.errors,
        "shed": server.shed,
        "expired": server.expired,
        "abrupt_disconnects": server.abrupt_disconnects,
        "orphan_rollbacks": server.orphan_rollbacks,
    }


def run_serve(
    connections: int,
    txns_per_conn: int,
    n_shards: int = 2,
    qos: bool = True,
    persona: str = "payment",
    arrival: str = "closed",
    rate_tps: Optional[float] = None,
    deadline_s: Optional[float] = None,
    seed: int = 42,
    row_scale: float = 0.002,
    max_connections: int = 2048,
    max_queue: int = 64,
    observer=None,
    fault_plan=None,
) -> ServeRunResult:
    """Boot the serving tier, drive it, and aggregate both sides.

    An open ``arrival`` spec needs ``rate_tps`` (total offered rate
    across all connections).
    """
    from repro.qos.admission import AdmissionPolicy

    spec = parse_arrival(arrival)
    if spec.is_open and rate_tps is None:
        rate_tps = spec.rate
    fleet, _data = load_sales_fleet(
        n_shards, row_scale=row_scale, seed=seed, name="serve",
        observer=observer,
    )
    keys = collect_keys(fleet)
    injector = (
        ServeFaultInjector(fault_plan, seed=seed)
        if fault_plan is not None else None
    )
    config = ServerConfig(
        qos=qos, max_connections=max_connections, deadline_s=deadline_s,
        policy=AdmissionPolicy(max_queue=max_queue),
    )
    server = SQLServer(fleet, config, observer=observer, fault_injector=injector)

    async def drive():
        host, port = await server.start()
        try:
            return await run_load(
                host, port,
                connections=connections, txns_per_conn=txns_per_conn,
                keys=keys, persona=persona, seed=seed,
                arrival=spec if spec.is_open else None,
                rate_tps=rate_tps, deadline_s=deadline_s,
            )
        finally:
            await server.stop()

    load = asyncio.run(drive())
    return ServeRunResult(
        connections=connections,
        qos=qos,
        persona=persona,
        arrival=spec.describe(),
        offered=load.offered,
        committed=load.committed,
        aborted=load.aborted,
        shed=load.shed,
        expired=load.expired,
        errors=load.errors,
        reconnects=load.reconnects,
        lost=load.lost,
        rejected=load.rejected,
        deadline_misses=load.deadline_misses,
        wall_s=load.wall_s,
        tps=load.tps,
        goodput_tps=load.goodput_tps,
        latency_ms=load.histogram.latency_summary_ms(),
        server=_server_stats(server),
        fsyncs=fleet.fsyncs,
    )


def run_sweep(
    connection_counts: Sequence[int],
    txns_per_conn: int,
    **kwargs,
) -> List[ServeRunResult]:
    """One :func:`run_serve` per connection count (fresh server each)."""
    return [
        run_serve(connections, txns_per_conn, **kwargs)
        for connections in connection_counts
    ]
