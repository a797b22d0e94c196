"""Load drivers for the shard fleet: inline and multiprocess.

Two ways to push the payment workload through a fleet:

* **inline** -- one process owns every shard; supports any cross-shard
  ratio because the coordinator and all participants share an address
  space.  CPU time is serialized across shards, so inline numbers show
  2PC *overhead*, not scale-out.
* **mp** -- one OS process per shard, each loading its own slice of the
  data (:func:`~repro.shard.fleet.load_sales_shard`) and hammering it
  independently.  Cross-shard transactions are unsupported (there is no
  cross-process coordinator transport in this testbed), which is the
  honest boundary: the mp driver measures the single-shard fast path.

Throughput metric: wall-clock TPS is meaningless on a 1-core CI box
where N workers time-slice one CPU, so the driver also reports
**node-time TPS** -- total commits divided by the *maximum per-worker
CPU time* (``time.process_time``).  With one core per shard (the
deployment sharding assumes) node time equals wall time, so node-time
TPS is the fleet's throughput on real hardware; this is the number the
scale-out acceptance criterion checks.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import spelled
from repro.perf.openloop import parse_arrival, replay_closed_run
from repro.shard.fleet import load_sales_fleet, load_sales_shard
from repro.shard.router import ShardError
from repro.shard.workload import ShardSalesWorkload

#: seconds the multiprocess workers may run before the driver gives up
_WORKER_TIMEOUT_S = 600.0
#: seconds between looks at the workers while no result is queued
_WORKER_POLL_S = 0.2
#: the load drivers ``run_scaleout`` accepts
DRIVERS = ("inline", "mp")
#: what the inline driver's workload speaks through
TRANSPORTS = ("inline", "socket")


@dataclass
class ShardRunResult:
    """Outcome of one fleet load-driver run."""

    n_shards: int
    driver: str  # "inline" | "socket" | "mp" | "mp-fallback"
    cross_ratio: float
    transactions: int
    committed: int
    aborted: int
    cross_committed: int
    wall_s: float
    #: max per-worker CPU seconds (inline: total CPU seconds)
    node_s: float
    fsyncs: int
    #: arrival process the latency block was recorded under
    arrival: str = "closed"
    #: per-txn service-time percentiles (ms), when latency recording is on
    latency_ms: Dict[str, float] = field(default_factory=dict)
    #: CO-free sojourn-time percentiles (ms), open arrivals only
    openloop_latency_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def tps_node(self) -> float:
        return self.committed / self.node_s if self.node_s > 0 else 0.0


def run_inline(
    n_shards: int,
    transactions: int,
    cross_ratio: float = 0.0,
    seed: int = 42,
    row_scale: float = 0.002,
    observer=None,
    arrival: str = "closed",
    transport: str = "inline",
) -> ShardRunResult:
    """Drive one in-process fleet through ``transactions`` payments.

    ``arrival`` selects the latency recording (see
    :func:`repro.perf.openloop.parse_arrival`): ``closed`` keeps the
    seed behaviour (no per-txn timing at all -- zero overhead on the
    hot loop); an open spec records per-txn service times and replays
    them against a seeded arrival schedule for the
    coordinated-omission-free sojourn percentiles.  An ``auto`` rate
    pins the offered load at the observed service rate (the knee).

    ``transport`` picks the :class:`~repro.core.client.Client` the
    workload speaks through: ``"inline"`` (default) is the in-process
    :class:`~repro.core.client.FleetClient`; ``"socket"`` boots a
    loopback :class:`~repro.serve.server.SQLServer` over the same fleet
    and drives the identical workload through a
    :class:`~repro.serve.client.SocketClient` -- same seeds, same
    statement sequence, same counters, but every statement pays the
    real wire.
    """
    if transactions < 1:
        raise ValueError("transactions must be >= 1")
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; use {spelled(TRANSPORTS)}")
    spec = parse_arrival(arrival)
    fleet, _data = load_sales_fleet(
        n_shards, row_scale=row_scale, seed=seed, observer=observer
    )
    background = None
    client = None
    if transport == "socket":
        from repro.serve.client import SocketClient
        from repro.serve.driver import BackgroundServer

        background = BackgroundServer(fleet, observer=observer)
        host, port = background.start()
        client = SocketClient(host, port, client_name="shard-inline")
    try:
        workload = ShardSalesWorkload(
            fleet, cross_ratio=cross_ratio, seed=seed, client=client
        )
        fsyncs_before = fleet.fsyncs
        service_s: List[float] = []
        wall_start = time.perf_counter()
        cpu_start = time.process_time()
        if spec.is_open:
            for _ in range(transactions):
                begin = time.perf_counter()
                workload.run_one()
                service_s.append(time.perf_counter() - begin)
        else:
            for _ in range(transactions):
                workload.run_one()
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - wall_start
        if client is not None:
            client.close()
    finally:
        if background is not None:
            background.stop()
    latency_ms: Dict[str, float] = {}
    openloop_ms: Dict[str, float] = {}
    if spec.is_open:
        from repro.sim.rng import RngRegistry

        replay = replay_closed_run(
            spec, service_s, wall_s, RngRegistry(seed).stream("shard.arrival")
        )
        openloop_ms = replay.histogram.latency_summary_ms()
        latency_ms = replay.service_histogram.latency_summary_ms()
        if observer is not None and observer.enabled:
            for duration in service_s:
                observer.observe("shard.txn.service_s", duration)
    return ShardRunResult(
        n_shards=n_shards,
        driver="inline" if transport == "inline" else "socket",
        cross_ratio=cross_ratio,
        transactions=transactions,
        committed=workload.committed,
        aborted=workload.aborted,
        cross_committed=workload.cross_committed,
        wall_s=wall_s,
        node_s=cpu_s,
        fsyncs=fleet.fsyncs - fsyncs_before,
        arrival=spec.describe(),
        latency_ms=latency_ms,
        openloop_latency_ms=openloop_ms,
    )


def _run_local_shard(
    shard_id: int,
    n_shards: int,
    transactions: int,
    seed: int,
    row_scale: float,
) -> Dict:
    """One worker's whole life: load its slice, run its transactions."""
    db = load_sales_shard(shard_id, n_shards, row_scale=row_scale, seed=seed)
    workload = ShardSalesWorkload.on_shard(db, shard_id, seed=seed)
    fsyncs_before = db.wal.fsyncs
    cpu_start = time.process_time()
    for _ in range(transactions):
        workload.run_one()
    return {
        "committed": workload.committed,
        "aborted": workload.aborted,
        "cpu_s": time.process_time() - cpu_start,
        "fsyncs": db.wal.fsyncs - fsyncs_before,
    }


def _mp_worker(results, shard_id, *shape):
    """Queue ``(shard_id, stats)`` -- or the exception that ended the run."""
    try:
        outcome = _run_local_shard(shard_id, *shape)
    except Exception as error:  # the parent re-raises it
        outcome = error
    results.put((shard_id, outcome))


def _split(total: int, parts: int) -> List[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if index < extra else 0) for index in range(parts)]


def run_multiprocess(
    n_shards: int,
    transactions: int,
    seed: int = 42,
    row_scale: float = 0.002,
) -> ShardRunResult:
    """One worker per shard, each with a private slice of the data.

    ``transactions`` is the fleet total, split evenly across shards.
    There is no cross-process coordinator, so every transaction stays on
    its shard (``run_scaleout`` refuses a cross ratio for this driver).
    If spawning OS processes is refused (restricted sandboxes), the
    workers run sequentially in-process -- the per-shard results are
    identical (same seeds, no shared state), only the wall clock
    differs, and the driver label says ``mp-fallback`` so reports stay
    honest.  A worker that *fails* is not papered over that way: its
    exception is re-raised here.
    """
    if transactions < 1:
        raise ValueError("transactions must be >= 1")
    per_shard_txns = _split(transactions, n_shards)
    wall_start = time.perf_counter()
    stats: Optional[List[Dict]] = None
    driver = "mp"
    if n_shards > 1:
        stats = _try_processes(n_shards, per_shard_txns, seed, row_scale)
    if stats is None:
        driver = "mp-fallback" if n_shards > 1 else "mp"
        stats = [
            _run_local_shard(
                shard_id, n_shards, per_shard_txns[shard_id], seed, row_scale,
            )
            for shard_id in range(n_shards)
        ]
    wall_s = time.perf_counter() - wall_start
    return ShardRunResult(
        n_shards=n_shards,
        driver=driver,
        cross_ratio=0.0,
        transactions=transactions,
        committed=sum(entry["committed"] for entry in stats),
        aborted=sum(entry["aborted"] for entry in stats),
        cross_committed=0,
        wall_s=wall_s,
        node_s=max(entry["cpu_s"] for entry in stats),
        fsyncs=sum(entry["fsyncs"] for entry in stats),
    )


def _try_processes(
    n_shards: int,
    per_shard_txns: List[int],
    seed: int,
    row_scale: float,
) -> Optional[List[Dict]]:
    """Fork one worker per shard; None when the environment refuses.

    Raises what a worker raised, or :class:`ShardError` for a worker
    that died (or overran ``_WORKER_TIMEOUT_S``) with nothing queued;
    either way the other children are reaped first.
    """
    try:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        results = context.Queue()
    except (ImportError, OSError, ValueError):
        return None  # no fork, or no semaphores
    workers = [
        context.Process(
            target=_mp_worker,
            args=(
                results, shard_id, n_shards, per_shard_txns[shard_id],
                seed, row_scale,
            ),
        )
        for shard_id in range(n_shards)
    ]
    try:
        for worker in workers:
            try:
                worker.start()
            except OSError:
                return None  # no more processes
        return _collect(workers, results)
    finally:
        for worker in workers:
            if worker.pid is not None:  # it was started
                if worker.is_alive():
                    worker.terminate()
                worker.join()


def _collect(workers, results) -> List[Dict]:
    """One stats dict per worker, or the first failure among them."""
    stats: Dict[int, Dict] = {}
    deadline = time.monotonic() + _WORKER_TIMEOUT_S
    while len(stats) < len(workers):
        # Looked at before the read: a worker flushes its queue before it
        # exits, so one seen dead here has its result, if any, readable.
        lost = [
            shard_id for shard_id, worker in enumerate(workers)
            if shard_id not in stats and not worker.is_alive()
        ]
        try:
            shard_id, outcome = results.get(timeout=_WORKER_POLL_S)
        except queue.Empty:
            if lost:
                codes = [workers[shard_id].exitcode for shard_id in lost]
                raise ShardError(
                    f"shard worker(s) {lost} exited without a result "
                    f"(exit codes {codes})"
                ) from None
            if time.monotonic() > deadline:
                raise ShardError(
                    f"shard workers still running after {_WORKER_TIMEOUT_S:g} s"
                ) from None
            continue
        if isinstance(outcome, Exception):
            raise outcome
        stats[shard_id] = outcome
    return list(stats.values())


def run_scaleout(
    shard_counts: List[int],
    transactions: int,
    cross_ratio: float = 0.0,
    seed: int = 42,
    row_scale: float = 0.002,
    driver: str = "inline",
    observer=None,
    arrival: str = "closed",
    transport: str = "inline",
) -> List[ShardRunResult]:
    """Sweep shard counts with a fixed workload; one result per count.

    ``arrival`` and ``transport`` belong to the inline driver (the mp
    driver's workers are process-isolated engines with no coordinator,
    no latency recording and no socket in front); ``"socket"`` reruns
    the same sweep through the serving tier's loopback socket.  Asking
    the mp driver for any of them is refused before anything is loaded.
    """
    if driver not in DRIVERS:
        raise ValueError(f"unknown driver {driver!r}; use {spelled(DRIVERS)}")
    if driver == "mp":
        for option, value, conflicts in (
            ("cross", cross_ratio, cross_ratio != 0.0),
            ("arrival", arrival, parse_arrival(arrival).is_open),
            ("transport", transport, transport != "inline"),
        ):
            if conflicts:
                raise ValueError(
                    f"driver='mp' does not support {option}={value!r}; "
                    "use driver='inline'"
                )
    results = []
    for n_shards in shard_counts:
        if driver == "mp":
            results.append(run_multiprocess(
                n_shards, transactions, seed=seed, row_scale=row_scale,
            ))
        else:
            results.append(run_inline(
                n_shards, transactions, cross_ratio=cross_ratio, seed=seed,
                row_scale=row_scale, observer=observer, arrival=arrival, transport=transport,
            ))
    return results
