"""Multiprocess worker model: one engine fleet per worker process.

The serving tier scales across cores the way the shard mp driver does:
fork one worker per requested slot, each building its **own** full
shard fleet from the same seed (identical data, no shared state) and
running its own asyncio :class:`~repro.serve.server.SQLServer` on a
shared ``SO_REUSEPORT`` socket.  The kernel load-balances incoming
connections across workers, so the client side needs no dispatcher --
it dials one address and lands on some worker; transaction affinity is
per *connection*, and a connection lives on exactly one worker, so the
semantics match the single-process server exactly (cross-worker
transactions do not exist, the honest boundary the mp shard driver
also draws).

When the environment refuses (no ``fork``, no ``SO_REUSEPORT``, or a
sandbox that blocks subprocesses) the cluster degrades to zero workers
and reports ``cluster-fallback`` so callers fall back to the
in-process server with honest labeling -- the same convention as the
shard driver's ``mp-fallback``.
"""

from __future__ import annotations

import os
import signal
import socket
import time
from typing import Dict, List, Optional, Tuple

#: seconds to wait for workers to report readiness / stats
_WORKER_TIMEOUT_S = 120.0


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


def _worker_main(
    worker_id: int,
    host: str,
    port: int,
    n_shards: int,
    seed: int,
    row_scale: float,
    qos: bool,
    max_connections: int,
    deadline_s: Optional[float],
    queue,
) -> None:
    """One worker's whole life: build a fleet, serve until SIGTERM."""
    import asyncio

    from repro.serve.server import ServerConfig, SQLServer
    from repro.shard.fleet import load_sales_fleet

    fleet, _data = load_sales_fleet(
        n_shards, row_scale=row_scale, seed=seed,
        name=f"serve-w{worker_id}",
    )
    config = ServerConfig(
        host=host, port=port, qos=qos,
        max_connections=max_connections, deadline_s=deadline_s,
        name=f"serve.w{worker_id}",
    )
    server = SQLServer(fleet, config)

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        await server.start(sock=_reuseport_socket(host, port))
        queue.put({"event": "ready", "worker": worker_id})
        await stop.wait()
        # graceful handover: finish admitted statements, shed the rest
        # retryably, then close
        await server.stop(drain=True)
        queue.put({
            "event": "stats",
            "worker": worker_id,
            "accepted": server.accepted,
            "rejected": server.rejected,
            "statements": server.statements,
            "errors": server.errors,
            "shed": server.shed,
            "expired": server.expired,
            "abrupt_disconnects": server.abrupt_disconnects,
            "orphan_rollbacks": server.orphan_rollbacks,
            "fsyncs": fleet.fsyncs,
        })

    asyncio.run(main())


class ServeCluster:
    """``workers`` forked SQL servers behind one SO_REUSEPORT address."""

    def __init__(
        self,
        workers: int,
        n_shards: int = 2,
        seed: int = 42,
        row_scale: float = 0.002,
        qos: bool = True,
        max_connections: int = 2048,
        deadline_s: Optional[float] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.n_shards = n_shards
        self.seed = seed
        self.row_scale = row_scale
        self.qos = qos
        self.max_connections = max_connections
        self.deadline_s = deadline_s
        self.host = "127.0.0.1"
        self.port = 0
        self.driver = "cluster"
        self._procs: List = []
        self._queue = None
        self.worker_stats: List[Dict] = []

    def start(self) -> Optional[Tuple[str, int]]:
        """Fork the workers; ``None`` (driver ``cluster-fallback``) when
        the environment cannot run them."""
        try:
            import multiprocessing

            # probe SO_REUSEPORT and pick the shared port up front
            probe = _reuseport_socket(self.host, 0)
            self.port = probe.getsockname()[1]
            context = multiprocessing.get_context("fork")
            self._queue = context.Queue()
            self._procs = [
                context.Process(
                    target=_worker_main,
                    args=(
                        worker_id, self.host, self.port, self.n_shards,
                        self.seed, self.row_scale, self.qos,
                        self.max_connections, self.deadline_s, self._queue,
                    ),
                )
                for worker_id in range(self.workers)
            ]
            for proc in self._procs:
                proc.start()
            deadline = time.monotonic() + _WORKER_TIMEOUT_S
            ready = 0
            while ready < self.workers:
                self._queue.get(timeout=max(0.1, deadline - time.monotonic()))
                ready += 1
            # the probe socket must outlive worker binds, not the run:
            # close it now so it never accepts a connection itself
            probe.close()
            return self.host, self.port
        except Exception:
            self.stop()
            self.driver = "cluster-fallback"
            return None

    def stop(self) -> List[Dict]:
        """SIGTERM the workers and collect their final stats."""
        procs, self._procs = self._procs, []
        for proc in procs:
            if proc.is_alive():
                os.kill(proc.pid, signal.SIGTERM)
        stats: List[Dict] = []
        if self._queue is not None:
            for _ in procs:
                try:
                    entry = self._queue.get(timeout=_WORKER_TIMEOUT_S)
                    if entry.get("event") == "stats":
                        stats.append(entry)
                except Exception:
                    break
        for proc in procs:
            proc.join(timeout=_WORKER_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
        self.worker_stats = sorted(stats, key=lambda s: s.get("worker", 0))
        return self.worker_stats

    def __enter__(self) -> "ServeCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
