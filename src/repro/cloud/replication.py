"""Log shipping and replay between the RW node and RO replicas.

The pipeline is *real* at the data level and *simulated* at the timing
level: it subscribes to the primary's WAL, each COMMIT ships the data
records of its ``prev_lsn`` chain as one batch over a modelled network,
the batch is queued at the replica's replayer and applied to a real
replica database by :class:`~repro.engine.recovery.ReplicaApplier`.
A probe can therefore poll the replica with real queries and observe
exactly when a change becomes visible -- which is how the paper's
lag-time evaluator works.

Timing model per architecture (:class:`StorageProfile`):

* ship delay      = ``ship_hops`` x (network latency + serialisation)
* batching        = the replayer wakes every ``replay_batch_interval_s``
  and drains what has arrived (sequential-replay systems use long
  cadences; RDMA on-demand replay is sub-millisecond)
* replay duration = sum of per-record service times divided by
  ``replay_parallelism`` (parallel replay partitions by page)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.cloud.architectures import Architecture
from repro.engine.database import Database
from repro.engine.recovery import ReplicaApplier
from repro.engine.wal import COMMIT, DATA_KINDS, LogKind, LogRecord
from repro.obs import NULL_OBSERVER, Observer
from repro.sim.events import Environment, Event

if TYPE_CHECKING:  # annotation only: repro.chaos imports this module
    from repro.chaos.injector import ChaosInjector


class ReplicationPipeline:
    """Connects one primary to ``n_replicas`` real replica databases."""

    def __init__(
        self,
        env: Environment,
        arch: Architecture,
        primary: Database,
        n_replicas: int = 1,
        chaos: Optional[ChaosInjector] = None,
        observer: Optional[Observer] = None,
    ):
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        self.env = env
        self.arch = arch
        self.primary = primary
        self.chaos = chaos
        self.obs = observer or NULL_OBSERVER
        self.replicas: List[Database] = [
            primary.clone_full(f"{primary.name}-replica{i}")
            for i in range(n_replicas)
        ]
        self.appliers = [ReplicaApplier(replica) for replica in self.replicas]
        #: queued batches: (records, commit_lsn, commit_s)
        self._queues: List[List[Tuple[List[LogRecord], int, float]]] = [
            [] for _ in self.replicas
        ]
        self._wakeups: List[Optional[Event]] = [None] * n_replicas
        #: arrival time of the last shipped batch per replica: the log
        #: is a FIFO stream, so batches may never overtake each other
        self._last_arrival: List[float] = [0.0] * n_replicas
        primary.wal.add_append_listener(self._on_record)
        for index in range(n_replicas):
            env.process(self._replayer(index))

    # -- shipping ------------------------------------------------------------

    @staticmethod
    def replica_target(index: int) -> str:
        """Chaos-plan target name of replica ``index``."""
        return f"replica:{index}"

    def _ship_delay_s(self, records: List[LogRecord]) -> float:
        size = sum(record.byte_size() for record in records) + 64
        per_hop = self.arch.network.transfer_time(size)
        return self.arch.storage.ship_hops * per_hop

    def _on_record(self, record: LogRecord) -> None:
        # Runs inside the primary's COMMIT append: it reads only the log
        # and schedules DES processes, so a half-finished commit is safe.
        if record.kind is not COMMIT:
            return
        chain = self.primary.wal.transaction_chain(record.txn_id, record.prev_lsn)
        records = [data for data in reversed(chain) if data.kind in DATA_KINDS]
        if not records:
            return
        now = self.env.now
        for index in range(len(self.replicas)):
            # A severed link holds the batch at the primary until the
            # partition heals; a degraded link stretches the transfer.
            depart, factor = now, 1.0
            if self.chaos is not None:
                target = self.replica_target(index)
                if self.chaos.partitioned(target, now):
                    depart = self.chaos.heal_at(target, now)
                factor = self.chaos.delay_factor(target, depart)
            # FIFO stream: a batch arrives after its own transfer delay
            # but never before any batch committed earlier.
            arrival = max(
                self._last_arrival[index],
                depart + self._ship_delay_s(records) * factor,
            )
            self._last_arrival[index] = arrival
            self.env.process(
                self._deliver(index, record, records, arrival, now)
            )

    def _deliver(self, index: int, commit: LogRecord, records: List[LogRecord],
                 arrival: float, commit_s: float):
        yield self.env.timeout(max(0.0, arrival - self.env.now))
        self._queues[index].append((records, commit.lsn, commit_s))
        if self.obs.enabled:
            self.obs.count("repl.batches")
            self.obs.count("repl.records", len(records))
            self.obs.complete(
                "ship", "replication", commit_s, self.env.now,
                track=self.replica_target(index),
                attrs={"txn_id": commit.txn_id, "records": len(records)},
            )
        wakeup = self._wakeups[index]
        if wakeup is not None and not wakeup.triggered:
            wakeup.succeed()

    # -- replay ----------------------------------------------------------------

    def _record_service_s(self, record: LogRecord) -> float:
        service = self.arch.storage.replay_service_s
        if record.kind is LogKind.INSERT:
            return service.get("insert", 100e-6)
        if record.kind is LogKind.UPDATE:
            return service.get("update", 100e-6)
        if record.kind is LogKind.DELETE:
            return service.get("delete", 50e-6)
        return 0.0

    def _replayer(self, index: int):
        storage = self.arch.storage
        interval = storage.replay_batch_interval_s
        queue = self._queues[index]
        applier = self.appliers[index]
        while True:
            if not queue:
                wakeup = self.env.event()
                self._wakeups[index] = wakeup
                yield wakeup
                self._wakeups[index] = None
            # Batch cadence: wait for the next replay tick so that more
            # records can coalesce (sequential-replay systems batch long).
            yield self.env.timeout(interval)
            if self.chaos is not None:
                # A stalled replayer parks until the stall lifts; the
                # arrived batches coalesce into one big replay after.
                target = self.replica_target(index)
                stall = self.chaos.stalled_until(target, self.env.now)
                while stall is not None and stall > self.env.now:
                    yield self.env.timeout(stall - self.env.now)
                    stall = self.chaos.stalled_until(target, self.env.now)
            drained, queue[:] = queue[:], []
            total_service = sum(
                self._record_service_s(record)
                for records, _lsn, _commit_s in drained
                for record in records
            )
            replay_s = total_service / max(1, storage.replay_parallelism)
            if self.chaos is not None:
                replay_s *= self.chaos.slowdown(
                    self.replica_target(index), self.env.now
                )
            replay_start = self.env.now
            if replay_s > 0:
                yield self.env.timeout(replay_s)
            if drained and self.obs.enabled:
                self.obs.complete(
                    "replay", "replication", replay_start, self.env.now,
                    track=self.replica_target(index),
                    attrs={
                        "batches": len(drained),
                        "records": sum(len(r) for r, _, _ in drained),
                    },
                )
            for records, commit_lsn, commit_s in drained:
                applier.apply_batch(records, commit_lsn)
                if self.obs.enabled:
                    self.obs.observe("repl.lag_s", self.env.now - commit_s)

    # -- observability -----------------------------------------------------------

    def converged(self) -> bool:
        """True when every replica's content equals the primary's.

        This is the consistency check the paper's lag-time evaluator
        performs ("until the data is consistent between the RW node and
        RO nodes"), done with order-independent content hashes.  The
        evaluator itself probes one row; this whole-database form is the
        oracle the replication, chaos and recovery tests assert.
        """
        reference = self.primary.content_hash()
        return all(
            replica.content_hash() == reference for replica in self.replicas
        )
