"""Online fuzzy backup: per-shard MVCC images cut at a global barrier.

The job never blocks writers.  On each shard it opens a SNAPSHOT
transaction (the *pin*) and images every table with
``snapshot_scan(pin.snapshot_lsn, ...)`` -- transactions committing
while the copy runs are simply invisible to it, and the pin also holds
the vacuum horizon so the chains it reads cannot be collapsed under
it.  The pin's snapshot LSN *is* the shard's barrier LSN: the image
contains exactly the commits at or below it, and restore replays the
archived records above it.

The barrier is **2PC-aware**: the cut is refused while any non-pin
transaction -- active *or* prepared-but-undecided -- holds logged work
on any shard, because such a transaction's records would straddle the
barrier (some below, its decision above) and the image would tear it.
In the testbed's single-threaded protocol the only way to hit this is
a dangling prepared branch left by a coordinator crash; the error says
so and tells the caller to run fleet recovery first.  In-doubt
branches *inside* the replay range are fine -- restore resolves them
with the same commit-iff-any-shard-holds-DECISION rule as
``fleet.recover()``.

Crash points are the 2PC coordinator's, inherited
(:class:`~repro.shard.coordinator.PhaseFaults`): :data:`BACKUP_PHASES`
names every phase boundary, ``arm_crash`` kills the job there
(:class:`BackupCrash`), ``arm_action`` runs an arbitrary action there
(the crash matrix kills shard WALs; the online-ness test injects a
concurrent transfer), and a chaos plan can fire ``BACKUP_CRASH`` specs
at the same boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.plan import FaultKind
from repro.dr.archive import FleetArchiver
from repro.engine.errors import EngineError, SimulatedCrash
from repro.engine.txn import IsolationLevel, Transaction
from repro.engine.types import Schema
from repro.obs import Observer
from repro.shard.coordinator import PhaseFaults

#: backup phase boundaries a crash can be scheduled at
BACKUP_PHASES = ("before_pin", "after_pin", "after_image", "after_manifest")


class BackupCrash(SimulatedCrash):
    """The backup job's process died at a phase boundary (retryable)."""


@dataclass
class TableImage:
    """One table's schema, secondary indexes, and as-of-barrier rows."""

    schema: Schema
    #: (name, columns, unique, ordered) per secondary index
    indexes: List[Tuple[str, Tuple[str, ...], bool, bool]] = field(
        default_factory=list
    )
    rows: List[Tuple[Any, ...]] = field(default_factory=list)


@dataclass
class ShardBackup:
    """One shard's slice of the backup."""

    shard_name: str
    barrier_lsn: int
    tables: List[TableImage] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(len(image.rows) for image in self.tables)


@dataclass
class BackupManifest:
    """Everything restore needs: images, barrier vector, archive seal."""

    name: str
    shards: List[ShardBackup] = field(default_factory=list)
    #: table -> partition column (the router registration to rebuild)
    partition_keys: Dict[str, str] = field(default_factory=dict)
    #: per shard: highest archived LSN when the backup sealed -- the
    #: default point-in-time target (and the proof the archive covered
    #: the whole log above the barrier at backup time)
    archive_end: List[int] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def barrier(self) -> List[int]:
        return [shard.barrier_lsn for shard in self.shards]

    @property
    def total_rows(self) -> int:
        return sum(shard.rows for shard in self.shards)


#: tries at a clean global cut before an online backup refuses
MAX_BARRIER_ATTEMPTS = 8


class BackupJob(PhaseFaults):
    """One online backup run over a sharded fleet."""

    phases = BACKUP_PHASES
    crash_class = BackupCrash
    chaos_kind = FaultKind.BACKUP_CRASH
    crash_event = ("dr.backup_crash", "dr")
    role = protocol = "backup"

    def __init__(
        self,
        fleet,
        archiver: FleetArchiver,
        chaos=None,
        name: str = "backup",
        observer: Optional[Observer] = None,
    ):
        if archiver.fleet is not fleet:
            raise EngineError("archiver is attached to a different fleet")
        super().__init__(chaos, name, observer)
        self.fleet = fleet
        self.archiver = archiver
        self.runs = 0

    # -- the run -------------------------------------------------------------

    def run(self) -> BackupManifest:
        """Take one online backup; returns the manifest."""
        self.runs += 1
        self._crash_point("before_pin")
        pins = self._acquire_pins()
        try:
            self._crash_point("after_pin")
            shards = [
                self._image_shard(shard, pin)
                for shard, pin in zip(self.fleet.shards, pins)
            ]
            self._crash_point("after_image")
        finally:
            for pin in pins:
                self._release_pin(pin)
        manifest = self._seal(shards)
        self._crash_point("after_manifest")
        if self.obs.enabled:
            self.obs.count("dr.backups")
        return manifest

    def _acquire_pins(self) -> List[Transaction]:
        """Open one SNAPSHOT pin per shard at a clean global barrier.

        Refuses (after bounded retries) while any non-pin transaction
        holds logged work on any shard -- prepared branches included --
        because the cut would tear it.
        """
        last_straddlers: Dict[str, List[int]] = {}
        for _attempt in range(MAX_BARRIER_ATTEMPTS):
            pins = [
                shard.begin(isolation=IsolationLevel.SNAPSHOT)
                for shard in self.fleet.shards
            ]
            last_straddlers = {}
            for shard, pin in zip(self.fleet.shards, pins):
                # Live transactions with logged work, plus in-doubt
                # prepared branches that lost their handle to a crash.
                # Settled pre-crash losers also linger in the WAL's
                # open-chain map (undo is logical, never logged) but
                # cannot write again, so they do not block the cut.
                in_flight = shard.wal.in_flight_txns()
                straddlers = (
                    (in_flight & set(shard.txns.active))
                    | set(shard.wal.in_doubt_txns())
                ) - {pin.txn_id}
                if straddlers:
                    last_straddlers[shard.name] = sorted(straddlers)
            if not last_straddlers:
                return pins
            for pin in pins:
                self._release_pin(pin)
        raise EngineError(
            f"online backup barrier refused after "
            f"{MAX_BARRIER_ATTEMPTS} attempts: transactions with "
            f"logged work would straddle the cut ({last_straddlers}); "
            f"dangling prepared branches must be resolved first -- run "
            f"fleet.recover() and retry the backup"
        )

    @staticmethod
    def _image_shard(shard, pin: Transaction) -> ShardBackup:
        backup = ShardBackup(
            shard_name=shard.name, barrier_lsn=pin.snapshot_lsn
        )
        for table_name in shard.table_names:
            table = shard.table(table_name)
            image = TableImage(
                schema=table.schema,
                indexes=[
                    (index.name, index.columns, index.unique,
                     hasattr(index, "range"))
                    for index in table.secondary_indexes.values()
                ],
            )
            for _rid, row in table.snapshot_scan(pin.snapshot_lsn, pin.txn_id):
                image.rows.append(row)
            backup.tables.append(image)
        return backup

    @staticmethod
    def _release_pin(pin: Transaction) -> None:
        try:
            pin.rollback()
        except SimulatedCrash:
            # The pinned shard died under the job (crash-matrix cells);
            # its session will be aborted by restart recovery, and the
            # presumed-abort rule makes the leaked pin harmless.
            pass

    def _seal(self, shards: List[ShardBackup]) -> BackupManifest:
        """Seal the archive to each shard's durable horizon and verify
        it covers everything above the barrier -- the completeness
        guarantee the restore replay depends on."""
        self.archiver.catch_up()
        manifest = BackupManifest(
            name=f"{self.name}-{self.runs}", shards=shards
        )
        if self.fleet.shards:
            router = self.fleet.router
            manifest.partition_keys = {
                table_name: router.partition_column(table_name)
                for table_name in self.fleet.shards[0].table_names
            }
        for shard, backup, archive in zip(
            self.fleet.shards, shards, self.archiver.archives
        ):
            end = shard.wal.last_lsn
            missing = archive.missing_between(backup.barrier_lsn, end)
            if missing:
                raise EngineError(
                    f"backup seal failed: archive of {shard.name} has "
                    f"gaps above the barrier ({missing[:5]}...)"
                    if len(missing) > 5 else
                    f"backup seal failed: archive of {shard.name} has "
                    f"gaps above the barrier ({missing})"
                )
            manifest.archive_end.append(end)
        return manifest
