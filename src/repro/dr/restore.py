"""Point-in-time restore: backup image + archived WAL -> a live fleet.

Per shard the restore is the standby-bootstrap path pointed at the
archive instead of a live primary: blank the engine
(``reset_for_restore``), rebuild schema and indexes from the manifest,
load the image rows in bulk, stamp the copy as a checkpoint at the barrier
LSN (``install_checkpoint`` positions the pristine WAL at
``barrier + 1`` via ``start_from``), adopt the archived records in
``(barrier, target]`` through ``append_shipped`` (continuity and CRC
enforced for free), then ``crash() + recover()`` -- ARIES redo rebuilds
the MVCC version chains exactly as promotion does.

The fleet-level pass afterwards is the same in-doubt rule as
``fleet.recover()``: a prepared branch inside the replay range commits
iff *any* shard's replayed log holds its DECISION record, else
presumed abort.  A point-in-time target may cut a global transaction's
decision off on one shard but not another -- the union rule is what
keeps the restored fleet atomic anyway.

``target`` is a per-shard LSN vector (default: the manifest's sealed
archive end).  RTO has two parts: the *measured* wall time of the
restore and the *modelled* virtual time (rows loaded at
``LOAD_RATE_ROWS_S`` + records replayed at HA promotion's
``REPLAY_RATE_RECORDS_S``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.chaos.plan import FaultKind
from repro.dr.archive import FleetArchiver, ShardArchive
from repro.dr.backup import BackupManifest
from repro.engine.database import Database
from repro.engine.errors import EngineError, SimulatedCrash
from repro.ha.lease import REPLAY_RATE_RECORDS_S
from repro.ha.replication import WalShipper, bootstrap_standby
from repro.obs import NULL_OBSERVER, Observer
from repro.shard.coordinator import PhaseFaults
from repro.shard.fleet import ShardedDatabase

#: restore phase boundaries a crash can be scheduled at
RESTORE_PHASES = ("before_load", "after_load", "after_replay", "after_resolve")

#: modelled bulk-load rate of image rows (rows / virtual second)
LOAD_RATE_ROWS_S = 100_000.0


class RestoreCrash(SimulatedCrash):
    """The restore job's process died at a phase boundary (retryable)."""


@dataclass
class RestoreReport:
    """One restore run, measured."""

    shards: int = 0
    rows_loaded: int = 0
    records_replayed: int = 0
    barrier: List[int] = field(default_factory=list)
    target: List[int] = field(default_factory=list)
    resolved_commit: int = 0
    resolved_abort: int = 0
    standbys: int = 0
    #: measured wall-clock seconds of the whole restore
    wall_s: float = 0.0

    @property
    def virtual_s(self) -> float:
        """Modelled restore time: bulk load + WAL replay."""
        return (
            self.rows_loaded / LOAD_RATE_ROWS_S
            + self.records_replayed / REPLAY_RATE_RECORDS_S
        )

    @property
    def in_doubt(self) -> int:
        return self.resolved_commit + self.resolved_abort


class RestoreJob(PhaseFaults):
    """Rebuild a fleet from a manifest plus archives."""

    phases = RESTORE_PHASES
    crash_class = RestoreCrash
    chaos_kind = FaultKind.RESTORE_CRASH
    crash_event = ("dr.restore_crash", "dr")
    role = protocol = "restore"

    def __init__(
        self,
        manifest: BackupManifest,
        archives,
        chaos=None,
        name: str = "restore",
        observer: Optional[Observer] = None,
    ):
        super().__init__(chaos, name, observer)
        self.manifest = manifest
        if isinstance(archives, FleetArchiver):
            archives = archives.archives
        self.archives: List[ShardArchive] = list(archives)
        if len(self.archives) != manifest.n_shards:
            raise EngineError(
                f"{manifest.n_shards} shards in the manifest but "
                f"{len(self.archives)} archives"
            )
        #: the fleet being restored into -- set as soon as the run
        #: starts, so armed actions can aim at its shards
        self.fleet: Optional[ShardedDatabase] = None

    # -- the run -------------------------------------------------------------

    def run(
        self,
        target: Optional[Sequence[int]] = None,
        into: Optional[ShardedDatabase] = None,
        ha: bool = False,
    ) -> Tuple[ShardedDatabase, RestoreReport]:
        """Restore to ``target`` (per-shard LSN vector; default: the
        sealed archive end).  ``into`` reuses an existing fleet via
        ``reset_for_restore``; otherwise a fresh one is built.  With
        ``ha=True`` every restored shard gets a standby re-bootstrapped
        and a live WAL shipper attached.
        """
        manifest = self.manifest
        if target is None:
            target = list(manifest.archive_end)
        else:
            target = list(target)
        if len(target) != manifest.n_shards:
            raise EngineError(
                f"target vector has {len(target)} entries for "
                f"{manifest.n_shards} shards"
            )
        for shard_backup, lsn in zip(manifest.shards, target):
            if lsn < shard_backup.barrier_lsn:
                raise EngineError(
                    f"target LSN {lsn} precedes the backup barrier "
                    f"{shard_backup.barrier_lsn} on {shard_backup.shard_name}"
                )
        started = time.perf_counter()
        report = RestoreReport(
            shards=manifest.n_shards,
            barrier=list(manifest.barrier),
            target=list(target),
        )
        fleet = into if into is not None else ShardedDatabase(
            manifest.n_shards, name=f"{self.name}d", observer=self.obs
        )
        if fleet.n_shards != manifest.n_shards:
            raise EngineError(
                f"fleet has {fleet.n_shards} shards, manifest has "
                f"{manifest.n_shards}"
            )
        self.fleet = fleet
        self._crash_point("before_load")
        for shard, shard_backup in zip(fleet.shards, manifest.shards):
            report.rows_loaded += self._load_shard(shard, shard_backup)
        for table_name, column in manifest.partition_keys.items():
            fleet.router.register(table_name, column)
        self._crash_point("after_load")
        for shard, shard_backup, archive, to_lsn in zip(
            fleet.shards, manifest.shards, self.archives, target
        ):
            records = archive.records_between(shard_backup.barrier_lsn, to_lsn)
            for record in records:
                shard.wal.append_shipped(record)
            report.records_replayed += len(records)
        self._crash_point("after_replay")
        shard_reports = []
        for shard in fleet.shards:
            shard.crash()
            shard_reports.append(shard.recover())
        fleet_report = fleet._resolve_in_doubt(shard_reports)
        report.resolved_commit = fleet_report.resolved_commit
        report.resolved_abort = fleet_report.resolved_abort
        self._crash_point("after_resolve")
        if ha:
            report.standbys = len(
                rebootstrap_standbys(fleet, observer=self.obs)
            )
        report.wall_s = time.perf_counter() - started
        if self.obs.enabled:
            self.obs.count("dr.restores")
        return fleet, report

    @staticmethod
    def _load_shard(shard: Database, shard_backup) -> int:
        shard.reset_for_restore()
        for image in shard_backup.tables:
            table = shard.create_table(image.schema)
            for name, columns, unique, ordered in image.indexes:
                shard.create_index(
                    image.schema.table, name, columns,
                    unique=unique, ordered=ordered,
                )
            table.load(image.rows)
        # The base carries no gtid: the barrier refused every branch in
        # doubt, so each one below it is settled in every shard's image.
        shard.install_checkpoint(shard_backup.barrier_lsn)
        return shard_backup.rows


def rebootstrap_standbys(
    fleet: ShardedDatabase,
    observer: Optional[Observer] = None,
) -> List[Tuple[Database, WalShipper]]:
    """Re-seed one standby per restored shard and start shipping.

    The HA half of restore: each shard gets a fresh base backup
    (:func:`~repro.ha.replication.bootstrap_standby`) and a live
    :class:`~repro.ha.replication.WalShipper`, so the restored fleet is
    promotable again, not just serving.
    """
    obs = observer or NULL_OBSERVER
    out: List[Tuple[Database, WalShipper]] = []
    for shard in fleet.shards:
        standby = bootstrap_standby(shard, observer=obs)
        shipper = WalShipper(shard, standby, observer=obs)
        out.append((standby, shipper))
    return out
