"""The backup/restore crash-point sweep: every phase x fault target.

One *cell* builds a fresh two-shard fleet with a sync archiver, warms
the PAIRS workload up, then arms exactly one fault at one phase
boundary of the DR job under test --

* ``coordinator`` -- the backup/restore job's own process dies at the
  boundary (:meth:`~repro.dr.backup.BackupJob.arm_crash`), raising
  :class:`~repro.dr.backup.BackupCrash` /
  :class:`~repro.dr.restore.RestoreCrash`;
* ``shard`` -- a shard's WAL is killed at the boundary
  (:meth:`~repro.dr.backup.BackupJob.arm_action` +
  ``wal.kill()``), so the job either trips over the dead instance or
  absorbs the kill, depending on what it still needed from it --

recovers whatever the fault broke (``fleet.recover()`` is idempotent
and revives dead shards; a torn restore is simply re-run from the same
manifest and archives), restores the fleet to the archive's end, and
drives more traffic against the *restored* fleet.  The acceptance bar
is zero :class:`~repro.ha.history.HistoryChecker` violations over the
full history -- pre-disaster and post-restore operations checked as one
timeline -- plus a byte-identical fingerprint for a given ``--seed``.

For restore-phase cells the disaster and the first (faulted) restore
attempt both happen; the cell proves a crashed restore leaves the
backup artifacts intact and re-runnable.  For backup-phase cells the
restore runs clean; the cell proves a crashed backup never corrupts
the fleet it was imaging.

Run as a module for the CI smoke job::

    python -m repro.dr.crashmatrix --quick --seed 7
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.dr.archive import FleetArchiver
from repro.dr.backup import BACKUP_PHASES, BackupJob
from repro.dr.restore import RESTORE_PHASES, RestoreJob
from repro.engine.errors import SimulatedCrash
from repro.ha.crashmatrix import MatrixResult, main as sweep_main
from repro.ha.history import HistoryChecker, Violation
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.sim.rng import derive_seed

TARGETS = ("coordinator", "shard")
#: every phase boundary of both jobs, prefixed by the job it belongs to
CELLS = tuple(
    (stage, phase)
    for stage, phases in (("backup", BACKUP_PHASES), ("restore", RESTORE_PHASES))
    for phase in phases
)


@dataclass
class CellResult:
    """One (stage, phase, target) cell's outcome."""

    stage: str
    phase: str
    target: str
    violations: List[Violation] = field(default_factory=list)
    fault_fired: bool = False
    #: the faulted job needed a clean re-run (vs absorbing the fault)
    retried: bool = False
    rows_restored: int = 0
    records_replayed: int = 0
    #: acked transfers / reads against the restored fleet
    post_transfers: int = 0
    post_reads: int = 0
    ops: int = 0

    @property
    def label(self) -> str:
        return f"{self.stage:<8s} {self.phase:<15s} {self.target:<12s}"

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and self.fault_fired
            and self.post_transfers > 0
            and self.post_reads > 0
        )

    def outcome(self) -> str:
        """Everything the sweep's fingerprint pins about this cell."""
        return (
            f"|fired={self.fault_fired}|retried={self.retried}"
            f"|rows={self.rows_restored}|replayed={self.records_replayed}"
            f"|t={self.post_transfers}|r={self.post_reads}"
            f"|ops={self.ops}|v={len(self.violations)}"
        )

    def describe(self) -> str:
        return (
            f"{self.label}  rows={self.rows_restored:<3d} "
            f"replayed={self.records_replayed:<4d} "
            f"{'retried' if self.retried else 'absorbed':<8s} "
            f"post={self.post_transfers}/{self.post_reads}  "
            f"{'ok' if self.passed else 'FAIL'}"
        )


def run_cell(
    stage: str,
    phase: str,
    target: str,
    seed: int = 7,
    victim: int = 0,
    n_pairs: int = 3,
    warmup: int = 4,
    mid: int = 3,
    post: int = 4,
) -> CellResult:
    """Run one cell of the matrix on a fresh fleet."""
    if (stage, phase) not in CELLS:
        raise ValueError(f"unknown cell {stage!r}/{phase!r}")
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    cell = CellResult(stage=stage, phase=phase, target=target)
    label = f"dr.{stage}.{phase}.{target}"
    fleet, pairs = build_pairs_fleet(n_shards=2, n_pairs=n_pairs, name="drmatrix")
    archiver = FleetArchiver(fleet, mode="sync")
    workload = PairWorkload(fleet, pairs, seed=derive_seed(seed, label))
    for _ in range(warmup):
        workload.transfer()
        workload.read()

    # -- backup (faulted in backup-stage cells) ------------------------------
    backup = BackupJob(fleet, archiver, name=label)
    if stage == "backup":
        if target == "coordinator":
            backup.arm_crash(phase)
        else:
            backup.arm_action(phase, lambda: fleet.shards[victim].wal.kill())
    manifest = None
    try:
        manifest = backup.run()
    except SimulatedCrash:
        pass
    if stage == "backup":
        cell.fault_fired = not backup.armed
    dead = any(shard.wal.is_dead for shard in fleet.shards)
    if manifest is None or dead:
        # Recovery revives killed shards and aborts the leaked pin of a
        # torn barrier; the retried backup must then run clean.
        fleet.recover()
        if manifest is None:
            cell.retried = True
            manifest = backup.run()

    # -- post-backup live traffic (the PITR replay range) --------------------
    for _ in range(mid):
        workload.transfer()
        workload.read()

    # -- disaster + restore (faulted in restore-stage cells) -----------------
    archiver.catch_up()
    target_lsns = [archive.last_lsn for archive in archiver.archives]
    restore = RestoreJob(manifest, archiver, name=label)
    if stage == "restore":
        if target == "coordinator":
            restore.arm_crash(phase)
        else:
            restore.arm_action(
                phase, lambda: restore.fleet.shards[victim].wal.kill()
            )
    restored = None
    try:
        restored, report = restore.run(target=target_lsns)
    except SimulatedCrash:
        pass
    if stage == "restore":
        cell.fault_fired = not restore.armed
    if restored is None:
        # The torn target fleet is garbage; the manifest and archives
        # are read-only inputs, so a fresh run must succeed.
        cell.retried = True
        restored, report = RestoreJob(
            manifest, archiver, name=f"{label}.retry"
        ).run(target=target_lsns)
    elif any(shard.wal.is_dead for shard in restored.shards):
        # The job absorbed the kill (e.g. after the replay); restart
        # recovery revives the shard from its own restored log.
        restored.recover()
    cell.rows_restored = report.rows_loaded
    cell.records_replayed = report.records_replayed

    # -- liveness + checkable history against the restored fleet -------------
    post_workload = PairWorkload(
        restored, pairs, history=workload.history,
        seed=derive_seed(seed, f"{label}.post"),
    )
    # Versions are strictly increasing across the whole timeline; the
    # restored fleet continues the pre-disaster sequence, it does not
    # restart it (a restarted sequence would read as lost updates).
    post_workload._versions.update(workload._versions)
    for _ in range(post):
        cell.post_transfers += 1 if post_workload.transfer() else 0
        cell.post_reads += 1 if post_workload.read() is not None else 0

    check = HistoryChecker().check(
        post_workload.history, post_workload.final_stamps()
    )
    cell.violations = list(check.violations)
    cell.ops = len(post_workload.history)
    if not cell.fault_fired:
        cell.violations.append(Violation(
            "fault_not_fired",
            f"armed {target} fault at {stage}/{phase} never consumed",
        ))
    return cell


def run_matrix(seed: int = 7, quick: bool = False) -> MatrixResult:
    """Sweep all 8 phase boundaries x 2 targets (coordinator only when
    quick).  The shard victim alternates per cell so both protocol
    orders -- first shard imaged/replayed vs last -- are swept."""
    result = MatrixResult(seed=seed)
    targets = ("coordinator",) if quick else TARGETS
    index = 0
    for stage, phase in CELLS:
        for target in targets:
            result.cells.append(run_cell(
                stage, phase, target, seed=seed, victim=index % 2,
            ))
            index += 1
    return result


def main(argv: Optional[List[str]] = None) -> int:
    return sweep_main(
        argv, run_matrix,
        "backup/restore crash-point sweep (zero tolerated violations)",
        "coordinator cells only (8 instead of 16)",
    )


if __name__ == "__main__":
    raise SystemExit(main())
