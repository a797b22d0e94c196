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

import itertools
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BACKUP_PHASES, BackupJob
from repro.dr.restore import RESTORE_PHASES, RestoreJob
from repro.engine.errors import SimulatedCrash
from repro.ha.crashmatrix import CellResult, MatrixResult, main, sweep
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.sim.rng import derive_seed

TARGETS = ("coordinator", "shard")
#: every phase boundary of both jobs, prefixed by the job it belongs to
CELLS = tuple(
    (stage, phase)
    for stage, phases in (("backup", BACKUP_PHASES), ("restore", RESTORE_PHASES))
    for phase in phases
)


def run_cell(
    stage: str,
    phase: str,
    target: str,
    seed: int = 7,
    victim: int = 0,
) -> CellResult:
    """Run one cell of the matrix on a fresh fleet."""
    if (stage, phase) not in CELLS:
        raise ValueError(f"unknown cell {stage!r}/{phase!r}")
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    cell = CellResult(
        f"{stage:<8s} {phase:<15s} {target:<12s}",
        dict(stage=stage, phase=phase, target=target),
    )
    #: the faulted job needed a clean re-run (vs absorbing the fault)
    retried = False
    label = f"dr.{stage}.{phase}.{target}"
    fleet, pairs = build_pairs_fleet(n_shards=2, n_pairs=3, name="drmatrix")
    archiver = FleetArchiver(fleet, mode="sync")
    workload = PairWorkload(fleet, pairs, seed=derive_seed(seed, label))
    for _ in range(4):
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
    dead = any(shard.wal.is_dead for shard in fleet.shards)
    if manifest is None or dead:
        # Recovery revives killed shards and aborts the leaked pin of a
        # torn barrier; the retried backup must then run clean.
        fleet.recover()
        if manifest is None:
            retried = True
            manifest = backup.run()

    # -- post-backup live traffic (the PITR replay range) --------------------
    for _ in range(3):
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
    cell.fault_fired = not (backup if stage == "backup" else restore).armed
    if restored is None:
        # The torn target fleet is garbage; the manifest and archives
        # are read-only inputs, so a fresh run must succeed.
        retried = True
        restored, report = RestoreJob(
            manifest, archiver, name=f"{label}.retry"
        ).run(target=target_lsns)
    elif any(shard.wal.is_dead for shard in restored.shards):
        # The job absorbed the kill (e.g. after the replay); restart
        # recovery revives the shard from its own restored log.
        restored.recover()
    rows, replayed = report.rows_loaded, report.records_replayed
    cell.extras.update(retried=retried, rows_restored=rows, records_replayed=replayed)
    cell.pinned = f"|retried={retried}|rows={rows}|replayed={replayed}"
    cell.columns = (
        f"rows={rows:<3d} replayed={replayed:<4d} "
        f"{'retried' if retried else 'absorbed':<8s}"
    )

    # -- liveness + checkable history against the restored fleet -------------
    post_workload = workload.continued_on(restored, derive_seed(seed, f"{label}.post"))
    return cell.finish(post_workload, f"{target} fault at {stage}/{phase}")


def run_matrix(seed: int = 7, quick: bool = False) -> MatrixResult:
    """Sweep all 8 phase boundaries x 2 targets (coordinator only when
    quick).  The shard victim alternates per cell so both protocol
    orders -- first shard imaged/replayed vs last -- are swept."""
    targets = ("coordinator",) if quick else TARGETS
    return sweep(run_cell, seed=seed, table=[
        dict(stage=stage, phase=phase, target=target, victim=index % 2)
        for index, ((stage, phase), target) in enumerate(
            itertools.product(CELLS, targets)
        )
    ])


if __name__ == "__main__":
    raise SystemExit(main(
        run_matrix,
        "backup/restore crash-point sweep (zero tolerated violations)",
        "coordinator cells only (8 instead of 16)",
    ))
