"""Online backup + point-in-time restore: the round trip, checked.

The contract under test: a backup taken under live load plus the
archived WAL reproduces the exact pre-disaster committed state (restore
to the archive end), or any earlier consistent point (restore to the
barrier); the barrier refuses cuts that would tear a transaction; and
in-doubt 2PC branches inside the replay range resolve by the fleet's
decision-union rule.
"""

import pytest

from repro.dr.archive import FleetArchiver
from repro.dr.backup import BackupJob
from repro.dr.restore import RestoreJob
from repro.engine.errors import EngineError
from repro.ha.history import HistoryChecker
from repro.ha.workload import (
    SELECT_STAMP,
    UPDATE_STAMP,
    PairWorkload,
    build_pairs_fleet,
)
from repro.sim.rng import derive_seed

N_PAIRS = 3


def dr_rig(name, seed=11):
    fleet, pairs = build_pairs_fleet(n_shards=2, n_pairs=N_PAIRS, name=name)
    archiver = FleetArchiver(fleet, mode="sync")
    workload = PairWorkload(fleet, pairs, seed=derive_seed(seed, name))
    return fleet, pairs, archiver, workload


def stamp(fleet, row_id):
    return fleet.execute(SELECT_STAMP, [row_id]).rows[0][0]


class TestRoundTrip:
    def test_restore_reproduces_the_pre_disaster_state(self):
        fleet, pairs, archiver, workload = dr_rig("drrt")
        for _ in range(4):
            assert workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drrt").run()
        for _ in range(3):
            assert workload.transfer()
        # the disaster: seal the archive, abandon the fleet
        archiver.catch_up()
        target = [archive.last_lsn for archive in archiver.archives]
        restored, report = RestoreJob(manifest, archiver, name="drrt").run(
            target=target
        )
        assert report.rows_loaded == 2 * N_PAIRS
        assert report.records_replayed > 0
        # byte-for-byte: every pair holds the exact pre-disaster stamp
        for row_a, row_b in pairs:
            assert stamp(restored, row_a) == stamp(fleet, row_a)
            assert stamp(restored, row_b) == stamp(fleet, row_b)
        # and the restored fleet serves checked traffic on one timeline
        post = PairWorkload(
            restored, pairs, history=workload.history,
            seed=derive_seed(11, "drrt.post"),
        )
        post._versions.update(workload._versions)
        for _ in range(3):
            assert post.transfer()
            assert post.read() is not None
        check = HistoryChecker().check(post.history, post.final_stamps())
        assert not check.violations

    def test_restore_to_the_barrier_is_the_image_alone(self):
        """PITR to the earliest legal target: exactly the as-of-backup
        stamps, none of the later traffic."""
        fleet, pairs, archiver, workload = dr_rig("drpitr")
        for _ in range(4):
            assert workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drpitr").run()
        as_of_backup = {
            row: stamp(fleet, row) for pair in pairs for row in pair
        }
        for _ in range(4):
            assert workload.transfer()
        restored, report = RestoreJob(manifest, archiver, name="drpitr").run(
            target=manifest.barrier
        )
        assert report.records_replayed == 0
        for row, expected in as_of_backup.items():
            assert stamp(restored, row) == expected

    def test_restart_after_a_truncating_checkpoint_reuses_no_txn_id(self):
        """Regression (lost committed write): the restart seeded its
        transaction ids from the *retained* log, so after a truncating
        checkpoint they began again at 1.  The archive still held the
        older log; a later rolled-back transaction on a reused id made
        the restore's analysis class the committed 777 as aborted."""
        fleet, pairs, archiver, _workload = dr_rig("drxid")
        manifest = BackupJob(fleet, archiver, name="drxid").run()
        row = pairs[0][0]
        shard = next(
            shard for shard in fleet.shards
            if shard.table("PAIRS").find_by_key(row) is not None
        )
        other = next(
            key for _rid, (key, _stamp) in shard.table("PAIRS").scan()
            if key != row
        )
        fleet.execute(UPDATE_STAMP, [777, row])
        winner = shard.wal.max_txn_id()
        for one in fleet.shards:
            one.checkpoint(truncate_wal=True)
        fleet.crash()
        fleet.recover()
        # walk the ids forward to where the parent handed ``winner`` out
        # again, and roll a write to another row back there
        while True:
            txn = shard.begin()
            if txn.txn_id >= winner:
                break
            txn.commit()
        assert txn.txn_id > winner
        shard.execute(UPDATE_STAMP, [5, other], txn=txn)
        txn.rollback()
        archiver.catch_up()
        restored, _report = RestoreJob(manifest, archiver, name="drxid").run(
            target=[archive.last_lsn for archive in archiver.archives]
        )
        assert stamp(fleet, row) == 777
        assert stamp(restored, row) == 777

    def test_target_below_the_barrier_is_refused(self):
        fleet, pairs, archiver, workload = dr_rig("drlow")
        workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drlow").run()
        too_low = [lsn - 1 for lsn in manifest.barrier]
        with pytest.raises(EngineError, match="precedes the backup barrier"):
            RestoreJob(manifest, archiver, name="drlow").run(target=too_low)


class TestOnlineness:
    def test_transfer_during_the_image_lands_above_the_barrier(self):
        """The backup never blocks writers: a transfer committed while
        the images are being cut is invisible to the image (it is above
        the pin's snapshot) but fully present in the replay range."""
        fleet, pairs, archiver, workload = dr_rig("dronl")
        for _ in range(3):
            assert workload.transfer()
        backup = BackupJob(fleet, archiver, name="dronl")
        concurrent = []
        backup.arm_action(
            "after_pin", lambda: concurrent.append(workload.transfer())
        )
        manifest = backup.run()
        assert concurrent == [True]
        assert manifest.total_rows == 2 * N_PAIRS
        archiver.catch_up()
        end = [archive.last_lsn for archive in archiver.archives]
        # to the barrier: the concurrent transfer is not there
        at_barrier, _ = RestoreJob(manifest, archiver, name="dronl-b").run(
            target=manifest.barrier
        )
        # to the end: it is
        at_end, _ = RestoreJob(manifest, archiver, name="dronl-e").run(
            target=end
        )
        live = {row: stamp(fleet, row) for pair in pairs for row in pair}
        assert {row: stamp(at_end, row) for row in live} == live
        assert any(
            stamp(at_barrier, row) != live[row] for row in live
        )

    def test_barrier_refuses_an_open_transaction_with_logged_work(self):
        fleet, pairs, archiver, workload = dr_rig("drbar")
        assert workload.transfer()
        shard = fleet.shards[0]
        txn = shard.begin()
        shard.execute(
            "INSERT INTO PAIRS (P_ID, P_STAMP) VALUES (?, ?)",
            [9901, 1], txn=txn,
        )
        backup = BackupJob(fleet, archiver, name="drbar")
        with pytest.raises(EngineError, match="straddle"):
            backup.run()
        # settle it and the cut goes through
        txn.commit()
        manifest = backup.run()
        assert manifest.total_rows == 2 * N_PAIRS + 1


class TestInDoubtResolution:
    def _prepare_pair(self, fleet, pairs, gtid, value):
        """Prepare (but do not decide) one stamp write on both shards."""
        (row_a, row_b) = pairs[0]
        branches = []
        for shard_row in (row_a, row_b):
            shard = fleet.shards[fleet.router.shard_for("PAIRS", shard_row)]
            txn = shard.begin()
            shard.execute(
                "UPDATE PAIRS SET P_STAMP = ? WHERE P_ID = ?",
                [value, shard_row], txn=txn,
            )
            shard.prepare_commit(txn, gtid=gtid)
            branches.append((shard, txn))
        return (row_a, row_b), branches

    def test_prepared_branch_with_a_decision_commits_at_restore(self):
        """A PITR cut may strand PREPARE on one shard and DECISION on
        another; the union rule commits the branch anyway."""
        fleet, pairs, archiver, workload = dr_rig("drdoubt-c")
        for _ in range(2):
            assert workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drdoubt-c").run()
        (row_a, row_b), branches = self._prepare_pair(
            fleet, pairs, gtid="g-dr-commit", value=777
        )
        # the coordinator decided on exactly one shard, then the
        # disaster struck before the second-phase commit
        shard, txn = branches[0]
        shard.log_decision(txn.txn_id, "g-dr-commit")
        archiver.catch_up()
        target = [archive.last_lsn for archive in archiver.archives]
        restored, report = RestoreJob(
            manifest, archiver, name="drdoubt-c"
        ).run(target=target)
        assert report.resolved_commit >= 1
        assert stamp(restored, row_a) == 777
        assert stamp(restored, row_b) == 777

    def test_prepared_branch_without_a_decision_aborts_at_restore(self):
        fleet, pairs, archiver, workload = dr_rig("drdoubt-a")
        for _ in range(2):
            assert workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drdoubt-a").run()
        (row_a, row_b) = pairs[0]
        before = {row_a: stamp(fleet, row_a), row_b: stamp(fleet, row_b)}
        _, _branches = self._prepare_pair(
            fleet, pairs, gtid="g-dr-abort", value=888
        )
        archiver.catch_up()
        target = [archive.last_lsn for archive in archiver.archives]
        restored, report = RestoreJob(
            manifest, archiver, name="drdoubt-a"
        ).run(target=target)
        assert report.resolved_abort >= 2
        assert report.resolved_commit == 0
        assert stamp(restored, row_a) == before[row_a]
        assert stamp(restored, row_b) == before[row_b]


class TestRestoreShapes:
    def test_ha_restore_rebootstraps_standbys(self):
        fleet, pairs, archiver, workload = dr_rig("drha")
        for _ in range(3):
            assert workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drha").run()
        archiver.catch_up()
        restored, report = RestoreJob(manifest, archiver, name="drha").run(
            ha=True
        )
        assert report.standbys == 2
        assert report.wall_s > 0
        assert report.virtual_s > 0

    def test_mismatched_archive_count_is_refused(self):
        fleet, pairs, archiver, workload = dr_rig("drmis")
        workload.transfer()
        manifest = BackupJob(fleet, archiver, name="drmis").run()
        with pytest.raises(EngineError, match="archives"):
            RestoreJob(manifest, archiver.archives[:1], name="drmis")

    def test_unknown_phase_names_are_rejected(self):
        fleet, pairs, archiver, workload = dr_rig("drph")
        backup = BackupJob(fleet, archiver, name="drph")
        with pytest.raises(ValueError, match="unknown backup phase"):
            backup.arm_crash("mid_flight")
        workload.transfer()
        manifest = backup.run()
        restore = RestoreJob(manifest, archiver, name="drph")
        with pytest.raises(ValueError, match="unknown restore phase"):
            restore.arm_crash("mid_flight")
