"""Crash-recovery and replica-replay tests."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import EngineError
from repro.engine.recovery import ReplicaApplier
from repro.engine.types import Column, ColumnType, Schema


def fresh_db(name="crash"):
    db = Database(name)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def kv_state(db):
    return dict(db.query("SELECT K, V FROM kv").rows)


class TestCrashRecovery:
    def test_recovery_without_checkpoint_replays_everything(self):
        db = fresh_db()
        for k in range(1, 4):
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        db.crash()
        assert kv_state(db) == {}
        report = db.recover()
        assert kv_state(db) == {1: 1, 2: 2, 3: 3}
        assert report.records_redone == 3
        assert report.losers == set()

    def test_committed_work_after_checkpoint_survives(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.checkpoint()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [100, 1])
        db.crash()
        assert kv_state(db) == {1: 1}  # checkpoint image
        db.recover()
        assert kv_state(db) == {1: 100, 2: 2}

    def test_uncommitted_transaction_is_undone(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.checkpoint()
        loser = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=loser)
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [999, 1], txn=loser)
        # crash with loser still active
        db.crash()
        report = db.recover()
        assert kv_state(db) == {1: 1}
        assert report.losers == {loser.txn_id}
        assert report.records_undone == 2

    def test_interleaved_winner_and_loser(self):
        db = fresh_db()
        db.checkpoint()
        winner = db.begin()
        loser = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10], txn=winner)
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20], txn=loser)
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 30], txn=winner)
        winner.commit()
        db.crash()
        db.recover()
        assert kv_state(db) == {1: 10, 3: 30}

    def test_aborted_transaction_not_replayed(self):
        db = fresh_db()
        db.checkpoint()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        aborted = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=aborted)
        aborted.rollback()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 3])
        db.crash()
        report = db.recover()
        assert kv_state(db) == {1: 1, 3: 3}
        assert report.losers == set()

    def test_deletes_replay_correctly(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        db.checkpoint()
        db.execute("DELETE FROM kv WHERE K = ?", [1])
        db.crash()
        db.recover()
        assert kv_state(db) == {2: 2}

    def test_checkpoint_requires_quiescence(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        with pytest.raises(EngineError):
            db.checkpoint()
        txn.commit()
        assert db.checkpoint() > 0

    def test_double_crash_recover_idempotent(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.checkpoint()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        db.crash()
        db.recover()
        first = kv_state(db)
        db.crash()
        db.recover()
        assert kv_state(db) == first

    @staticmethod
    def _loaded_db():
        """A checkpoint, then inserts and updates only the log holds."""
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.checkpoint()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [100, 1])
        return db

    @staticmethod
    def _state(db):
        return kv_state(db), db.live_versions(), db.content_hash()

    def _state_after_clean_restart(self):
        db = self._loaded_db()
        db.crash()
        db.recover()
        return self._state(db)

    def test_recover_without_crash_restarts_from_the_image(self):
        """recover() on a live instance used to redo the log on top of
        the tables that already held it: DuplicateKeyError on the first
        re-inserted key, doubled version chains with updates only."""
        expected = self._state_after_clean_restart()
        assert expected[0] == {1: 100, 2: 2}

        live = self._loaded_db()
        report = live.recover()
        assert report.records_redone == 2
        assert self._state(live) == expected
        live.recover()  # and again: each pass resets, none stacks
        assert self._state(live) == expected

    def test_work_after_crash_forces_a_reset_in_recover(self):
        db = self._loaded_db()
        db.crash()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 3])
        db.recover()
        assert kv_state(db) == {1: 100, 2: 2, 3: 3}

    def test_failed_recover_does_not_leave_the_image_mark(self, monkeypatch):
        from repro.engine import recovery

        db = self._loaded_db()
        expected = self._state_after_clean_restart()
        redo = recovery._apply_redo
        calls = []

        def fail_on_second(database, record):
            calls.append(record.lsn)
            if len(calls) == 2:
                raise EngineError("injected redo failure")
            redo(database, record)

        monkeypatch.setattr(recovery, "_apply_redo", fail_on_second)
        db.crash()
        with pytest.raises(EngineError, match="injected"):
            db.recover()
        monkeypatch.undo()
        assert kv_state(db) != expected[0]  # redo stopped half way
        db.recover()  # must reset: the tables are no longer the image
        assert self._state(db) == expected


class TestReplicaApplier:
    def test_commit_batches_replicate(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        primary.add_commit_listener(
            lambda _txn, _lsn, records: applier.apply_batch(records)
        )
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        primary.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 1])
        assert kv_state(replica) == {1: 5}

    def test_rolled_back_work_never_ships(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        primary.add_commit_listener(
            lambda _txn, _lsn, records: applier.apply_batch(records)
        )
        txn = primary.begin()
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        txn.rollback()
        assert kv_state(replica) == {}

    def test_redelivery_is_idempotent(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        batches = []
        primary.add_commit_listener(
            lambda _txn, _lsn, records: batches.append(records)
        )
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        applier.apply_batch(batches[0])
        applier.apply_batch(batches[0])  # duplicate delivery
        assert kv_state(replica) == {1: 1}
        assert applier.records_applied == 1

    def test_lag_behind(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        batches = []
        primary.add_commit_listener(
            lambda _txn, _lsn, records: batches.append(records)
        )
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        assert primary.wal.last_lsn - applier.applied_lsn > 0
        applier.apply_batch(batches[0])
        # commit record itself is not applied, so lag is the commit LSN gap
        assert primary.wal.last_lsn - applier.applied_lsn <= 1


class TestDatabaseCloning:
    def test_clone_full_copies_rows_and_indexes(self):
        db = fresh_db()
        db.create_index("KV", "kv_v", ("V",))
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 7])
        clone = db.clone_full("copy")
        assert kv_state(clone) == {1: 7}
        assert "kv_v" in clone.table("KV").secondary_indexes
        # independence
        clone.execute("DELETE FROM kv WHERE K = ?", [1])
        assert kv_state(db) == {1: 7}

    def test_clone_requires_quiescence(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        with pytest.raises(EngineError):
            db.clone_full("copy")
        txn.rollback()


class TestWalTruncation:
    def test_checkpoint_with_truncation_keeps_recovery_working(self):
        db = fresh_db()
        for k in range(1, 5):
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        retained_before = db.wal.retained_records
        db.checkpoint(truncate_wal=True)
        assert db.wal.retained_records < retained_before
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 9])
        db.crash()
        db.recover()
        assert kv_state(db) == {1: 1, 2: 2, 3: 3, 4: 4, 9: 9}

    def test_truncation_does_not_break_replication(self):
        from repro.cloud.architectures import cdb3
        from repro.cloud.replication import ReplicationPipeline
        from repro.sim.events import Environment

        env = Environment()
        primary = fresh_db("primary")
        pipeline = ReplicationPipeline(env, cdb3(), primary, 1)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        primary.checkpoint(truncate_wal=True)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        env.run(until=5.0)
        assert pipeline.converged()

    def test_default_checkpoint_retains_log(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        before = db.wal.retained_records
        db.checkpoint()
        assert db.wal.retained_records == before + 1  # + CHECKPOINT record
