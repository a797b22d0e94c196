"""Crash-recovery and replica-replay tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import recovery
from repro.engine.database import Database
from repro.engine.errors import EngineError, LockTimeoutError, SimulatedCrash
from repro.engine.recovery import RecoveryReport, ReplicaApplier
from repro.engine.table import RowVersion
from repro.engine.txn import TxnState
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import DATA_KINDS, LogKind

from tests.engine.test_table import _full_update_row, _index_state


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


def on_commit(db, sink):
    """Call ``sink(records, commit_lsn)`` with each commit's data records
    in write order, read back from the log as the read-replica pipeline
    reads them."""
    def listener(record):
        if record.kind is LogKind.COMMIT:
            chain = db.wal.transaction_chain(record.txn_id, record.prev_lsn)
            sink([data for data in reversed(chain) if data.kind in DATA_KINDS], record.lsn)
    db.wal.add_append_listener(listener)


#: a counter-keyed table with a non-unique index (on G) and a column no
#: index holds (N)
LOG = Schema(
    "LOG",
    (Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
     Column("G", ColumnType.INT, nullable=False),
     Column("N", ColumnType.INT, default=0)),
    primary_key="ID",
)


def with_log(db):
    db.create_table(LOG)
    db.create_index("LOG", "log_g", ("G",))
    return db


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

    @pytest.mark.parametrize("mode", ["torn", "after"])
    def test_crash_on_the_checkpoint_append_keeps_the_previous_image(self, mode):
        """The image taken for a checkpoint whose record never made it
        whole into the log must not become the restart base: redo from
        the older LSN would re-insert rows the image already holds.  So a
        table written since the older image stays to be restored: LOG,
        written before the failed checkpoint and never after it, gets its
        row and its counter back from redo, not twice."""
        db = with_log(fresh_db())
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        first = db.checkpoint()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        db.execute("INSERT INTO log (G) VALUES (?)", [5])
        db.wal.arm_crash(db.wal.last_lsn + 1, mode)
        with pytest.raises(SimulatedCrash):
            db.checkpoint()
        assert db.checkpoint_lsn == first
        db.crash()
        db.recover()
        assert kv_state(db) == {1: 1, 2: 2}
        db.execute("INSERT INTO log (G) VALUES (?)", [6])
        assert sorted(db.query("SELECT ID, G FROM log").rows) == [(1, 5), (2, 6)]

    @pytest.mark.parametrize("write", [
        "INSERT INTO log (G) VALUES (7)",
        "INSERT INTO log (ID, G) VALUES (9, 7)",
        "INSERT INTO log (G) VALUES (NULL)",  # fails, after taking a counter value
        "UPDATE log SET N = 7 WHERE ID = 1",  # no key or indexed column moves
        "UPDATE log SET G = 7 WHERE ID = 1",
        "DELETE FROM log WHERE ID = 1",
    ])
    def test_a_write_the_log_lost_is_gone_after_the_restart(self, write):
        """Every write since the image -- to the heap, an index or the
        counter -- marks the table for the restart to reset, so a write
        whose records a corrupt tail took away leaves no trace."""
        db = with_log(fresh_db())
        db.execute("INSERT INTO log (G) VALUES (1)")
        db.execute("INSERT INTO log (G) VALUES (1)")
        db.checkpoint()
        first = db.wal.last_lsn + 1
        try:
            db.execute(write)
        except EngineError:
            pass
        if db.wal.last_lsn >= first:
            db.wal.flip_bit(first)
        db.crash()
        db.recover()
        db.execute("INSERT INTO log (G) VALUES (0)")
        assert sorted(db.query("SELECT ID, G, N FROM log").rows) == [
            (1, 1, 0), (2, 1, 0), (3, 0, 0)]
        assert db.query("SELECT ID FROM log WHERE G = 1").rows == [(1,), (2,)]

    def test_a_load_after_the_checkpoint_is_lost_with_the_crash(self):
        """A bulk load logs nothing: the image it came after holds the
        table, so the restart brings back that image, empty here."""
        db = fresh_db()
        db.checkpoint()
        db.table("KV").load([(1, 1), (2, 2)])
        db.crash()
        db.recover()
        assert kv_state(db) == {}

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

    def test_a_later_restart_does_not_undo_a_loser_again(self):
        """A loser's undo is logged as its ABORT.  It used to be logged
        nowhere: the next restart redid the loser and undid it again on
        top of a commit made since, losing that acknowledged write."""
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 0])
        loser = db.begin()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 1], txn=loser)
        db.crash()
        assert db.recover().losers == {loser.txn_id}
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [7, 1])  # acknowledged
        db.crash()
        report = db.recover()
        assert report.losers == set() and report.records_undone == 0
        assert kv_state(db) == {1: 7}

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


@pytest.mark.parametrize("mode", ["after", "torn"])
@pytest.mark.parametrize("write", [
    "INSERT INTO kv (K, V) VALUES (11, 11)",
    "UPDATE kv SET V = 7 WHERE K = 1",
    "DELETE FROM kv WHERE K = 2",
])
def test_rollback_after_a_crash_point_undoes_only_what_was_applied(mode, write):
    """A write whose append fires a crash point leaves its record in the
    log but never applies it.  Rollback walks the transaction's chain
    from the last record it applied, so it undoes the one applied write
    and then dies on the ABORT append -- undoing the unapplied record
    would raise ``EngineError`` or corrupt a row instead."""
    db = fresh_db()
    for key in (1, 2):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key])
    db.checkpoint()
    before = db.content_hash()
    txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (10, 10)", txn=txn)
    db.wal.arm_crash(db.wal.last_lsn + 1, mode)
    with pytest.raises(SimulatedCrash):
        db.execute(write, txn=txn)
    with pytest.raises(SimulatedCrash):
        txn.rollback()
    # the instance is down, so read the heap, not through a transaction
    assert dict(row for _rid, row in db.table("KV").scan()) == {1: 1, 2: 2}
    db.crash()
    db.recover()
    assert db.content_hash() == before


class TestReplicaApplier:
    def test_commit_batches_replicate(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        on_commit(primary, applier.apply_batch)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        primary.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 1])
        assert kv_state(replica) == {1: 5}

    def test_rolled_back_work_never_ships(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        on_commit(primary, applier.apply_batch)
        txn = primary.begin()
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        txn.rollback()
        assert kv_state(replica) == {}

    def test_redelivery_is_idempotent(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        batches = []
        on_commit(primary, lambda *batch: batches.append(batch))
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        applier.apply_batch(*batches[0])
        applier.apply_batch(*batches[0])  # duplicate delivery
        assert kv_state(replica) == {1: 1}
        assert applier.records_applied == 1

    def test_lag_behind(self):
        primary = fresh_db("primary")
        replica = primary.clone_schema("replica")
        applier = ReplicaApplier(replica)
        batches = []
        on_commit(primary, lambda *batch: batches.append(batch))
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        assert primary.wal.last_lsn - applier.applied_lsn > 0
        applier.apply_batch(*batches[0])
        # the applier stands at the batch's COMMIT, the primary's last record
        assert applier.applied_lsn == primary.wal.last_lsn


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


@pytest.mark.parametrize("end", ["crash", "rollback"])
class TestPrimaryKeyMove:
    """An UPDATE that moves a row's primary key holds the new key as an
    INSERT would, so no other open transaction can write under it."""

    def _end(self, db, end, txn):
        """Crash-recover, or roll ``txn`` back live; either must undo it."""
        if end == "crash":
            db.crash()
            db.recover()
        else:
            txn.rollback()

    def test_a_moved_uncommitted_row_cannot_be_deleted_under_its_new_key(self, end):
        db = fresh_db()
        db.checkpoint()
        mover = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (2, 0)", txn=mover)
        db.execute("UPDATE kv SET K = 3 WHERE K = 2", txn=mover)
        other = db.begin()
        with pytest.raises(LockTimeoutError):
            db.execute("DELETE FROM kv WHERE K = 3", txn=other)
        assert other.state is TxnState.ABORTED
        self._end(db, end, mover)
        assert kv_state(db) == {}

    def test_a_row_cannot_move_onto_a_key_another_open_txn_deleted(self, end):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (2, 20)")
        db.execute("INSERT INTO kv (K, V) VALUES (3, 30)")
        db.checkpoint()
        deleter = db.begin()
        db.execute("DELETE FROM kv WHERE K = 3", txn=deleter)
        mover = db.begin()
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE kv SET K = 3 WHERE K = 2", txn=mover)
        assert mover.state is TxnState.ABORTED
        self._end(db, end, deleter)
        assert kv_state(db) == {2: 20, 3: 30}


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


# -- differential: the one-pass restart against the three-pass one -------------


def _redo_by_the_helpers(db, record):
    """``_apply_redo`` as it was: the full ``update_row`` contract and
    three separate chain steps per UPDATE."""
    table = db.table(record.table)
    if record.kind is LogKind.INSERT:
        table.insert_row(record.after)
        table.versions.append(
            record.key, RowVersion(record.after, begin_lsn=record.lsn)
        )
        return
    rid = table.find_by_key(record.key)
    assert rid is not None
    if record.kind is LogKind.UPDATE:
        _full_update_row(table, rid, record.after)
    else:
        table.delete_row(rid)
    table.versions.capture_base(record.key, record.before)
    recovery._chain_end(table, record.key, record.lsn)
    if record.kind is LogKind.UPDATE:
        table.versions.append(
            record.after[table.schema.primary_key_index],
            RowVersion(record.after, begin_lsn=record.lsn),
        )


def _three_pass_recover(db):
    """The restart as it ran before: a per-record ``is_intact`` walk,
    then analysis, redo and undo each over every retained record.  Kept
    as the oracle for :func:`repro.engine.recovery.recover`."""
    report = RecoveryReport(checkpoint_lsn=db.checkpoint_lsn)
    start_lsn = db.checkpoint_lsn + 1
    for record in db.wal.records_from(start_lsn):
        if not record.is_intact:
            report.corrupt_from_lsn = record.lsn
            report.records_discarded = db.wal.discard_from(record.lsn)
            break
    records = list(db.wal.records_from(start_lsn))
    report.records_scanned = len(records)
    seen, aborted, prepared = set(), set(), {}
    for record in records:
        if record.kind in DATA_KINDS or record.kind is LogKind.BEGIN:
            seen.add(record.txn_id)
        elif record.kind in (LogKind.COMMIT, LogKind.DECISION):
            report.winners.add(record.txn_id)
        elif record.kind is LogKind.ABORT:
            aborted.add(record.txn_id)
        elif record.kind is LogKind.PREPARE:
            prepared[record.txn_id] = record.key
    report.in_doubt = {
        txn_id: gtid for txn_id, gtid in prepared.items()
        if txn_id not in report.winners and txn_id not in aborted
    }
    report.losers = seen - report.winners - aborted - set(report.in_doubt)
    for record in records:
        if record.kind in DATA_KINDS and record.txn_id not in aborted:
            _redo_by_the_helpers(db, record)
            report.records_redone += 1
    undone = set()
    for record in reversed(records):
        if record.kind in DATA_KINDS and record.txn_id in report.losers:
            recovery._apply_undo(db, record)
            report.records_undone += 1
            undone.add(record.txn_id)
    for txn_id in sorted(undone):  # logged like a rollback's
        db.wal.append(txn_id, LogKind.ABORT)
    return report


def _indexed_db():
    db = Database("diff")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0),
         Column("G", ColumnType.INT, default=0),
         Column("U", ColumnType.INT, nullable=False)),
        primary_key="K",
    ))
    db.create_index("KV", "kv_g", ("G",))
    db.create_index("KV", "kv_u", ("U",), unique=True, ordered=True)
    # the histories write LOG only sometimes: a crash finds it either
    # written since its image or still that image
    with_log(db)
    for k in (1, 2, 3):  # base rows: in the image, chainless
        db.execute("INSERT INTO kv (K, V, G, U) VALUES (?, 0, 0, ?)", [k, 10 * k])
        db.execute("INSERT INTO log (G) VALUES (?)", [k % 2])
    db.checkpoint()
    return db


_SLOTS = 3
_key = st.integers(min_value=1, max_value=6)
_val = st.integers(min_value=0, max_value=3)
_statement = st.one_of(
    st.tuples(st.just("insert"), _key, _val, _val),
    st.tuples(st.just("update"), _key, _val, _val),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("move"), _key, _key),  # primary-key update
    st.just(("nothing",)),  # BEGIN and its ending alone
    st.one_of(  # LOG; a NULL group fails after taking a counter value
        st.tuples(st.just("append"), st.one_of(_val, st.none())),
        st.tuples(st.just("regroup"), _key, _val),
        st.tuples(st.just("note"), _key, _val),  # no key or indexed column
        st.tuples(st.just("trim"), _key),
    ),
)
#: what the slot's transaction does after the statement: stay open (and
#: be in flight at the crash), end, or stop at a 2PC phase boundary
_then = st.sampled_from(
    [None] * 3 + ["commit"] * 4 + ["rollback", "prepare", "decide"]
)
_history = st.lists(
    st.tuples(
        st.integers(0, _SLOTS - 1), _statement, _then,
        st.integers(0, 9),  # 0: checkpoint first, if nothing is open
    ),
    max_size=60,
)
#: nothing, a bit flipped somewhere in the retained log afterwards, or a
#: torn write that kills the instance part-way through the history
_damage = st.one_of(
    st.none(),
    st.tuples(st.just("flip"), st.floats(0, 1), st.integers(0, 63)),
    st.tuples(st.just("torn"), st.integers(min_value=1, max_value=40)),
)


def _run_statement(db, txn, op, *args):
    if op == "insert":
        k, v, g = args
        db.execute("INSERT INTO kv (K, V, G, U) VALUES (?, ?, ?, ?)",
                   [k, v, g, 10 * k], txn=txn)
    elif op == "update":
        k, v, g = args
        db.execute("UPDATE kv SET V = ?, G = ? WHERE K = ?", [v, g, k], txn=txn)
    elif op == "delete":
        db.execute("DELETE FROM kv WHERE K = ?", list(args), txn=txn)
    elif op == "move":
        k, new_k = args
        db.execute("UPDATE kv SET K = ?, U = ? WHERE K = ?",
                   [new_k, 10 * new_k, k], txn=txn)
    elif op == "append":
        db.execute("INSERT INTO log (G) VALUES (?)", list(args), txn=txn)
    elif op == "regroup":
        row_id, g = args
        db.execute("UPDATE log SET G = ? WHERE ID = ?", [g, row_id], txn=txn)
    elif op == "note":
        row_id, n = args
        db.execute("UPDATE log SET N = ? WHERE ID = ?", [n, row_id], txn=txn)
    elif op == "trim":
        db.execute("DELETE FROM log WHERE ID = ?", list(args), txn=txn)


def _play(history, damage):
    """Run ``history`` on a fresh database, up to ``_SLOTS`` transactions
    open at once; whatever is still open, prepared or undecided at the
    end is what the crash finds."""
    db = _indexed_db()
    if damage is not None and damage[0] == "torn":
        db.wal.arm_crash(db.wal.last_lsn + damage[1], "torn")
    open_txns = {}
    try:
        for slot, statement, then, checkpoint in history:
            if checkpoint == 0 and not db.txns.active:
                db.checkpoint(truncate_wal=bool(len(history) % 2))
            txn = open_txns.get(slot)
            if txn is None:
                txn = open_txns[slot] = db.begin()
            try:
                if txn.state is not TxnState.PREPARED:
                    _run_statement(db, txn, *statement)
                    if then in ("prepare", "decide"):
                        db.prepare_commit(txn, f"g{txn.txn_id}")
                if then == "decide":
                    db.log_decision(txn.txn_id, txn.gtid)
                elif then == "commit":
                    txn.commit()
                elif then == "rollback":
                    txn.rollback()
            except SimulatedCrash:
                raise
            except EngineError:
                pass  # duplicate key, no-wait lock conflict: the txn may be gone
            if not (txn.is_active or txn.state is TxnState.PREPARED):
                del open_txns[slot]
    except SimulatedCrash:
        pass
    db.wal.disarm_crash()
    if damage is not None and damage[0] == "flip":
        first, last = db.checkpoint_lsn + 1, db.wal.last_lsn
        if first <= last:
            db.wal.flip_bit(first + int(damage[1] * (last - first)), damage[2])
    return db


#: a row no history writes, per table: placing it shows where the next
#: insert lands (the lowest vacated slot, else a new one at the end)
_PROBES = {"KV": (99, 0, 0, 990), "LOG": (999, 0, 0)}


def _physical_state(db):
    state = {
        "hash": db.content_hash(),
        "live_versions": db.live_versions(),
        "wal": (db.wal.last_lsn, db.wal.retained_records,
                db.wal.in_flight_txns(), db.wal.in_doubt_txns()),
        "next_txn": db.txns.begin(db, db.default_isolation).txn_id,
    }
    for name, probe in _PROBES.items():
        table = db.table(name)
        state[name] = {
            "next_auto": table._next_auto,
            "chains": {
                key: [(v.row, v.begin_lsn, v.begin_txn, v.end_lsn, v.end_txn)
                      for v in chain]
                for key, chain in table.versions.chains()
            },
            "heap_and_indexes": _index_state(table),
            "next_rid": table.place_row(probe),  # last: it writes the table
        }
    return state


@settings(max_examples=250, deadline=None)
@given(history=_history, damage=_damage)
def test_property_restart_matches_the_three_pass_restart(history, damage):
    """Winners, explicit aborts, in-flight losers, PREPAREs with and
    without a DECISION, deletes and re-inserts of one key, primary-key
    moves, a torn or bit-flipped record anywhere: same report, same
    rows, same indexes, same log, same counters and placement.  The
    oracle's crash copies every table's image whole and rebuilds its
    indexes; ours writes back only the rows written since the image.
    The oracle's redo builds version chains too; ours builds none, since
    no snapshot can read a redone version, so its chains are empty."""
    ours, oracle = _play(history, damage), _play(history, damage)
    ours.crash()
    report = recovery.recover(ours)
    for name in _PROBES:
        oracle.table(name).dirty_rows = None  # no usable image: restore whole
    oracle.crash()
    expected = _three_pass_recover(oracle)
    for field in (
        "checkpoint_lsn", "records_scanned", "records_redone", "records_undone",
        "winners", "losers", "in_doubt", "corrupt_from_lsn", "records_discarded",
    ):
        assert getattr(report, field) == getattr(expected, field), field
    state, expected_state = _physical_state(ours), _physical_state(oracle)
    assert state.pop("live_versions") == 0
    expected_state.pop("live_versions")
    for name in _PROBES:
        assert state[name].pop("chains") == {}
        expected_state[name].pop("chains")
    assert state == expected_state
