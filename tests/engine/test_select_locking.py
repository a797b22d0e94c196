"""Regression tests for the read-path over-locking and NULL-sort bugs,
and for the lock-table probe of READ COMMITTED reads and autocommit
writes.

Pre-fix, ``Executor._select`` shared-locked *every* row matching the
WHERE clause before applying ORDER BY/LIMIT, so ``... ORDER BY k LIMIT
1`` on a 100-row match locked 100 rows; and ordering by a nullable
column raised ``TypeError`` (None is not comparable).
"""

import pytest

from repro.core.datagen import load_sales_database
from repro.core.workload import READ_WRITE, SalesWorkload
from repro.engine.database import Database
from repro.engine.errors import DeadlineExceededError, LockTimeoutError
from repro.engine.locks import LockMode
from repro.engine.txn import IsolationLevel, TxnState
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import DATA_KINDS
from repro.obs import Observer
from repro.qos.deadline import Deadline


def fresh_db(rows=20, observer=None):
    db = Database("locking", observer=observer)
    db.create_table(Schema(
        "KV",
        (
            Column("K", ColumnType.INT, nullable=False),
            Column("V", ColumnType.INT, default=0),
            Column("W", ColumnType.INT),
        ),
        primary_key="K",
    ))
    for k in range(rows):
        w = None if k % 4 == 0 else k * 10
        db.execute("INSERT INTO kv VALUES (?, ?, ?)", [k, k % 3, w])
    return db


class TestSelectLockFootprint:
    def test_plain_read_locks_only_surviving_rows(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        result = db.execute(
            "SELECT K FROM kv WHERE V = ? ORDER BY K LIMIT 2", [0], txn=txn
        )
        assert len(result.rows) == 2
        # pre-fix: one shared lock per matched row (7 of 20); post-fix:
        # only the two rows that survive ORDER BY/LIMIT are locked
        assert len(db.locks.locks_held(txn.txn_id)) == 2
        txn.rollback()

    def test_limit_one_point_read_locks_one_row(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("SELECT K FROM kv ORDER BY K DESC LIMIT 1", txn=txn)
        assert len(db.locks.locks_held(txn.txn_id)) == 1
        txn.rollback()

    def test_reads_counter_reflects_returned_rows(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("SELECT K FROM kv ORDER BY K LIMIT 3", txn=txn)
        assert txn.reads == 3
        txn.rollback()

    def test_for_update_still_locks_the_candidate_set(self):
        """FOR UPDATE declares write intent over everything matched:
        locking only the LIMIT survivors would let a concurrent writer
        change which rows survive.  The candidate set stays locked."""
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        db.execute(
            "SELECT K FROM kv WHERE V = ? ORDER BY K LIMIT 2 FOR UPDATE",
            [0], txn=txn,
        )
        held = db.locks.locks_held(txn.txn_id)
        assert len(held) == 7  # every V=0 row, not just the 2 returned
        assert all(
            db.locks.holders(key)[txn.txn_id] is LockMode.EXCLUSIVE
            for key in held
        )
        txn.rollback()

    def test_unordered_read_locks_match(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        result = db.execute("SELECT K FROM kv WHERE V = ?", [1], txn=txn)
        assert len(db.locks.locks_held(txn.txn_id)) == len(result.rows)
        txn.rollback()


class TestOrderByNulls:
    def test_order_by_nullable_column_does_not_raise(self):
        db = fresh_db()
        # pre-fix: TypeError ('<' not supported between int and NoneType)
        result = db.query("SELECT K, W FROM kv ORDER BY W")
        assert len(result.rows) == 20

    def test_nulls_sort_last_ascending(self):
        db = fresh_db()
        rows = db.query("SELECT K, W FROM kv ORDER BY W").rows
        values = [row[1] for row in rows]
        non_null = [value for value in values if value is not None]
        assert non_null == sorted(non_null)
        assert values[len(non_null):] == [None] * (20 - len(non_null))

    def test_nulls_sort_last_descending(self):
        db = fresh_db()
        rows = db.query("SELECT K, W FROM kv ORDER BY W DESC").rows
        values = [row[1] for row in rows]
        non_null = [value for value in values if value is not None]
        assert non_null == sorted(non_null, reverse=True)
        assert values[len(non_null):] == [None] * (20 - len(non_null))

    def test_limit_applies_after_null_aware_sort(self):
        db = fresh_db()
        rows = db.query("SELECT K, W FROM kv ORDER BY W LIMIT 3").rows
        assert all(row[1] is not None for row in rows)

    def test_order_by_nulls_under_snapshot_reads(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SNAPSHOT)
        rows = db.execute("SELECT K, W FROM kv ORDER BY W", txn=txn).rows
        assert rows[-1][1] is None
        txn.commit()


class TestReadCommittedLockProbe:
    """A READ COMMITTED read skips its statement-long S lock only where
    taking and dropping it could change nothing; every outcome the lock
    can decide stays as it was."""

    def test_read_of_an_x_locked_row_times_out_and_rolls_back(self):
        db = fresh_db()
        writer = db.begin()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [9, 3], txn=writer)
        reader = db.begin(isolation=IsolationLevel.READ_COMMITTED)
        with pytest.raises(LockTimeoutError):
            db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=reader)
        assert reader.state is TxnState.ABORTED
        assert db.locks.locks_held(reader.txn_id) == set()
        with pytest.raises(LockTimeoutError):  # autocommit, range read
            db.query("SELECT K FROM kv WHERE K >= ? ORDER BY K", [2])
        writer.commit()
        assert db.query("SELECT V FROM kv WHERE K = ?", [3]).rows == [(9,)]

    def test_uncontended_read_leaves_no_lock_behind(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.READ_COMMITTED)
        assert db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=txn).rows == [(0,)]
        assert len(db.execute("SELECT K FROM kv WHERE K >= ?", [5], txn=txn).rows) == 15
        assert db.locks.locks_held(txn.txn_id) == set()
        for k in range(20):
            assert db.locks.holders(("KV", k)) == {}
        db.locks.sanity_check()
        txn.commit()

    def test_serializable_read_holds_its_s_lock_until_commit(self):
        db = fresh_db()
        txn = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=txn)
        assert db.locks.holders(("KV", 3)) == {txn.txn_id: LockMode.SHARED}
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [1, 3])
        txn.commit()
        assert db.locks.holders(("KV", 3)) == {}

    def test_expired_deadline_cancels_at_the_read(self):
        now = [0.0]
        db = fresh_db()
        txn = db.begin(deadline=Deadline(1.0, lambda: now[0]))
        db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=txn)
        now[0] = 2.0
        with pytest.raises(DeadlineExceededError):
            db.execute("SELECT V FROM kv WHERE K = ?", [4], txn=txn)
        assert txn.state is TxnState.ABORTED
        assert db.deadline_cancellations == 1

    def test_observer_counts_every_read_committed_grant(self):
        obs = Observer()
        db = fresh_db(observer=obs)
        counters = obs.metrics.counters
        granted, elided = counters["engine.lock.granted"], counters["engine.lock.elided"]
        before = granted.value, elided.value
        for k in (1, 2, 3):
            db.query("SELECT V FROM kv WHERE K = ?", [k])
        txn = db.begin(isolation=IsolationLevel.READ_COMMITTED)
        db.execute("SELECT K FROM kv WHERE K >= ?", [15], txn=txn)
        txn.commit()
        assert granted.value - before[0] + elided.value - before[1] == 3 + 5
        assert granted.value == before[0]  # no key had an entry: none taken
        # a key someone holds is really taken, and only then granted counts
        holder = db.begin(isolation=IsolationLevel.SERIALIZABLE)
        db.execute("SELECT V FROM kv WHERE K = ?", [2], txn=holder)
        before = granted.value, elided.value
        db.query("SELECT V FROM kv WHERE K >= ? AND K <= ?", [1, 3])
        assert (granted.value - before[0], elided.value - before[1]) == (1, 2)
        holder.commit()


class TestAutocommitWriteLockProbe:
    """An autocommit write skips its X lock only where taking it (and
    releasing it at the commit that ends the same call) could change
    nothing; every outcome the lock decides stays as it was."""

    def test_insert_of_a_key_an_open_txn_deleted_times_out(self):
        db = fresh_db()
        deleter = db.begin()
        db.execute("DELETE FROM kv WHERE K = ?", [3], txn=deleter)
        with pytest.raises(LockTimeoutError):
            db.execute("INSERT INTO kv VALUES (?, ?, ?)", [3, 7, 7])
        deleter.rollback()
        assert db.query("SELECT V, W FROM kv WHERE K = ?", [3]).rows == [(0, 30)]

    @pytest.mark.parametrize("sql, params", [
        ("UPDATE kv SET V = ? WHERE K = ?", [9, 3]),
        ("UPDATE kv SET K = ? WHERE K = ?", [99, 3]),
        ("DELETE FROM kv WHERE K = ?", [3]),
    ])
    def test_write_of_an_x_locked_row_times_out_and_logs_no_data(self, sql, params):
        db = fresh_db()
        holder = db.begin()
        db.execute("SELECT V FROM kv WHERE K = ? FOR UPDATE", [3], txn=holder)
        before, mark = db.content_hash(), db.wal.last_lsn
        with pytest.raises(LockTimeoutError):
            db.execute(sql, params)
        assert db.content_hash() == before
        assert not [r for r in db.wal.records_from(mark + 1) if r.kind in DATA_KINDS]
        assert db.locks.holders(("KV", 3)) == {holder.txn_id: LockMode.EXCLUSIVE}
        holder.commit()

    def test_multi_row_write_that_meets_a_lock_changes_nothing(self):
        db = fresh_db()
        holder = db.begin()
        db.execute("SELECT V FROM kv WHERE K = ? FOR UPDATE", [5], txn=holder)
        before = db.content_hash()
        with pytest.raises(LockTimeoutError):  # rows 2-4 written, then undone
            db.execute("UPDATE kv SET V = ? WHERE K >= ?", [9, 2])
        assert db.content_hash() == before
        assert db.locks.locks_held(holder.txn_id) == {("KV", 5)}
        db.locks.sanity_check()
        holder.commit()

    def test_uncontended_writes_leave_no_lock_entry(self):
        db = fresh_db()
        calls = []
        acquire = db.locks.acquire
        db.locks.acquire = lambda *args, **kw: (calls.append(args), acquire(*args, **kw))[1]
        db.execute("INSERT INTO kv VALUES (?, ?, ?)", [40, 1, 1])
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 40])
        db.execute("UPDATE kv SET K = ? WHERE K = ?", [41, 40])  # locks both keys
        db.execute("UPDATE kv SET W = ? WHERE K < ?", [1, 5])
        db.execute("DELETE FROM kv WHERE K = ?", [41])
        assert calls == []
        assert db.locks._locks == {} and db.locks._held_by_txn == {}
        db.locks.sanity_check()
        assert db.query("SELECT K FROM kv WHERE K >= ?", [40]).rows == []
        assert db.query("SELECT COUNT(*) FROM kv WHERE W = ?", [1]).scalar() == 5

    def test_observer_counts_every_autocommit_write_grant(self):
        obs = Observer()
        db = fresh_db(observer=obs)
        counters = obs.metrics.counters
        granted, elided = counters["engine.lock.granted"], counters["engine.lock.elided"]
        before = granted.value, elided.value
        db.execute("INSERT INTO kv VALUES (?, ?, ?)", [40, 1, 1])
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 40])
        db.execute("UPDATE kv SET K = ? WHERE K = ?", [41, 40])
        db.execute("DELETE FROM kv WHERE K = ?", [41])
        assert granted.value - before[0] + elided.value - before[1] == 1 + 1 + 2 + 1
        assert granted.value == before[0]  # no key had an entry: none taken
        assert db.locks._locks == {}
        # an explicit transaction's X lock is held to commit: a real grant
        writer = db.begin()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 3], txn=writer)
        assert (granted.value - before[0], elided.value - before[1]) == (1, 5)
        writer.commit()

    @pytest.mark.parametrize("sql, params, key, probe", [
        ("INSERT INTO kv VALUES (?, ?, ?)", [40, 1, 1], 40,
         "SELECT V FROM kv WHERE K = ?"),
        ("UPDATE kv SET V = ? WHERE K = ?", [9, 3], 3,
         "SELECT V FROM kv WHERE K = ?"),
        # a deleted row is not found, so no read locks it: re-insert it
        ("DELETE FROM kv WHERE K = ?", [3], 3,
         "INSERT INTO kv (K) VALUES (?)"),
    ])
    def test_explicit_txn_writes_hold_x_to_commit(self, sql, params, key, probe):
        db = fresh_db()
        writer = db.begin()
        db.execute(sql, params, txn=writer)
        assert db.locks.holders(("KV", key)) == {writer.txn_id: LockMode.EXCLUSIVE}
        other = db.begin(isolation=IsolationLevel.READ_COMMITTED)
        with pytest.raises(LockTimeoutError):
            db.execute(probe, [key], txn=other)
        assert other.state is TxnState.ABORTED
        writer.commit()
        assert db.locks.holders(("KV", key)) == {}


def test_observing_takes_the_same_locks():
    """The READ_WRITE sales mix makes as many ``LockManager.acquire``
    calls with an enabled observer as without one: an elided lock is
    counted, not taken (1.095 against 0.095 per transaction when lock
    metrics forced every lock)."""
    calls = []
    for observer in (None, Observer()):
        db, _data = load_sales_database(row_scale=0.002, seed=1, observer=observer)
        acquire, counted = db.locks.acquire, []
        db.locks.acquire = lambda *args, **kw: (counted.append(1), acquire(*args, **kw))[1]
        SalesWorkload(db, READ_WRITE, seed=1).run_many(400)
        calls.append(len(counted))
    assert calls[0] == calls[1] > 0
    assert calls[0] / 400 < 0.2  # T2's explicit locks only
