"""Isolation-anomaly matrix across all four isolation levels.

For each classical anomaly -- dirty read, non-repeatable read, lost
update, write skew -- these tests assert which levels permit and which
forbid it:

=====================  ====  ====  ========  ============
anomaly                RC    RR    SNAPSHOT  SERIALIZABLE
=====================  ====  ====  ========  ============
dirty read             no    no    no        no
non-repeatable read    YES   no    no        no
lost update            YES   no    no        no
write skew             YES   YES   YES       no
=====================  ====  ====  ========  ============

The engine's two MVCC levels (REPEATABLE_READ and SNAPSHOT) are both
snapshot isolation, PostgreSQL-style: they forbid lost updates via
first-updater-wins (:class:`WriteConflictError`) but permit write skew,
which only strict 2PL (SERIALIZABLE) prevents.  The lock-based levels
forbid dirty reads through the no-wait lock manager: a reader aborts
with :class:`LockTimeoutError` instead of seeing uncommitted data.

Also here: crash-recovery tests asserting version chains are rebuilt by
redo/undo so snapshot reads keep working after ``crash()``/``recover()``,
and the tests -- explicit and stateful -- that a write builds version
history only while a snapshot could read it, yet every snapshot reads
what it would if every write had built it.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.engine.database import Database
from repro.engine.errors import (
    DuplicateKeyError,
    LockTimeoutError,
    SqlError,
    TransactionAborted,
    WriteConflictError,
)
from repro.engine.txn import MVCC_LEVELS, IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.obs import Observer
from tests.engine.slow_path import footprint, force_slow_paths, outcome

RC = IsolationLevel.READ_COMMITTED
RR = IsolationLevel.REPEATABLE_READ
SNAP = IsolationLevel.SNAPSHOT
SER = IsolationLevel.SERIALIZABLE
ALL_LEVELS = (RC, RR, SNAP, SER)


def make_db(**options) -> Database:
    db = Database("iso-test", **options)
    db.create_table(Schema(
        "ACC",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("BAL", ColumnType.INT, nullable=False),
        ),
        primary_key="ID",
    ))
    db.execute("INSERT INTO ACC VALUES (?, ?)", [1, 100])
    db.execute("INSERT INTO ACC VALUES (?, ?)", [2, 200])
    return db


def balance(db, txn, key):
    return db.execute(
        "SELECT BAL FROM ACC WHERE ID = ?", [key], txn=txn
    ).scalar()


class TestDirtyRead:
    """No level may observe another transaction's uncommitted write."""

    @pytest.mark.parametrize("level", ALL_LEVELS)
    def test_uncommitted_write_invisible(self, level):
        db = make_db()
        writer = db.begin()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [999, 1], txn=writer)
        reader = db.begin(level)
        if level in MVCC_LEVELS:
            # snapshot reads bypass locks and resolve to the committed image
            assert balance(db, reader, 1) == 100
            reader.commit()
        else:
            # lock-based readers abort (no-wait) rather than read dirty data
            with pytest.raises(LockTimeoutError):
                balance(db, reader, 1)
        writer.rollback()


#: per access path: statements whose match the deleted row (ID 1, BAL
#: 100) was but a row moved to ID 3 is not, and a read it was not
ACCESS_PATHS = {
    "pk_point": (
        (("SELECT BAL FROM ACC WHERE ID = ?", [1]),
         ("SELECT BAL FROM ACC WHERE ID = ? FOR UPDATE", [1]),
         ("UPDATE ACC SET BAL = ? WHERE ID = ?", [5, 1]),
         ("DELETE FROM ACC WHERE ID = ?", [1])),
        ("SELECT BAL FROM ACC WHERE ID = ?", [2]),
    ),
    "index_eq": (
        (("SELECT ID FROM ACC WHERE BAL = ? AND ID < ?", [100, 3]),
         ("SELECT ID FROM ACC WHERE BAL = ? AND ID <> ? FOR UPDATE", [100, 3]),
         ("UPDATE ACC SET BAL = ? WHERE BAL = ? AND ID < ?", [5, 100, 3]),
         ("DELETE FROM ACC WHERE BAL = ? AND ID <> ?", [100, 3])),
        ("SELECT BAL FROM ACC WHERE BAL = ?", [200]),
    ),
    "index_range": (
        (("SELECT COUNT(*) FROM ACC WHERE ID <= ?", [2]),
         ("SELECT BAL FROM ACC WHERE ID < ? FOR UPDATE", [2]),
         ("UPDATE ACC SET BAL = ? WHERE ID >= ? AND ID < ?", [5, 1, 3]),
         ("DELETE FROM ACC WHERE ID <= ? AND BAL < ?", [1, 150])),
        ("SELECT BAL FROM ACC WHERE ID >= ? AND ID < ?", [2, 3]),
    ),
    "table_scan": (
        (("SELECT COUNT(*) FROM ACC WHERE ID <> ?", [3]),
         ("SELECT ID FROM ACC WHERE BAL < ? AND ID <> ? FOR UPDATE", [150, 3]),
         ("UPDATE ACC SET BAL = ? WHERE BAL > ? AND ID <> ?", [0, 0, 3]),
         ("DELETE FROM ACC WHERE BAL <> ? AND ID <> ?", [200, 3])),
        ("SELECT BAL FROM ACC WHERE BAL > ?", [150]),
    ),
}


@pytest.mark.parametrize("shape", ["delete", "move"])
def test_an_uncommitted_delete_is_met_not_read_through(shape):
    """A read, UPDATE or DELETE whose match the row an open transaction
    deleted (or moved away) was -- by primary key, secondary index,
    range or full scan -- meets that transaction's lock, as it would an
    uncommitted UPDATE's, instead of seeing the row gone; a statement the
    removed row does not match reads past it."""
    for access in sorted(ACCESS_PATHS):
        db = make_db()
        db.create_index("ACC", "acc_bal", ("BAL",))
        writer = db.begin()
        sql, params = {
            "delete": ("DELETE FROM ACC WHERE ID = ?", [1]),
            "move": ("UPDATE ACC SET ID = ? WHERE ID = ?", [3, 1]),
        }[shape]
        db.execute(sql, params, txn=writer)
        met_by, missed_by = ACCESS_PATHS[access]
        for sql, params in met_by:
            assert db.explain(sql, params).startswith(
                {"pk_point": "primary-key lookup", "index_eq": "index lookup",
                 "index_range": "index range scan", "table_scan": "full table scan"}[access]
            ), access
            for level in (None, RC, SER):  # None: autocommit
                txn = None if level is None else db.begin(level)
                with pytest.raises(LockTimeoutError) as met:
                    db.execute(sql, params, txn=txn)
                assert met.value.holders == {writer.txn_id}, (access, sql)
        for level in (None, RC, SER):
            txn = None if level is None else db.begin(level)
            assert db.execute(*missed_by, txn=txn).rows == [(200,)], access
            if txn is not None:
                txn.commit()
        # the writer reads its own delete, and nothing else touched the row
        assert db.execute("SELECT BAL FROM ACC WHERE ID = ?", [1], txn=writer).rows == []
        writer.rollback()
        assert sorted(db.execute("SELECT ID, BAL FROM ACC").rows) == [(1, 100), (2, 200)]


class TestNonRepeatableRead:
    """Permitted only under READ_COMMITTED."""

    def test_read_committed_sees_intervening_commit(self):
        db = make_db()
        reader = db.begin(RC)
        assert balance(db, reader, 1) == 100
        writer = db.begin()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [150, 1], txn=writer)
        writer.commit()
        assert balance(db, reader, 1) == 150  # the anomaly
        reader.commit()

    @pytest.mark.parametrize("level", (RR, SNAP))
    def test_mvcc_levels_repeat_the_first_read(self, level):
        db = make_db()
        reader = db.begin(level)
        assert balance(db, reader, 1) == 100
        writer = db.begin()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [150, 1], txn=writer)
        writer.commit()
        assert balance(db, reader, 1) == 100
        reader.commit()

    def test_serializable_blocks_the_writer_instead(self):
        db = make_db()
        reader = db.begin(SER)
        assert balance(db, reader, 1) == 100
        writer = db.begin()
        # reader's S lock is held to commit; the no-wait writer aborts
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [150, 1], txn=writer)
        assert balance(db, reader, 1) == 100
        reader.commit()


class TestLostUpdate:
    """Two read-modify-write cycles on one row must not silently merge."""

    def test_read_committed_loses_the_first_update(self):
        db = make_db()
        a = db.begin(RC)
        b = db.begin(RC)
        seen_a = balance(db, a, 1)
        seen_b = balance(db, b, 1)  # RC releases S locks per statement
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [seen_a + 10, 1], txn=a)
        a.commit()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [seen_b + 5, 1], txn=b)
        b.commit()
        # b overwrote a's increment: the classic lost update
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 105

    @pytest.mark.parametrize("level", (RR, SNAP))
    def test_mvcc_raises_retryable_write_conflict(self, level):
        db = make_db()
        a = db.begin(level)
        b = db.begin(level)
        seen_a = balance(db, a, 1)
        seen_b = balance(db, b, 1)
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [seen_a + 10, 1], txn=a)
        a.commit()
        with pytest.raises(WriteConflictError) as info:
            db.execute(
                "UPDATE ACC SET BAL = ? WHERE ID = ?", [seen_b + 5, 1], txn=b
            )
        assert info.value.retryable
        assert not b.is_active  # first-updater-wins rolled b back
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 110

    def test_serializable_aborts_via_held_read_lock(self):
        db = make_db()
        a = db.begin(SER)
        b = db.begin(SER)
        balance(db, a, 1)
        balance(db, b, 1)  # both hold S locks to commit
        with pytest.raises(LockTimeoutError):
            db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [110, 1], txn=a)
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [105, 1], txn=b)
        b.commit()
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 105


class TestWriteSkew:
    """Disjoint writes off overlapping reads: only SERIALIZABLE forbids it.

    The classic constraint: BAL(1) + BAL(2) must stay >= 0.  Each
    transaction checks the sum then withdraws from a *different* row --
    snapshot isolation admits both, breaking the invariant.
    """

    def _attempt(self, db, level):
        a = db.begin(level)
        b = db.begin(level)
        total_a = balance(db, a, 1) + balance(db, a, 2)
        total_b = balance(db, b, 1) + balance(db, b, 2)
        assert total_a == total_b == 300
        # each withdraws 250 from its own row, believing 300 is available
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [100 - 250, 1], txn=a)
        a.commit()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [200 - 250, 2], txn=b)
        b.commit()

    @pytest.mark.parametrize("level", (RC, RR, SNAP))
    def test_permitted_below_serializable(self, level):
        db = make_db()
        self._attempt(db, level)
        total = (
            db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar()
            + db.query("SELECT BAL FROM ACC WHERE ID = ?", [2]).scalar()
        )
        assert total < 0  # invariant broken: write skew happened

    def test_forbidden_under_serializable(self):
        db = make_db()
        with pytest.raises(TransactionAborted):
            self._attempt(db, SER)
        total = (
            db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar()
            + db.query("SELECT BAL FROM ACC WHERE ID = ?", [2]).scalar()
        )
        assert total >= 0


class TestSnapshotReadPaths:
    """Visibility holds on every access plan, not just point lookups."""

    def test_scan_and_aggregate_see_the_snapshot(self):
        db = make_db()
        reader = db.begin(SNAP)
        assert db.execute(
            "SELECT COUNT(*) FROM ACC", txn=reader
        ).scalar() == 2
        db.execute("INSERT INTO ACC VALUES (?, ?)", [3, 300])
        db.execute("DELETE FROM ACC WHERE ID = ?", [2])
        # the snapshot still counts the original two rows
        assert db.execute(
            "SELECT COUNT(*) FROM ACC", txn=reader
        ).scalar() == 2
        rows = db.execute("SELECT * FROM ACC", txn=reader).rows
        assert sorted(rows) == [(1, 100), (2, 200)]
        reader.commit()

    def test_own_writes_visible_to_self(self):
        db = make_db()
        txn = db.begin(SNAP)
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [123, 1], txn=txn)
        assert balance(db, txn, 1) == 123
        db.execute("INSERT INTO ACC VALUES (?, ?)", [9, 9], txn=txn)
        assert db.execute(
            "SELECT COUNT(*) FROM ACC", txn=txn
        ).scalar() == 3
        txn.commit()

    def test_deleted_row_still_visible_to_older_snapshot(self):
        db = make_db()
        reader = db.begin(SNAP)
        db.execute("DELETE FROM ACC WHERE ID = ?", [1])
        assert balance(db, reader, 1) == 100
        reader.commit()
        fresh = db.begin(SNAP)
        assert db.execute(
            "SELECT BAL FROM ACC WHERE ID = ?", [1], txn=fresh
        ).rows == []
        fresh.commit()


class TestVacuum:
    """GC trims history no live snapshot can need, and no more."""

    def test_versions_pinned_by_live_snapshot(self):
        db = make_db()
        reader = db.begin(SNAP)
        for value in range(5):
            db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [value, 1], txn=None)
        before = db.live_versions()
        db.vacuum()
        # the reader's snapshot pins the base version; history up to it
        # may go, but the visible image must survive
        assert balance(db, reader, 1) == 100
        reader.commit()
        db.vacuum()
        assert db.live_versions() == 0
        assert db.live_versions() < before

    def test_auto_vacuum_triggers_on_commit(self):
        db = Database("auto-vac", auto_vacuum_versions=8)
        db.create_table(Schema(
            "T", (Column("K", ColumnType.INT, nullable=False),
                  Column("V", ColumnType.INT)), primary_key="K",
        ))
        db.execute("INSERT INTO T VALUES (?, ?)", [1, 0])
        for value in range(40):
            # an RC write builds history only while a snapshot can read it
            reader = db.begin(SNAP)
            db.execute("UPDATE T SET V = ? WHERE K = ?", [value, 1])
            reader.commit()
        assert db.vacuum_runs > 0
        assert db.live_versions() < 40

    def test_checkpoint_vacuums(self):
        db = make_db()
        reader = db.begin(SNAP)
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [7, 1])
        assert db.live_versions() > 0
        reader.commit()
        db.checkpoint()
        assert db.live_versions() == 0


class TestQueryGuard:
    """``Database.query`` is read-only (regression: it silently ran writes)."""

    def test_query_rejects_writes(self):
        db = make_db()
        for sql, params in (
            ("INSERT INTO ACC VALUES (?, ?)", [5, 5]),
            ("UPDATE ACC SET BAL = ? WHERE ID = ?", [0, 1]),
            ("DELETE FROM ACC WHERE ID = ?", [1]),
        ):
            with pytest.raises(SqlError):
                db.query(sql, params)
        # nothing was mutated
        assert db.query("SELECT COUNT(*) FROM ACC").scalar() == 2
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 100

    def test_execute_still_writes(self):
        db = make_db()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [1, 1])
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 1


class TestCrashRecoveryChains:
    """Version chains are rebuilt from the WAL after a crash."""

    def test_snapshot_reads_after_recovery(self):
        db = make_db()
        db.checkpoint()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [111, 1])
        db.execute("INSERT INTO ACC VALUES (?, ?)", [3, 333])
        db.execute("DELETE FROM ACC WHERE ID = ?", [2])
        db.crash()
        db.recover()
        reader = db.begin(SNAP)
        assert balance(db, reader, 1) == 111
        assert balance(db, reader, 3) == 333
        assert db.execute(
            "SELECT BAL FROM ACC WHERE ID = ?", [2], txn=reader
        ).rows == []
        assert db.execute("SELECT COUNT(*) FROM ACC", txn=reader).scalar() == 2
        reader.commit()

    def test_loser_versions_removed_by_undo(self):
        db = make_db()
        db.checkpoint()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [500, 1])
        loser = db.begin()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [666, 1], txn=loser)
        db.execute("INSERT INTO ACC VALUES (?, ?)", [7, 7], txn=loser)
        db.crash()  # loser never committed
        report = db.recover()
        assert report.records_undone > 0
        reader = db.begin(SNAP)
        assert balance(db, reader, 1) == 500
        assert db.execute(
            "SELECT BAL FROM ACC WHERE ID = ?", [7], txn=reader
        ).rows == []
        reader.commit()

    def test_mvcc_conflict_state_resets_after_recovery(self):
        db = make_db()
        db.checkpoint()
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [1, 1])
        db.crash()
        db.recover()
        # a fresh snapshot writer must not conflict with pre-crash history
        txn = db.begin(SNAP)
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [2, 1], txn=txn)
        txn.commit()
        assert db.query("SELECT BAL FROM ACC WHERE ID = ?", [1]).scalar() == 2

    def test_replica_snapshot_reads_shipped_versions(self):
        from repro.engine.recovery import ReplicaApplier
        from tests.engine.test_recovery import on_commit

        db = make_db()
        replica = db.clone_full("replica")
        applier = ReplicaApplier(replica)
        batches = []
        on_commit(db, lambda *batch: batches.append(batch))
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [777, 1])
        for batch in batches:
            applier.apply_batch(*batch)
        assert replica.snapshot_floor == applier.applied_lsn
        reader = replica.begin(SNAP)
        assert replica.execute(
            "SELECT BAL FROM ACC WHERE ID = ?", [1], txn=reader
        ).scalar() == 777
        reader.commit()


# -- version chains only while a snapshot could read them ----------------------

#: ``make_db``'s rows, which every snapshot below begins on
BEFORE = {1: 100, 2: 200}
#: every key the writes below touch
KEYS = (1, 2, 3, 4)

#: One RC write per shape: its SQL, the rows after it, and a write by a
#: snapshot begun before its commit that first-updater-wins must refuse.
WRITES = {
    "update": (("UPDATE ACC SET BAL = ? WHERE ID = ?", [999, 1]),
               {1: 999, 2: 200},
               ("UPDATE ACC SET BAL = ? WHERE ID = ?", [5, 1])),
    "insert": (("INSERT INTO ACC VALUES (?, ?)", [3, 300]),
               {1: 100, 2: 200, 3: 300},
               ("UPDATE ACC SET BAL = ? WHERE ID = ?", [5, 3])),
    "delete": (("DELETE FROM ACC WHERE ID = ?", [1]),
               {2: 200},
               ("INSERT INTO ACC VALUES (?, ?)", [1, 5])),
    "move": (("UPDATE ACC SET ID = ? WHERE ID = ?", [3, 1]),
             {2: 200, 3: 100},
             ("INSERT INTO ACC VALUES (?, ?)", [1, 5])),
}


def view(db, txn=None):
    """The rows ``txn`` sees, read by a full scan and by point reads."""
    scanned = dict(db.execute("SELECT ID, BAL FROM ACC", txn=txn).rows)
    pointed = {}
    for key in KEYS:
        rows = db.execute("SELECT BAL FROM ACC WHERE ID = ?", [key], txn=txn).rows
        if rows:
            pointed[key] = rows[0][0]
    assert scanned == pointed
    return scanned


def chain_state(db):
    return {
        key: [(v.row, v.begin_lsn, v.begin_txn, v.end_lsn, v.end_txn) for v in chain]
        for key, chain in db.table("ACC").versions.chains()
    }


def write_in(db, txn, shape):
    sql, params = WRITES[shape][0]
    db.execute(sql, params, txn=txn)


@pytest.mark.parametrize("shape", sorted(WRITES))
class TestChainsOnlyWhileASnapshotIsLive:
    """A chainless key gets chain entries only while a snapshot is live;
    a snapshot begun on an in-flight writer gets them built for it."""

    @pytest.mark.parametrize("commit", (True, False), ids=("commit", "rollback"))
    def test_rc_only_write_builds_no_history(self, shape, commit):
        db = make_db(auto_vacuum_versions=1)
        writer = db.begin()
        write_in(db, writer, shape)
        assert db.live_versions() == 0
        writer.commit() if commit else writer.rollback()
        assert db.live_versions() == 0
        assert db.vacuum_runs == 0
        assert view(db) == (WRITES[shape][1] if commit else BEFORE)

    def test_snapshot_on_in_flight_writer_sees_the_before_image(self, shape):
        db = make_db()
        writer = db.begin()
        write_in(db, writer, shape)
        reader = db.begin(SNAP)
        assert view(db, reader) == BEFORE
        writer.commit()
        assert view(db, reader) == BEFORE
        assert view(db) == WRITES[shape][1]
        reader.commit()

    def test_snapshot_loses_a_later_write_to_the_writer(self, shape):
        db = make_db()
        writer = db.begin()
        write_in(db, writer, shape)
        reader = db.begin(SNAP)
        writer.commit()
        sql, params = WRITES[shape][2]
        with pytest.raises(WriteConflictError):
            db.execute(sql, params, txn=reader)
        assert not reader.is_active
        assert view(db) == WRITES[shape][1]

    def test_rollback_after_the_replay_restores_the_snapshot_view(self, shape):
        db = make_db()
        writer = db.begin()
        write_in(db, writer, shape)
        reader = db.begin(SNAP)
        assert db.live_versions() > 0
        writer.rollback()
        assert view(db, reader) == BEFORE
        assert view(db) == BEFORE
        reader.commit()
        db.vacuum()
        assert db.live_versions() == 0

    def test_chain_from_an_earlier_snapshot_stays_in_step(self, shape):
        db = make_db()
        reader = db.begin(SNAP)
        # history on every key a shape writes, from while a snapshot was live
        db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [100, 1])
        db.execute("INSERT INTO ACC VALUES (?, ?)", [3, 0])
        db.execute("DELETE FROM ACC WHERE ID = ?", [3])
        reader.commit()
        chains = chain_state(db)
        assert chains and db.txns.live_snapshots == 0
        writer = db.begin()
        write_in(db, writer, shape)
        assert chain_state(db) != chains and not writer.deferred
        writer.rollback()
        assert chain_state(db) == chains
        writer = db.begin()
        write_in(db, writer, shape)
        writer.commit()
        reader = db.begin(SNAP)
        assert view(db, reader) == WRITES[shape][1]
        reader.commit()

    def test_prepared_branch_replays_at_snapshot_begin(self, shape):
        db = make_db()
        branch = db.begin()
        write_in(db, branch, shape)
        db.prepare_commit(branch, "g-1")
        assert db.live_versions() == 0
        reader = db.begin(SNAP)
        assert db.live_versions() > 0
        assert view(db, reader) == BEFORE
        branch.commit()
        assert view(db, reader) == BEFORE
        sql, params = WRITES[shape][2]
        with pytest.raises(WriteConflictError):
            db.execute(sql, params, txn=reader)


# Shrunk by ``SnapshotsOverRCWriters`` from engines that broke the rule.


def test_replay_keeps_a_writers_order():
    db = make_db()
    writer = db.begin()
    db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [5, 1], txn=writer)
    db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [7, 1], txn=writer)
    db.execute("UPDATE ACC SET ID = ? WHERE ID = ?", [3, 1], txn=writer)
    reader = db.begin(SNAP)
    assert view(db, reader) == BEFORE
    writer.commit()
    assert view(db, reader) == BEFORE


def test_a_move_onto_a_key_with_history_keeps_that_chain_in_step():
    db = make_db()
    reader = db.begin(SNAP)
    db.execute("INSERT INTO ACC VALUES (?, ?)", [3, 0])
    db.execute("DELETE FROM ACC WHERE ID = ?", [3])
    reader.commit()  # key 3 keeps its chain; key 1 has none
    db.execute("UPDATE ACC SET ID = ? WHERE ID = ?", [3, 1])
    reader = db.begin(SNAP)
    assert view(db, reader) == {2: 200, 3: 100}


def test_a_write_that_must_chain_first_builds_its_writers_deferred_entries():
    db = make_db()
    reader = db.begin(SNAP)
    db.execute("DELETE FROM ACC WHERE ID = ?", [1])
    reader.commit()  # key 1 keeps its chain
    writer = db.begin()
    db.execute("INSERT INTO ACC VALUES (?, ?)", [3, 300], txn=writer)  # deferred
    db.execute("UPDATE ACC SET ID = ? WHERE ID = ?", [1, 3], txn=writer)  # chained
    reader = db.begin(SNAP)
    assert view(db, reader) == {2: 200}
    writer.rollback()
    assert view(db, reader) == {2: 200}
    reader.commit()
    assert view(db) == {2: 200} == view(db, db.begin(SNAP))


@pytest.mark.parametrize("shape, built", [
    ("update", 2),  # the captured base image and the new version
    ("insert", 1),
    ("delete", 1),  # the captured base image, ended by the writer
    ("move", 2),
])
def test_versions_created_counts_every_version_built(shape, built):
    obs = Observer()
    db = make_db(observer=obs)
    created = obs.metrics.counter("engine.mvcc.versions_created")
    writer = db.begin()
    write_in(db, writer, shape)
    assert created.value == 0
    reader = db.begin(SNAP)
    assert created.value == built == db.live_versions()
    writer.commit()
    reader.commit()
    assert created.value == built


def test_the_slow_path_twin_takes_every_lock_and_builds_every_chain():
    obs = Observer()
    db = force_slow_paths(make_db(observer=obs))
    granted = obs.metrics.counter("engine.lock.granted")
    db.execute("UPDATE ACC SET BAL = ? WHERE ID = ?", [5, 1])
    db.query("SELECT BAL FROM ACC WHERE ID = ?", [2])
    assert granted.value == 2
    writer = db.begin()
    built = db.live_versions()
    write_in(db, writer, "insert")
    assert db.live_versions() == built + 1 and not writer.deferred
    writer.rollback()


class SnapshotsOverRCWriters(RuleBasedStateMachine):
    """RC writers update, insert, delete and move keys, then commit or
    roll back, while snapshots begin, read and end, and autocommit or
    READ COMMITTED statements meet the writers' locks.  Every snapshot
    read equals the rows committed when that snapshot began.  Each step
    runs on a plain database and on its slow-path twin
    (:func:`force_slow_paths`), and the two agree step by step."""

    def __init__(self):
        super().__init__()
        self.dbs = (make_db(), force_slow_paths(make_db()))
        self.committed = dict(BEFORE)
        self.current = dict(BEFORE)  # the heap: committed plus writers' changes
        self.writers = []  # [(txn per twin, keys it wrote)]; no two share a key
        self.snapshots = []  # [(txn per twin, committed rows at its begin)]

    def each(self, run, txns=(None, None)):
        """``run(db, txn)`` on both twins, which must return alike or
        raise the same engine error class; returns that outcome."""
        fast, slow = (outcome(run, db, txn) for db, txn in zip(self.dbs, txns))
        assert fast == slow
        return fast

    @precondition(lambda self: len(self.writers) < 3)
    @rule()
    def begin_writer(self):
        self.writers.append((tuple(db.begin(RC) for db in self.dbs), set()))

    @precondition(lambda self: self.writers)
    @rule(data=st.data())
    def write(self, data):
        txns, mine = data.draw(st.sampled_from(self.writers))
        theirs = set().union(*(keys for other, keys in self.writers if other is not txns))
        free = [key for key in KEYS if key not in theirs]
        if not free:
            return
        key = data.draw(st.sampled_from(free))
        value = data.draw(st.integers(0, 999))
        current = self.current

        def run(sql, params):
            assert self.each(lambda db, txn: db.execute(sql, params, txn=txn).rowcount, txns) == 1

        if key not in current:
            run("INSERT INTO ACC VALUES (?, ?)", [key, value])
            current[key] = value
            mine.add(key)
            return
        targets = [other for other in free if other not in current]
        op = data.draw(st.sampled_from(("update", "delete", "move")[:3 if targets else 2]))
        if op == "update":
            run("UPDATE ACC SET BAL = ? WHERE ID = ?", [value, key])
            current[key] = value
        elif op == "delete":
            run("DELETE FROM ACC WHERE ID = ?", [key])
            del current[key]
        else:
            new_key = data.draw(st.sampled_from(targets))
            run("UPDATE ACC SET ID = ? WHERE ID = ?", [new_key, key])
            current[new_key] = current.pop(key)
            mine.add(new_key)
        mine.add(key)

    @precondition(lambda self: self.writers)
    @rule(pick=st.integers(0, 2), commit=st.booleans())
    def end_writer(self, pick, commit):
        txns, mine = self.writers.pop(pick % len(self.writers))
        if commit:
            self.each(lambda db, txn: txn.commit(), txns)
            source, target = self.current, self.committed
        else:
            self.each(lambda db, txn: txn.rollback(), txns)
            source, target = self.committed, self.current
        for key in mine:
            if key in source:
                target[key] = source[key]
            else:
                target.pop(key, None)

    @rule(
        kind=st.sampled_from(("select", "scan", "update", "delete", "insert")),
        key=st.sampled_from(KEYS), value=st.integers(0, 999), data=st.data(),
    )
    def meet_writers(self, kind, key, value, data):
        """An autocommit statement, or a READ COMMITTED scan in a
        transaction of its own, on the heap: where it touches a row an
        open writer locks, looks a key one deleted up by primary key,
        scans a range the deleted row was in, or inserts it, it times
        out and changes nothing.  While a writer holds a deleted key, a
        scan starts at one: the bound a read-through would slip past."""
        current, committed = self.current, self.committed
        locked = set().union(*(keys for _txns, keys in self.writers))
        present = key in current
        if kind == "scan":
            deleted = sorted(locked - current.keys())
            if deleted:
                key = data.draw(st.sampled_from(deleted))
            # a locked key the heap lacks is a deleted row: its before-image
            # is keyed by it, so the range holds it exactly when it holds the key
            touched = [k for k in current.keys() | locked if k >= key]
            expected = sorted((k, current[k]) for k in touched if k in current)

            def run(db, _):
                txn = db.begin(RC)
                rows = db.execute("SELECT ID, BAL FROM ACC WHERE ID >= ?", [key], txn=txn).rows
                txn.commit()
                return sorted(rows)
        else:
            # a point lookup meets a writer's lock whether or not its row
            # is still in the heap; an INSERT only where the key is free
            touched = [key] if kind != "insert" or not present else []
            acted = int(present != (kind == "insert"))  # rows it changes
            sql, params, expected = {
                "select": ("SELECT ID, BAL FROM ACC WHERE ID = ?", [key],
                           [(key, current[key])] if present else []),
                "update": ("UPDATE ACC SET BAL = ? WHERE ID = ?", [value, key], acted),
                "delete": ("DELETE FROM ACC WHERE ID = ?", [key], acted),
                "insert": ("INSERT INTO ACC VALUES (?, ?)", [key, value],
                           DuplicateKeyError if present else 1),
            }[kind]

            def run(db, _):
                result = db.execute(sql, params)
                return result.rows if kind == "select" else result.rowcount
        if locked.intersection(touched):
            expected = LockTimeoutError
        assert self.each(run) == expected
        if expected == 1:  # an autocommit write committed
            if kind == "delete":
                del current[key], committed[key]
            else:
                current[key] = committed[key] = value

    @precondition(lambda self: len(self.snapshots) < 3)
    @rule()
    def begin_snapshot(self):
        self.snapshots.append((tuple(db.begin(SNAP) for db in self.dbs), dict(self.committed)))

    @precondition(lambda self: self.snapshots)
    @rule(pick=st.integers(0, 2))
    def read_snapshot(self, pick):
        txns, rows = self.snapshots[pick % len(self.snapshots)]
        assert self.each(view, txns) == rows

    @precondition(lambda self: self.snapshots)
    @rule(pick=st.integers(0, 2))
    def end_snapshot(self, pick):
        self.each(lambda db, txn: txn.commit(), self.snapshots.pop(pick % len(self.snapshots))[0])

    @invariant()
    def counts_its_snapshots(self):
        for db in self.dbs:
            assert db.txns.live_snapshots == len(self.snapshots)

    @invariant()
    def defers_only_while_no_snapshot_is_live(self):
        if self.snapshots:
            assert not any(txns[0].deferred for txns, _keys in self.writers)

    @invariant()
    def twins_agree(self):
        assert footprint(self.dbs[0]) == footprint(self.dbs[1])


TestSnapshotsOverRCWriters = SnapshotsOverRCWriters.TestCase
TestSnapshotsOverRCWriters.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
)
