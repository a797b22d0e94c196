"""Deadline propagation: the object itself, and engine cancellation.

The integration tests drive a real engine database under a manual clock
and verify the PR's core safety claim: a transaction cancelled by its
deadline releases every lock and rolls back cleanly -- including MVCC
write intents under SNAPSHOT isolation -- so no other transaction ever
waits on, or conflicts with, a corpse.
"""

import pytest

from repro.engine.database import Database
from repro.engine.errors import DeadlineExceededError
from repro.engine.locks import LockMode
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.qos.deadline import Deadline


def fresh_db(**kwargs):
    db = Database("qos_deadline", **kwargs)
    db.create_table(Schema(
        "KV",
        (
            Column("K", ColumnType.INT, nullable=False),
            Column("V", ColumnType.INT, nullable=False, default=0),
        ),
        primary_key="K",
    ))
    for k in range(1, 6):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k * 10])
    return db


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


# -- the Deadline object ------------------------------------------------------


class TestDeadline:
    def test_after_and_remaining(self):
        clock = ManualClock(10.0)
        deadline = Deadline.after(5.0, clock)
        assert deadline.remaining_s() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.now = 15.0
        assert deadline.expired()
        assert deadline.remaining_s() == pytest.approx(0.0)

    def test_after_rejects_negative_timeout(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_check_raises_with_context(self):
        clock = ManualClock()
        deadline = Deadline(1.0, clock)
        deadline.check("lock wait")  # no-op while alive
        clock.now = 1.5
        with pytest.raises(DeadlineExceededError, match="lock wait"):
            deadline.check("lock wait")

    def test_expired_accepts_explicit_now(self):
        deadline = Deadline(1.0, ManualClock())
        assert not deadline.expired(now=0.5)
        assert deadline.expired(now=1.0)

    def test_child_never_outlives_parent(self):
        clock = ManualClock()
        parent = Deadline(1.0, clock)
        assert parent.child(10.0).expires_at_s == pytest.approx(1.0)
        tighter = parent.child(0.3)
        assert tighter.expires_at_s == pytest.approx(0.3)
        assert tighter.clock is clock


# -- engine integration: cancellation rolls back cleanly ----------------------


class TestEngineCancellation:
    def test_expired_txn_rolls_back_and_releases_locks(self):
        clock = ManualClock()
        db = fresh_db()
        txn = db.begin(deadline=Deadline(1.0, clock))
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [111, 1], txn=txn)
        assert db.locks.locks_held(txn.txn_id)
        clock.now = 2.0  # the deadline passes mid-transaction
        with pytest.raises(DeadlineExceededError):
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [222, 2], txn=txn)
        # rolled back *before* raising: no locks, no dirty state
        assert not txn.is_active
        assert db.locks.locks_held(txn.txn_id) == set()
        assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10
        assert db.deadline_cancellations == 1

    def test_expired_waiter_never_joins_the_lock_queue(self):
        clock = ManualClock()
        db = fresh_db()
        holder = db.begin()
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [111, 1], txn=holder)
        doomed = db.begin(deadline=Deadline(1.0, clock))
        clock.now = 2.0
        with pytest.raises(DeadlineExceededError):
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [222, 1], txn=doomed)
        # the doomed txn took no lock beside the holder's
        assert db.locks.holders(("KV", 1)) == {holder.txn_id: LockMode.EXCLUSIVE}
        db.locks.sanity_check()
        holder.commit()
        assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 111

    def test_snapshot_write_intents_are_rolled_back(self):
        clock = ManualClock()
        db = fresh_db(default_isolation=IsolationLevel.SNAPSHOT)
        baseline_versions = db.live_versions()
        txn = db.begin(deadline=Deadline(1.0, clock))
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [111, 1], txn=txn)
        clock.now = 2.0
        with pytest.raises(DeadlineExceededError):
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [222, 2], txn=txn)
        assert not txn.is_active
        # the aborted write intent is gone: a later snapshot writer to the
        # same key neither conflicts nor sees the cancelled value
        later = db.begin()
        assert db.execute(
            "SELECT V FROM kv WHERE K = ?", [1], txn=later
        ).scalar() == 10
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [333, 1], txn=later)
        later.commit()
        assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 333
        db.vacuum()
        assert db.live_versions() <= baseline_versions + 1

    def test_alive_deadline_does_not_interfere(self):
        clock = ManualClock()
        db = fresh_db()
        with db.begin(deadline=Deadline(100.0, clock)) as txn:
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [42, 3], txn=txn)
        assert db.query("SELECT V FROM kv WHERE K = ?", [3]).scalar() == 42
        assert db.deadline_cancellations == 0

