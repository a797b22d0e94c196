"""Tests for the lock manager: compatibility, re-entrancy, and the
no-wait policy (a conflicting request is refused and leaves no state,
so a would-be wait-for cycle never forms)."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import LockTimeoutError
from repro.engine.locks import LockManager, LockMode, LockOutcome
from repro.engine.txn import TxnState
from repro.engine.types import Column, ColumnType, Schema

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
KEY_A = ("T", 1)
KEY_B = ("T", 2)


def test_shared_locks_are_compatible():
    locks = LockManager()
    assert locks.acquire(1, KEY_A, S) is LockOutcome.GRANTED
    assert locks.acquire(2, KEY_A, S) is LockOutcome.GRANTED
    assert set(locks.holders(KEY_A)) == {1, 2}


def test_exclusive_conflicts_with_shared():
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED


def test_exclusive_conflicts_with_exclusive():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED


def test_reentrant_acquisition():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(1, KEY_A, X) is LockOutcome.GRANTED
    assert locks.acquire(1, KEY_A, S) is LockOutcome.GRANTED  # X covers S


def test_upgrade_sole_shared_holder():
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    assert locks.acquire(1, KEY_A, X) is LockOutcome.GRANTED
    assert locks.holders(KEY_A)[1] is X


def test_upgrade_blocked_by_other_shared_holder():
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    locks.acquire(2, KEY_A, S)
    assert locks.acquire(1, KEY_A, X) is LockOutcome.BLOCKED


def test_release_one_shared_only():
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    locks.release_one(1, KEY_A)
    assert locks.holders(KEY_A) == {}
    # releasing an X lock early is a no-op (strict 2PL)
    locks.acquire(1, KEY_B, X)
    locks.release_one(1, KEY_B)
    assert locks.holders(KEY_B) == {1: X}


def test_release_one_promotes_waiter():
    """Nothing is promoted under no-wait: a writer refused by an S holder
    gets the key on its first retry after ``release_one`` frees it."""
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_one(1, KEY_A)
    assert locks.holders(KEY_A) == {}
    assert locks.acquire(2, KEY_A, X) is LockOutcome.GRANTED
    locks.sanity_check()


def test_locks_held_bookkeeping():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    locks.acquire(1, KEY_B, S)
    assert locks.locks_held(1) == {KEY_A, KEY_B}
    locks.release_all(1)
    assert locks.locks_held(1) == set()
    locks.sanity_check()

# -- no-wait: a refused request leaves no state behind ------------------------


def test_nonqueueing_acquire_leaves_no_state():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.acquire(3, KEY_A, S) is LockOutcome.BLOCKED
    assert locks.holders(KEY_A) == {1: X}
    assert locks.locks_held(2) == locks.locks_held(3) == set()
    locks.sanity_check()
    locks.release_all(1)
    assert locks.holders(KEY_A) == {}
    locks.sanity_check()


def test_no_false_deadlock_on_chain():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    # 3 meets the same holder: refused too, and neither 2 nor 3 waits
    assert locks.acquire(3, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.deadlocks_detected == 0


def test_refused_writer_leaves_no_queue_for_later_readers():
    # Nothing queues, so an S request after a refused X joins the S holder.
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.acquire(3, KEY_A, S) is LockOutcome.GRANTED
    assert locks.holders(KEY_A) == {1: S, 3: S}
    locks.sanity_check()


def test_refused_readers_are_granted_together_on_retry():
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, S) is LockOutcome.BLOCKED
    assert locks.acquire(3, KEY_A, S) is LockOutcome.BLOCKED
    locks.release_all(1)
    assert locks.acquire(2, KEY_A, S) is LockOutcome.GRANTED
    assert locks.acquire(3, KEY_A, S) is LockOutcome.GRANTED
    assert locks.holders(KEY_A) == {2: S, 3: S}
    locks.sanity_check()


def test_after_release_the_first_retry_wins():
    # No queue keeps arrival order: the first request after a release wins.
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.acquire(3, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_all(1)
    assert locks.acquire(3, KEY_A, X) is LockOutcome.GRANTED
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_all(3)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.GRANTED
    locks.sanity_check()


def test_writer_granted_as_soon_as_readers_drain():
    locks = LockManager()
    locks.acquire(1, KEY_A, S)
    locks.acquire(2, KEY_A, S)
    assert locks.acquire(10, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_all(1)
    assert locks.acquire(10, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_all(2)                 # last reader out
    assert locks.acquire(10, KEY_A, X) is LockOutcome.GRANTED
    locks.sanity_check()


def test_repolling_waiter_keeps_its_queue_position():
    """A refused txn that re-requests (timeout loops re-poll) never gains a
    slot: there is no queue to hold a position in, so re-polling leaves no
    entry and earns no precedence over a txn that asked once."""
    locks = LockManager()
    locks.acquire(1, KEY_A, X)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.acquire(3, KEY_A, X) is LockOutcome.BLOCKED
    for _ in range(5):               # txn 2 re-polls while refused
        assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    assert locks.holders(KEY_A) == {1: X}
    assert locks.locks_held(2) == locks.locks_held(3) == set()
    locks.sanity_check()
    locks.release_all(1)
    assert locks.acquire(3, KEY_A, X) is LockOutcome.GRANTED
    assert locks.acquire(2, KEY_A, X) is LockOutcome.BLOCKED
    locks.release_all(3)
    assert locks.acquire(2, KEY_A, X) is LockOutcome.GRANTED
    locks.sanity_check()


def test_grant_after_timeout_loop():
    """Repeated refuse -> release -> retry cycles keep granting, and a
    refused request never leaves an entry that stalls the next round."""
    locks = LockManager()
    for round_no in range(50):
        holder, writer, reader = 3 * round_no + 1, 3 * round_no + 2, 3 * round_no + 3
        assert locks.acquire(holder, KEY_A, X) is LockOutcome.GRANTED
        assert locks.acquire(writer, KEY_A, X) is LockOutcome.BLOCKED
        assert locks.acquire(reader, KEY_A, S) is LockOutcome.BLOCKED
        locks.release_all(holder)
        assert locks.acquire(writer, KEY_A, X) is LockOutcome.GRANTED
        locks.sanity_check()
        locks.release_all(writer)
        assert locks.holders(KEY_A) == {}
        locks.sanity_check()
    assert locks.deadlocks_detected == 0


# -- would-be wait-for cycles at the Database level ----------------------------


def kv_db(rows=4):
    db = Database("locks")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False), Column("V", ColumnType.INT)),
        primary_key="K",
    ))
    for k in range(rows):
        db.execute("INSERT INTO kv VALUES (?, ?)", [k, 0])
    return db


def write(db, txn, key, value):
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [value, key], txn=txn)


def refused(db, txn, key, holder):
    """``txn``'s write of ``key`` is refused at once, naming ``holder``;
    ``txn`` is rolled back and leaves no lock-table entry."""
    with pytest.raises(LockTimeoutError) as caught:
        write(db, txn, key, -1)
    assert caught.value.holders == {holder.txn_id}
    assert txn.state is TxnState.ABORTED
    assert db.locks.locks_held(txn.txn_id) == set()
    assert txn.txn_id not in db.locks.holders(("KV", key))
    db.locks.sanity_check()


def test_would_be_two_cycle_ends_in_one_lock_timeout():
    db = kv_db()
    t1, t2 = db.begin(), db.begin()
    write(db, t1, 1, 11)
    write(db, t2, 2, 22)
    refused(db, t1, 2, holder=t2)        # would wait for t2
    write(db, t2, 1, 21)                 # would close the cycle: t1 is gone
    t2.commit()
    assert db.locks.holders(("KV", 1)) == db.locks.holders(("KV", 2)) == {}
    db.locks.sanity_check()
    assert db.query("SELECT K, V FROM kv ORDER BY K").rows == [
        (0, 0), (1, 21), (2, 22), (3, 0)]


def test_would_be_three_cycle_ends_in_one_lock_timeout():
    db = kv_db()
    t1, t2, t3 = db.begin(), db.begin(), db.begin()
    write(db, t1, 1, 11)
    write(db, t2, 2, 22)
    write(db, t3, 3, 33)
    refused(db, t1, 2, holder=t2)        # would wait for t2
    write(db, t3, 1, 31)                 # would wait for t1: it is gone
    t3.commit()
    write(db, t2, 3, 32)                 # would have waited for t3
    t2.commit()
    db.locks.sanity_check()
    assert db.query("SELECT K, V FROM kv ORDER BY K").rows == [
        (0, 0), (1, 31), (2, 22), (3, 32)]
