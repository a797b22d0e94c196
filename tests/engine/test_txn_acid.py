"""ACID tests: atomicity, isolation via 2PL, durability via WAL."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import LockTimeoutError, TransactionAborted
from repro.engine.types import Column, ColumnType, Schema


def fresh_db():
    db = Database("acid")
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


# -- atomicity ----------------------------------------------------------------

def test_rollback_undoes_insert():
    db = fresh_db()
    txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [100, 1], txn=txn)
    txn.rollback()
    assert db.query("SELECT V FROM kv WHERE K = ?", [100]).rows == []


def test_rollback_undoes_update():
    db = fresh_db()
    txn = db.begin()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [999, 1], txn=txn)
    txn.rollback()
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10


def test_rollback_undoes_delete():
    db = fresh_db()
    txn = db.begin()
    db.execute("DELETE FROM kv WHERE K = ?", [1], txn=txn)
    txn.rollback()
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10


def test_rollback_undoes_mixed_sequence_in_reverse():
    db = fresh_db()
    txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [7, 70], txn=txn)
    db.execute("UPDATE kv SET V = V + ? WHERE K = ?", [5, 7], txn=txn)
    db.execute("DELETE FROM kv WHERE K = ?", [7], txn=txn)
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1], txn=txn)
    txn.rollback()
    assert db.query("SELECT V FROM kv WHERE K = ?", [7]).rows == []
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10


def test_context_manager_commits_on_success():
    db = fresh_db()
    with db.begin() as txn:
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [42, 1], txn=txn)
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 42


def test_context_manager_rolls_back_on_exception():
    db = fresh_db()
    with pytest.raises(RuntimeError):
        with db.begin() as txn:
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [42, 1], txn=txn)
            raise RuntimeError("app error")
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10


def test_autocommit_failure_rolls_back():
    db = fresh_db()
    # second row in the statement fails -> statement-level rollback of txn
    txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [50, 1], txn=txn)
    txn.commit()
    assert db.query("SELECT COUNT(*) FROM kv").scalar() == 6


def test_finished_transaction_cannot_be_reused():
    db = fresh_db()
    txn = db.begin()
    txn.commit()
    with pytest.raises(TransactionAborted):
        db.execute("SELECT * FROM kv", txn=txn)
    txn.rollback()  # no-op, must not raise


# -- isolation (cooperative 2PL) ----------------------------------------------------

def test_write_write_conflict_blocks_second_writer():
    db = fresh_db()
    txn1 = db.begin()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [1, 1], txn=txn1)
    txn2 = db.begin()
    with pytest.raises(LockTimeoutError):
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [2, 1], txn=txn2)
    # the blocked transaction was rolled back by the no-wait policy
    assert not txn2.is_active
    txn1.commit()
    assert db.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 1


def test_reader_blocked_by_uncommitted_write():
    """No dirty reads: a read of an X-locked row aborts (no-wait)."""
    db = fresh_db()
    writer = db.begin()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [777, 2], txn=writer)
    reader = db.begin()
    with pytest.raises(LockTimeoutError):
        db.execute("SELECT V FROM kv WHERE K = ?", [2], txn=reader)
    writer.rollback()
    assert db.query("SELECT V FROM kv WHERE K = ?", [2]).scalar() == 20


def test_read_committed_releases_read_locks():
    db = fresh_db()
    reader = db.begin()  # READ COMMITTED by default
    db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=reader)
    writer = db.begin()
    # the reader's S lock is already gone, so the writer proceeds
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 3], txn=writer)
    writer.commit()
    reader.commit()
    assert db.query("SELECT V FROM kv WHERE K = ?", [3]).scalar() == 5


def test_serializable_holds_read_locks():
    from repro.engine.txn import IsolationLevel

    db = fresh_db()
    reader = db.begin(IsolationLevel.SERIALIZABLE)
    db.execute("SELECT V FROM kv WHERE K = ?", [3], txn=reader)
    writer = db.begin()
    with pytest.raises(LockTimeoutError):
        db.execute("UPDATE kv SET V = ? WHERE K = ?", [5, 3], txn=writer)
    reader.commit()


def test_shared_readers_coexist():
    from repro.engine.txn import IsolationLevel

    db = fresh_db()
    r1 = db.begin(IsolationLevel.SERIALIZABLE)
    r2 = db.begin(IsolationLevel.SERIALIZABLE)
    assert db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=r1).scalar() == 10
    assert db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=r2).scalar() == 10
    r1.commit()
    r2.commit()


def test_locks_released_after_commit():
    db = fresh_db()
    txn = db.begin()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [1, 1], txn=txn)
    txn.commit()
    assert db.locks.holders(("KV", 1)) == {}
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [2, 1])  # proceeds


# -- consistency under randomized workloads ---------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(min_value=1, max_value=12),
            st.booleans(),  # commit?
        ),
        max_size=30,
    )
)
def test_property_committed_state_matches_model(operations):
    """The database equals a dict model that only applies committed txns."""
    db = Database("prop")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    model = {}
    counter = 0
    for op, key, commit in operations:
        counter += 1
        txn = db.begin()
        try:
            if op == "insert":
                db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, counter], txn=txn)
            elif op == "update":
                db.execute("UPDATE kv SET V = ? WHERE K = ?", [counter, key], txn=txn)
            else:
                db.execute("DELETE FROM kv WHERE K = ?", [key], txn=txn)
        except TransactionAborted:
            continue
        except Exception:
            txn.rollback()
            continue
        if commit:
            txn.commit()
            if op == "insert":
                model[key] = counter
            elif op == "update" and key in model:
                model[key] = counter
            elif op == "delete":
                model.pop(key, None)
        else:
            txn.rollback()
    rows = dict(db.query("SELECT K, V FROM kv").rows)
    assert rows == model
