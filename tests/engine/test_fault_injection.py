"""Fault-injection: crashes at arbitrary points in a transaction stream.

The durability contract: after ``crash()`` + ``recover()``, exactly the
committed transactions are visible -- no matter where in the stream the
crash lands, how checkpoints interleave, or how often the cycle repeats.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import EngineError, TransactionAborted
from repro.engine.types import Column, ColumnType, Schema


def fresh_db():
    db = Database("fault")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def kv_state(db):
    return dict(db.query("SELECT K, V FROM kv").rows)


#: one scripted step of the stream
step_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete", "checkpoint", "crash"]),
    st.integers(min_value=1, max_value=8),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(step_strategy, min_size=1, max_size=40))
def test_property_recovery_matches_model_at_any_crash_point(steps):
    db = fresh_db()
    model = {}
    counter = 0
    for op, key in steps:
        if op == "checkpoint":
            db.checkpoint()
            continue
        if op == "crash":
            db.crash()
            db.recover()
            assert kv_state(db) == model
            continue
        counter += 1
        try:
            if op == "insert":
                db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, counter])
                model[key] = counter
            elif op == "update":
                if db.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [counter, key]
                ).rowcount:
                    model[key] = counter
            else:
                if db.execute("DELETE FROM kv WHERE K = ?", [key]).rowcount:
                    model.pop(key, None)
        except EngineError:
            pass
    db.crash()
    db.recover()
    assert kv_state(db) == model


def test_crash_mid_transaction_loses_only_that_transaction():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    db.checkpoint()
    open_txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=open_txn)
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [99, 1], txn=open_txn)
    db.crash()
    db.recover()
    assert kv_state(db) == {1: 1}
    # the old handle is unusable after the crash
    with pytest.raises(TransactionAborted):
        open_txn.ensure_active()


def test_repeated_crash_recover_cycles_are_stable():
    db = fresh_db()
    for k in range(1, 6):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    expected = kv_state(db)
    for _ in range(4):
        db.crash()
        db.recover()
        assert kv_state(db) == expected
        db.checkpoint()


def test_crash_between_checkpoint_and_commit():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    txn = db.begin()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=txn)
    # a checkpoint cannot run while the transaction is open...
    with pytest.raises(EngineError):
        db.checkpoint()
    txn.commit()
    db.checkpoint()
    db.crash()
    db.recover()
    assert kv_state(db) == {1: 1, 2: 2}


def test_recovery_preserves_autoincrement_progression():
    db = fresh_db()
    db.create_table(Schema(
        "SEQ",
        (Column("S_ID", ColumnType.INT, nullable=False, autoincrement=True),
         Column("S_V", ColumnType.INT, default=0)),
        primary_key="S_ID",
    ))
    for _ in range(3):
        db.execute("INSERT INTO seq (S_V) VALUES (?)", [1])
    db.crash()
    db.recover()
    db.execute("INSERT INTO seq (S_V) VALUES (?)", [2])
    keys = sorted(row[0] for row in db.query("SELECT S_ID FROM seq").rows)
    assert keys == [1, 2, 3, 4]  # no key reuse after recovery


def test_secondary_indexes_consistent_after_recovery():
    db = fresh_db()
    db.create_index("KV", "kv_v", ("V",))
    for k in range(1, 8):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k % 3])
    db.checkpoint()
    db.execute("UPDATE kv SET V = ? WHERE K = ?", [9, 1])
    db.execute("DELETE FROM kv WHERE K = ?", [2])
    db.crash()
    db.recover()
    # index-backed query agrees with a scan-backed one
    via_index = sorted(r[0] for r in db.query(
        "SELECT K FROM kv WHERE V = ?", [0]).rows)
    via_scan = sorted(
        k for k, v in db.query("SELECT K, V FROM kv").rows if v == 0
    )
    assert via_index == via_scan


def test_replication_resumes_after_primary_recovery():
    """A replica attached after recovery sees all recovered state."""
    db = fresh_db()
    for k in range(1, 4):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    db.crash()
    db.recover()
    clone = db.clone_full("replica")
    assert kv_state(clone) == kv_state(db)


def test_txn_ids_stay_monotone_across_crashes():
    """Regression: a reused txn id after crash let a new ABORT record
    poison an identically-numbered committed pre-crash transaction."""
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    max_before = db.wal.max_txn_id()
    db.crash()
    db.recover()
    txn = db.begin()
    assert txn.txn_id > max_before
    txn.rollback()
    db.crash()
    db.recover()
    assert kv_state(db) == {1: 1, 2: 2}


def test_txn_ids_stay_monotone_across_a_truncating_checkpoint():
    """Regression: the restart took its next id from the retained log, so
    a truncating checkpoint just before the crash sent ids back to 1 --
    while archives, backups and standbys still held the older records."""
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    max_before = db.wal.max_txn_id()
    assert max_before == 2
    db.checkpoint(truncate_wal=True)
    assert {record.txn_id for record in db.wal.records_from(db.checkpoint_lsn)} == {0}
    db.crash()
    db.recover()
    assert db.begin().txn_id == max_before + 1
    # a corrupt tail is discarded with its records, not with their ids
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 3])
    last = db.wal.last_lsn
    db.wal.flip_bit(last)
    db.crash()
    assert db.recover().corrupt_from_lsn == last
    assert db.begin().txn_id == max_before + 3
