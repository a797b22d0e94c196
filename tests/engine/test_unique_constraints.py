"""Unique-constraint enforcement across all mutation paths.

A failed insert/update must leave pages, indexes and the WAL exactly
as they were (an earlier version wrote the page before validating the
unique secondary index, corrupting state -- these tests pin the fix).
"""

import pytest

from repro.engine.database import Database
from repro.engine.errors import DuplicateKeyError
from repro.engine.types import Column, ColumnType, Schema


@pytest.fixture
def db():
    db = Database("uniq")
    db.create_table(Schema(
        "USERS",
        (
            Column("U_ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("EMAIL", ColumnType.VARCHAR, nullable=False),
            Column("NICK", ColumnType.VARCHAR, default=""),
        ),
        primary_key="U_ID",
    ))
    db.create_index("USERS", "users_email", ("EMAIL",), unique=True)
    db.execute("INSERT INTO users (U_ID, EMAIL, NICK) VALUES (?, ?, ?)", [1, "a@x", "a"])
    db.execute("INSERT INTO users (U_ID, EMAIL, NICK) VALUES (?, ?, ?)", [2, "b@x", "b"])
    return db


def state(db):
    return sorted(db.query("SELECT U_ID, EMAIL, NICK FROM users").rows)


def test_insert_duplicate_secondary_rejected_cleanly(db):
    before = state(db)
    wal_before = db.wal.last_lsn
    with pytest.raises(DuplicateKeyError):
        db.execute("INSERT INTO users (EMAIL) VALUES (?)", ["a@x"])
    assert state(db) == before
    # only BEGIN/ABORT of the autocommit wrapper hit the WAL -- no data record
    data_records = [
        r for r in db.wal.records_from(wal_before + 1)
        if r.table is not None
    ]
    assert data_records == []


def test_update_to_duplicate_secondary_rejected_cleanly(db):
    before = state(db)
    with pytest.raises(DuplicateKeyError):
        db.execute("UPDATE users SET EMAIL = ? WHERE U_ID = ?", ["a@x", 2])
    assert state(db) == before
    # the index still resolves both keys correctly
    assert db.query("SELECT U_ID FROM users WHERE EMAIL = ?", ["a@x"]).rows == [(1,)]
    assert db.query("SELECT U_ID FROM users WHERE EMAIL = ?", ["b@x"]).rows == [(2,)]


def test_self_update_keeps_same_unique_value(db):
    # updating other columns while keeping the unique value must pass
    db.execute("UPDATE users SET NICK = ? WHERE U_ID = ?", ["bb", 2])
    db.execute("UPDATE users SET EMAIL = ? WHERE U_ID = ?", ["b@x", 2])
    assert db.query("SELECT NICK FROM users WHERE U_ID = ?", [2]).scalar() == "bb"


def test_swap_requires_intermediate_value(db):
    """a<->b email swap must fail atomically at the first statement."""
    txn = db.begin()
    with pytest.raises(DuplicateKeyError):
        db.execute("UPDATE users SET EMAIL = ? WHERE U_ID = ?", ["b@x", 1], txn=txn)
    txn.rollback()
    assert state(db)[0][1] == "a@x"


def test_recovery_after_failed_unique_update(db):
    with pytest.raises(DuplicateKeyError):
        db.execute("UPDATE users SET EMAIL = ? WHERE U_ID = ?", ["a@x", 2])
    db.execute("INSERT INTO users (EMAIL) VALUES (?)", ["c@x"])
    expected = state(db)
    db.crash()
    db.recover()
    assert state(db) == expected


def test_unique_value_freed_by_delete(db):
    db.execute("DELETE FROM users WHERE U_ID = ?", [1])
    db.execute("INSERT INTO users (EMAIL) VALUES (?)", ["a@x"])  # reusable now
    assert db.query("SELECT COUNT(*) FROM users WHERE EMAIL = ?", ["a@x"]).scalar() == 1


def test_unique_value_freed_by_update(db):
    db.execute("UPDATE users SET EMAIL = ? WHERE U_ID = ?", ["a2@x", 1])
    db.execute("INSERT INTO users (EMAIL) VALUES (?)", ["a@x"])
    assert db.query("SELECT COUNT(*) FROM users").scalar() == 3


def test_multi_row_update_fails_atomically(db):
    """A statement touching several rows aborts wholly on a violation."""
    db.execute("INSERT INTO users (U_ID, EMAIL, NICK) VALUES (?, ?, ?)",
               [3, "c@x", "b"])
    before = state(db)
    with pytest.raises(DuplicateKeyError):
        # both NICK='b' rows would get EMAIL 'z@x' -> second must collide
        db.execute("UPDATE users SET EMAIL = ? WHERE NICK = ?", ["z@x", "b"])
    assert state(db) == before
