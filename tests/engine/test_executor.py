"""Tests for statement planning and execution against real tables."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import DuplicateKeyError, SchemaError, SqlError
from repro.engine.types import Column, ColumnType, Schema


@pytest.fixture
def db():
    db = Database("exec-test")
    db.create_table(Schema(
        "ACCOUNTS",
        (
            Column("A_ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("OWNER", ColumnType.VARCHAR, nullable=False),
            Column("BALANCE", ColumnType.DECIMAL, nullable=False, default=0.0),
            Column("BRANCH", ColumnType.INT, default=1),
        ),
        primary_key="A_ID",
    ))
    db.create_index("ACCOUNTS", "accounts_branch", ("BRANCH",))
    for a_id, owner, balance, branch in (
        (1, "ann", 100.0, 1), (2, "bob", 50.0, 1),
        (3, "cat", 75.0, 2), (4, "dan", 0.0, 2),
    ):
        db.execute(
            "INSERT INTO accounts (A_ID, OWNER, BALANCE, BRANCH) VALUES (?, ?, ?, ?)",
            [a_id, owner, balance, branch],
        )
    return db


def test_point_select_by_pk(db):
    result = db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [2])
    assert result.rows == [("bob",)]
    assert result.columns == ("OWNER",)


def test_select_star(db):
    result = db.query("SELECT * FROM accounts WHERE A_ID = ?", [1])
    assert result.rows == [(1, "ann", 100.0, 1)]
    assert result.columns == ("A_ID", "OWNER", "BALANCE", "BRANCH")


def test_secondary_index_lookup(db):
    result = db.query("SELECT A_ID FROM accounts WHERE BRANCH = ?", [2])
    assert sorted(result.rows) == [(3,), (4,)]


def test_range_scan_conditions(db):
    result = db.query(
        "SELECT A_ID FROM accounts WHERE BALANCE >= ? AND BALANCE <= ?",
        [50, 100],
    )
    assert sorted(result.rows) == [(1,), (2,), (3,)]


def test_order_by_and_limit(db):
    result = db.query("SELECT A_ID FROM accounts ORDER BY BALANCE DESC LIMIT 2")
    assert result.rows == [(1,), (3,)]


def test_aggregates(db):
    result = db.query("SELECT COUNT(*), SUM(BALANCE), MIN(BALANCE) FROM accounts")
    assert result.rows == [(4, 225.0, 0.0)]
    assert result.rowcount == 1


def test_count_distinct(db):
    assert db.query("SELECT COUNT(DISTINCT BRANCH) FROM accounts").scalar() == 2


def test_insert_autoincrement_default(db):
    db.execute("INSERT INTO accounts VALUES (DEFAULT, ?, ?, ?)", ["eve", 5.0, 3])
    assert db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [5]).rows == [("eve",)]


def test_insert_partial_columns_uses_defaults(db):
    db.execute("INSERT INTO accounts (OWNER) VALUES (?)", ["fred"])
    row = db.query("SELECT BALANCE, BRANCH FROM accounts WHERE OWNER = ?", ["fred"])
    assert row.rows == [(0.0, 1)]


def test_update_arithmetic(db):
    count = db.execute(
        "UPDATE accounts SET BALANCE = BALANCE + ? WHERE A_ID = ?", [25, 2]
    ).rowcount
    assert count == 1
    assert db.query("SELECT BALANCE FROM accounts WHERE A_ID = ?", [2]).scalar() == 75.0


def test_update_multiple_rows(db):
    count = db.execute(
        "UPDATE accounts SET BALANCE = ? WHERE BRANCH = ?", [1.0, 1]
    ).rowcount
    assert count == 2


def test_update_null_arithmetic_raises(db):
    db.execute("INSERT INTO accounts (OWNER, BALANCE) VALUES (?, ?)", ["nul", 0])
    # BRANCH default 1; set BRANCH = NULL first through plain set
    db.execute("UPDATE accounts SET BRANCH = NULL WHERE OWNER = ?", ["nul"])
    with pytest.raises(SchemaError):
        db.execute("UPDATE accounts SET BRANCH = BRANCH + ? WHERE OWNER = ?", [1, "nul"])


def test_delete(db):
    assert db.execute("DELETE FROM accounts WHERE A_ID = ?", [4]).rowcount == 1
    assert db.query("SELECT COUNT(*) FROM accounts").scalar() == 3
    assert db.execute("DELETE FROM accounts WHERE A_ID = ?", [4]).rowcount == 0


def test_duplicate_insert_rejected(db):
    with pytest.raises(DuplicateKeyError):
        db.execute(
            "INSERT INTO accounts (A_ID, OWNER) VALUES (?, ?)", [1, "dup"]
        )


def test_param_count_mismatch(db):
    with pytest.raises(SqlError):
        db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [])
    with pytest.raises(SqlError):
        db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [1, 2])


def test_unknown_table_rejected_at_prepare(db):
    with pytest.raises(SchemaError):
        db.prepare("SELECT X FROM missing WHERE X = ?")


def test_unknown_column_rejected_at_prepare(db):
    with pytest.raises(SchemaError):
        db.prepare("SELECT NOPE FROM accounts")
    with pytest.raises(SchemaError):
        db.prepare("SELECT A_ID FROM accounts WHERE NOPE = ?")


def test_insert_arity_rejected_at_prepare(db):
    with pytest.raises(SqlError):
        db.prepare("INSERT INTO accounts (A_ID, OWNER) VALUES (?)")


def test_prepared_statements_are_cached(db):
    first = db.prepare("SELECT OWNER FROM accounts WHERE A_ID = ?")
    second = db.prepare("SELECT OWNER FROM accounts WHERE A_ID = ?")
    assert first is second


def test_result_set_helpers(db):
    result = db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [1])
    assert result.scalar() == "ann"
    assert result.first() == ("ann",)
    empty = db.query("SELECT OWNER FROM accounts WHERE A_ID = ?", [99])
    assert empty.first() is None
    with pytest.raises(SqlError):
        empty.scalar()


def test_null_condition_never_matches(db):
    db.execute("UPDATE accounts SET BRANCH = NULL WHERE A_ID = ?", [1])
    result = db.query("SELECT A_ID FROM accounts WHERE BRANCH >= ?", [0])
    assert (1,) not in result.rows


def test_for_update_takes_exclusive_lock(db):
    txn = db.begin()
    db.execute("SELECT * FROM accounts WHERE A_ID = ? FOR UPDATE", [1], txn=txn)
    holders = db.locks.holders(("ACCOUNTS", 1))
    assert holders[txn.txn_id].value == "X"
    txn.rollback()


class TestRangeBoundTypeGuard:
    """Range predicates with NULL or cross-type bounds are statement
    errors (SqlError), never a bare TypeError out of the comparator."""

    def test_null_range_bound_raises_sql_error(self, db):
        with pytest.raises(SqlError, match="NULL|NoneType"):
            db.query("SELECT A_ID FROM accounts WHERE BALANCE > ?", [None])

    def test_cross_type_bounds_raise_sql_error(self, db):
        with pytest.raises(SqlError, match="incomparable|not supported"):
            db.query(
                "SELECT A_ID FROM accounts WHERE BALANCE > ? AND BALANCE < ?",
                [0, "high"],
            )

    def test_cross_type_bounds_on_indexed_column(self, db):
        with pytest.raises(SqlError, match="incomparable|not supported"):
            db.query(
                "SELECT A_ID FROM accounts WHERE BRANCH >= ? AND BRANCH <= ?",
                [1, "two"],
            )

    def test_null_bound_in_update_raises_sql_error(self, db):
        with pytest.raises(SqlError, match="NULL|NoneType"):
            db.execute("UPDATE accounts SET BALANCE = ? WHERE BALANCE < ?",
                       [0.0, None])

    def test_valid_mixed_numeric_bounds_still_work(self, db):
        # int vs float bounds are comparable; the guard must not
        # over-reject legitimate numeric ranges.
        result = db.query(
            "SELECT A_ID FROM accounts WHERE BALANCE > ? AND BALANCE < ?",
            [0, 80.5],
        )
        assert sorted(result.rows) == [(2,), (3,)]
