"""Tests for GROUP BY and the AVG aggregate."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import SqlError
from repro.engine.types import Column, ColumnType, Schema


@pytest.fixture
def db():
    db = Database("groups")
    db.create_table(Schema(
        "SALES",
        (
            Column("S_ID", ColumnType.INT, nullable=False),
            Column("REGION", ColumnType.VARCHAR),
            Column("AMOUNT", ColumnType.DECIMAL),
        ),
        primary_key="S_ID",
    ))
    rows = [("E", 10.0), ("W", 20.0), ("E", 30.0), ("W", 40.0), ("E", 50.0), ("N", 5.0)]
    for s_id, (region, amount) in enumerate(rows, 1):
        db.execute("INSERT INTO sales (S_ID, REGION, AMOUNT) VALUES (?, ?, ?)",
                   [s_id, region, amount])
    return db


def test_group_by_with_count_sum(db):
    result = db.query(
        "SELECT REGION, COUNT(*), SUM(AMOUNT) FROM sales GROUP BY REGION"
    )
    assert result.rows == [("E", 3, 90.0), ("N", 1, 5.0), ("W", 2, 60.0)]
    assert result.columns == ("REGION", "COUNT(*)", "SUM(AMOUNT)")


def test_group_by_avg(db):
    result = db.query("SELECT REGION, AVG(AMOUNT) FROM sales GROUP BY REGION")
    assert dict(result.rows) == {"E": 30.0, "N": 5.0, "W": 30.0}


def test_avg_without_group(db):
    assert db.query("SELECT AVG(AMOUNT) FROM sales").scalar() == pytest.approx(155 / 6)


def test_avg_over_empty_is_null(db):
    assert db.query(
        "SELECT AVG(AMOUNT) FROM sales WHERE REGION = ?", ["X"]
    ).scalar() is None


def test_group_by_respects_where(db):
    result = db.query(
        "SELECT REGION, COUNT(*) FROM sales WHERE AMOUNT >= ? GROUP BY REGION",
        [20],
    )
    assert dict(result.rows) == {"E": 2, "W": 2}


def test_group_key_alone(db):
    result = db.query("SELECT REGION FROM sales GROUP BY REGION")
    assert result.rows == [("E",), ("N",), ("W",)]  # distinct, sorted


def test_min_max_per_group(db):
    result = db.query(
        "SELECT REGION, MIN(AMOUNT), MAX(AMOUNT) FROM sales GROUP BY REGION"
    )
    as_map = {row[0]: row[1:] for row in result.rows}
    assert as_map["E"] == (10.0, 50.0)


def test_non_grouped_plain_column_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT S_ID, COUNT(*) FROM sales GROUP BY REGION")


def test_star_with_group_by_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT * FROM sales GROUP BY REGION")


def test_avg_distinct_rejected(db):
    with pytest.raises(SqlError):
        db.query("SELECT AVG(DISTINCT AMOUNT) FROM sales")


def test_null_group_key(db):
    db.execute("INSERT INTO sales (S_ID, REGION, AMOUNT) VALUES (?, NULL, ?)", [99, 1.0])
    result = db.query("SELECT REGION, COUNT(*) FROM sales GROUP BY REGION")
    # NULL group sorts last and is preserved
    assert result.rows[-1][0] is None
    assert result.rows[-1][1] == 1


def test_group_by_parses_in_explain(db):
    plan = db.explain("SELECT REGION, COUNT(*) FROM sales GROUP BY REGION")
    assert "table scan" in plan
