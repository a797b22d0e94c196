"""Tests for access-path planning (range scans, EXPLAIN)."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import SchemaError, SqlError
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema


def load_events(db):
    """The EVENTS table, its two indexes and 100 rows -- on an engine
    or on a sharded fleet (both speak create_table/create_index/execute)."""
    db.create_table(Schema(
        "EVENTS",
        (
            Column("E_ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("E_TS", ColumnType.INT, nullable=False),
            Column("E_KIND", ColumnType.VARCHAR, default="x"),
        ),
        primary_key="E_ID",
    ))
    db.create_index("EVENTS", "events_ts", ("E_TS",), ordered=True)
    db.create_index("EVENTS", "events_kind", ("E_KIND",))
    for e_id in range(1, 101):
        db.execute(
            "INSERT INTO events (E_ID, E_TS, E_KIND) VALUES (?, ?, ?)",
            [e_id, e_id * 10, "a" if e_id % 2 else "b"],
        )
    return db


@pytest.fixture
def db():
    return load_events(Database("planner"))


def plan_of(db, sql, params=()):
    return db.explain(sql, params)


def test_pk_point_plan(db):
    plan = plan_of(db, "SELECT E_TS FROM events WHERE E_ID = ?", [5])
    assert "primary-key lookup" in plan


def test_index_eq_plan(db):
    plan = plan_of(db, "SELECT E_ID FROM events WHERE E_KIND = ?", ["a"])
    assert "index lookup via events_kind" in plan


def test_pk_range_plan(db):
    plan = plan_of(db, "SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID <= ?", [10, 20])
    assert "index range scan via EVENTS_pkey" in plan


def test_secondary_ordered_range_plan(db):
    plan = plan_of(db, "SELECT E_ID FROM events WHERE E_TS > ? AND E_TS < ?", [100, 300])
    assert "index range scan via events_ts" in plan


def test_unindexed_predicate_scans(db):
    # E_KIND has only a hash index: range predicates on it cannot use it
    plan = plan_of(db, "SELECT E_ID FROM events WHERE E_KIND > ?", ["a"])
    assert plan == "full table scan"


def test_explain_includes_sort(db):
    plan = plan_of(db, "SELECT E_ID FROM events WHERE E_KIND = ? ORDER BY E_TS DESC LIMIT 3", ["a"])
    assert "sort by E_TS" in plan and "limit 3" in plan


def test_explain_insert(db):
    assert plan_of(db, "INSERT INTO events (E_TS) VALUES (?)", [1]) == \
        "insert into EVENTS"


def test_explain_rejects_what_execute_rejects(db):
    sql = "SELECT E_TS FROM events WHERE E_ID = ?"
    for params in ([1, 2], []):
        with pytest.raises(SqlError) as explained:
            db.explain(sql, params)
        with pytest.raises(SqlError) as executed:
            db.execute(sql, params)
        assert str(explained.value) == str(executed.value)
        assert f"expects 1 parameters, got {len(params)}" in str(explained.value)


#: every statement this file plans or runs, with the index ``explain``
#: must name for it (None: full table scan)
STATEMENTS = [
    ("SELECT E_TS FROM events WHERE E_ID = ?", [5], "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_KIND = ?", ["a"], "events_kind"),
    ("SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID <= ?", [10, 20], "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_TS > ? AND E_TS < ?", [100, 300], "events_ts"),
    ("SELECT E_ID FROM events WHERE E_KIND > ?", ["a"], None),
    ("SELECT E_ID FROM events WHERE E_KIND = ? ORDER BY E_TS DESC LIMIT 3", ["a"],
     "events_kind"),
    ("SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID < ?", [10, 20], "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_ID > ?", [95], "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_ID <= ?", [3], "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID >= ? AND E_ID < ?", [5, 8, 11],
     "EVENTS_pkey"),
    ("SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID <= ? AND E_KIND = ?",
     [1, 10, "b"], "events_kind"),
    ("SELECT E_TS FROM events WHERE E_TS >= ? AND E_TS <= ?", [100, 150], "events_ts"),
    ("SELECT E_ID FROM events WHERE E_KIND = ? AND E_ID > ?", ["a", 50], "events_kind"),
    ("UPDATE events SET E_KIND = ? WHERE E_ID >= ? AND E_ID <= ?", ["z", 1, 5],
     "EVENTS_pkey"),
    ("DELETE FROM events WHERE E_ID > ?", [90], "EVENTS_pkey"),
    ("SELECT COUNT(*) FROM events", [], None),
]


@pytest.mark.parametrize("sql,params,index_name", STATEMENTS)
def test_explain_names_the_index_execution_touches(db, monkeypatch, sql, params, index_name):
    """EXPLAIN describes the plan the executor runs, not a second one."""
    plan = db.explain(sql, params)
    assert (f"via {index_name} " in plan) if index_name else plan.startswith("full table scan")

    table = db.table("EVENTS")
    calls = {}

    def count(owner, method, key):
        original = getattr(owner, method)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, method, counted)

    indexes = [table.primary_index, *table.secondary_indexes.values()]
    for index in indexes:
        for method in ("lookup", "lookup_unique", "range"):
            if hasattr(index, method):
                count(index, method, index.name)
    count(table, "scan", "scan")

    db.execute(sql, params)
    if index_name is None:
        assert calls == {"scan": 1}
    else:
        assert calls.get(index_name, 0) > 0
        assert "scan" not in calls
        if sql.startswith("SELECT"):  # writes also probe unique indexes
            assert set(calls) == {index_name}


#: range bounds the column cannot be ordered against
UNORDERABLE = [
    ("SELECT E_TS FROM events WHERE E_TS > ?", ["a"]),
    ("SELECT E_TS FROM events WHERE E_ID > ?", ["a"]),
    ("SELECT E_TS FROM events WHERE E_TS > ? AND E_TS < ?", [1, "a"]),
    # no ordered index, so a scan + filter: this one always said so
    ("SELECT E_TS FROM events WHERE E_KIND > ?", [1]),
]


@pytest.mark.parametrize("sql,params", UNORDERABLE)
def test_unorderable_range_bound_is_a_sql_error(db, sql, params):
    # the index range scans used to leak the ordered index's bisect TypeError
    with pytest.raises(SqlError, match="predicate comparison failed"):
        db.execute(sql, params)


@pytest.mark.parametrize("sql", [
    "SELECT E_TS FROM events WHERE E_ID = ?",      # primary-key probe
    "SELECT E_ID FROM events WHERE E_KIND = ?",    # secondary hash index
    "DELETE FROM events WHERE E_ID = ?",
])
def test_unhashable_key_is_a_sql_error(db, sql):
    # the hash-index probes used to leak "TypeError: unhashable type"
    with pytest.raises(SqlError, match="key lookup failed"):
        db.execute(sql, [[1]])


def test_unhashable_key_is_a_sql_error_on_a_snapshot_read(db):
    snapshot = db.begin(IsolationLevel.SNAPSHOT)  # probes the version chain
    with pytest.raises(SqlError, match="key lookup failed"):
        db.execute("SELECT E_TS FROM events WHERE E_ID = ?", [{"k": 1}], txn=snapshot)


def test_range_results_match_scan(db):
    ranged = db.query(
        "SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID < ?", [10, 20]
    ).rows
    assert sorted(row[0] for row in ranged) == list(range(10, 20))


def test_half_open_ranges(db):
    low_only = db.query("SELECT E_ID FROM events WHERE E_ID > ?", [95]).rows
    assert sorted(r[0] for r in low_only) == [96, 97, 98, 99, 100]
    high_only = db.query("SELECT E_ID FROM events WHERE E_ID <= ?", [3]).rows
    assert sorted(r[0] for r in high_only) == [1, 2, 3]


def test_tightest_bounds_win(db):
    rows = db.query(
        "SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID >= ? AND E_ID < ?",
        [5, 8, 11],
    ).rows
    assert sorted(r[0] for r in rows) == [8, 9, 10]


def test_range_with_residual_filter(db):
    rows = db.query(
        "SELECT E_ID FROM events WHERE E_ID >= ? AND E_ID <= ? AND E_KIND = ?",
        [1, 10, "b"],
    ).rows
    assert sorted(r[0] for r in rows) == [2, 4, 6, 8, 10]


def test_secondary_range_results(db):
    rows = db.query(
        "SELECT E_TS FROM events WHERE E_TS >= ? AND E_TS <= ?", [100, 150]
    ).rows
    assert sorted(r[0] for r in rows) == [100, 110, 120, 130, 140, 150]


def test_equality_beats_range(db):
    # when both an equality index and a range apply, the point path wins
    plan = plan_of(
        db, "SELECT E_ID FROM events WHERE E_KIND = ? AND E_ID > ?", ["a", 50]
    )
    assert "index lookup via events_kind" in plan


def test_range_update_and_delete(db):
    updated = db.execute(
        "UPDATE events SET E_KIND = ? WHERE E_ID >= ? AND E_ID <= ?",
        ["z", 1, 5],
    ).rowcount
    assert updated == 5
    deleted = db.execute(
        "DELETE FROM events WHERE E_ID > ?", [90]
    ).rowcount
    assert deleted == 10
    assert db.query("SELECT COUNT(*) FROM events").scalar() == 90


def test_index_for_name_unknown(db):
    with pytest.raises(SchemaError):
        db.table("EVENTS").index_for_name("missing")


def test_range_scan_touches_fewer_pages_than_full_scan():
    """The planner's point: bounded ranges avoid whole-table reads."""
    wide_db = Database("wide")
    wide_db.create_table(Schema(
        "BLOBS",
        (
            Column("B_ID", ColumnType.INT, nullable=False),
            Column("B_DATA", ColumnType.VARCHAR, default=""),
        ),
        primary_key="B_ID",
    ))
    for b_id in range(1, 101):
        wide_db.execute(
            "INSERT INTO blobs (B_ID, B_DATA) VALUES (?, ?)", [b_id, "x" * 100]
        )

    ranged = "SELECT B_ID FROM blobs WHERE B_ID >= ? AND B_ID <= ?"
    assert plan_of(wide_db, ranged, [1, 3]) == "index range scan via BLOBS_pkey [1, 3]"
    assert wide_db.query(ranged, [1, 3]).rows == [(1,), (2,), (3,)]
    scanned = "SELECT B_ID FROM blobs WHERE B_DATA <> ?"
    assert plan_of(wide_db, scanned, ["nope"]) == "full table scan"
    assert len(wide_db.query(scanned, ["nope"]).rows) == 100
