"""End-to-end fuzz: random SQL streams vs a naive Python model.

Hypothesis drives random INSERT/UPDATE/DELETE/SELECT statements through
the full stack (parser -> planner -> executor -> tables -> WAL) and
checks every result against a dictionary model.  This is the broadest
single invariant in the engine suite: whatever path the planner picks,
the answer must equal the model's -- and every stream also runs on the
slow-path twin (``tests/engine/slow_path.py``), which must agree.
"""

from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from tests.engine.slow_path import footprint, force_slow_paths, outcome

KEYS = st.integers(min_value=1, max_value=12)
VALUES = st.integers(min_value=-100, max_value=100)

operation = st.one_of(
    st.tuples(st.just("insert"), KEYS, VALUES),
    st.tuples(st.just("update_eq"), KEYS, VALUES),
    st.tuples(st.just("update_range"), KEYS, VALUES),
    st.tuples(st.just("delete_eq"), KEYS, VALUES),
    st.tuples(st.just("select_eq"), KEYS, VALUES),
    st.tuples(st.just("select_range"), KEYS, VALUES),
    st.tuples(st.just("select_by_value"), KEYS, VALUES),
    st.tuples(st.just("count"), KEYS, VALUES),
)


def build_db(indexed: bool) -> Database:
    db = Database("fuzz")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, nullable=False, default=0)),
        primary_key="K",
    ))
    if indexed:
        db.create_index("KV", "kv_v", ("V",), ordered=True)
    return db


def apply_and_check(db: Database, model: dict, step):
    """Apply one step to ``db`` and ``model``, check the answer against
    the model, and return it (an error as its class)."""
    op, key, value = step
    if op == "insert":
        inserted = outcome(
            lambda: db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, value]).rowcount
        )
        if inserted == 1:
            model[key] = value
        else:
            assert key in model  # only duplicates may fail
        return inserted
    if op == "update_eq":
        count = db.execute("UPDATE kv SET V = ? WHERE K = ?", [value, key]).rowcount
        assert count == (1 if key in model else 0)
        if key in model:
            model[key] = value
        return count
    if op == "update_range":
        count = db.execute(
            "UPDATE kv SET V = ? WHERE K >= ? AND K < ?", [value, key, key + 3]
        ).rowcount
        hit = [k for k in model if key <= k < key + 3]
        assert count == len(hit)
        for k in hit:
            model[k] = value
        return count
    if op == "delete_eq":
        count = db.execute("DELETE FROM kv WHERE K = ?", [key]).rowcount
        assert count == (1 if key in model else 0)
        model.pop(key, None)
        return count
    if op == "select_eq":
        rows = db.query("SELECT V FROM kv WHERE K = ?", [key]).rows
        expected = [(model[key],)] if key in model else []
        assert rows == expected
        return rows
    if op == "select_range":
        rows = db.query(
            "SELECT K FROM kv WHERE K > ? AND K <= ?", [key - 4, key]
        ).rows
        assert sorted(r[0] for r in rows) == sorted(
            k for k in model if key - 4 < k <= key
        )
        return rows
    if op == "select_by_value":
        rows = db.query("SELECT K FROM kv WHERE V = ?", [value]).rows
        assert sorted(r[0] for r in rows) == sorted(
            k for k, v in model.items() if v == value
        )
        return rows
    count = db.query("SELECT COUNT(*) FROM kv").scalar()
    assert count == len(model)
    return count


def play(steps, indexed: bool) -> dict:
    """Run ``steps`` on a fresh database and on its slow-path twin
    (:func:`force_slow_paths`): each checks against the model, and the
    two agree on every answer, the WAL bytes and the content hash.
    Returns the final rows."""
    runs = []
    for db in (build_db(indexed), force_slow_paths(build_db(indexed))):
        model: dict[int, int] = {}
        answers = [apply_and_check(db, model, step) for step in steps]
        rows = dict(db.query("SELECT K, V FROM kv").rows)
        assert rows == model
        runs.append((answers, footprint(db)))
    assert runs[0] == runs[1]
    return rows


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(operation, max_size=50))
def test_property_sql_stream_matches_model_unindexed(steps):
    play(steps, indexed=False)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(operation, max_size=50))
def test_property_sql_stream_matches_model_with_secondary_index(steps):
    """Same invariant, but the planner can now pick the V index --
    every plan must produce the same answers."""
    play(steps, indexed=True)


@settings(max_examples=30, deadline=None)
@given(steps=st.lists(operation, max_size=30))
def test_property_indexed_and_unindexed_agree(steps):
    """Two databases, same stream, different access paths: identical state."""
    assert play(steps, indexed=False) == play(steps, indexed=True)
