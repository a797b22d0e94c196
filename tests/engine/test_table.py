"""Tests for heap tables and index maintenance."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import DuplicateKeyError, EngineError, SchemaError
from repro.engine.index import OrderedIndex
from repro.engine.table import Table
from repro.engine.types import Column, ColumnType, Schema


def make_table():
    schema = Schema(
        "T",
        (
            Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("K", ColumnType.INT, default=0),
            Column("NAME", ColumnType.VARCHAR, default=""),
        ),
        primary_key="ID",
    )
    return Table(schema)


def test_insert_and_read_by_key():
    table = make_table()
    table.insert_row((1, 10, "a"))
    assert table.read_by_key(1) == (1, 10, "a")
    assert table.read_by_key(99) is None
    assert table.row_count == 1


def test_duplicate_primary_key_rejected():
    table = make_table()
    table.insert_row((1, 10, "a"))
    with pytest.raises(DuplicateKeyError):
        table.insert_row((1, 20, "b"))


def test_update_row_and_before_image():
    table = make_table()
    rid = table.insert_row((1, 10, "a"))
    before = table.update_row(rid, (1, 20, "b"))
    assert before == (1, 10, "a")
    assert table.read_by_key(1) == (1, 20, "b")


def test_update_changing_pk_moves_index_entry():
    table = make_table()
    rid = table.insert_row((1, 10, "a"))
    table.update_row(rid, (2, 10, "a"))
    assert table.read_by_key(1) is None
    assert table.read_by_key(2) == (2, 10, "a")


def test_update_to_existing_pk_rejected():
    table = make_table()
    table.insert_row((1, 0, ""))
    rid = table.insert_row((2, 0, ""))
    with pytest.raises(DuplicateKeyError):
        table.update_row(rid, (1, 0, ""))
    # nothing changed
    assert table.read_by_key(2) == (2, 0, "")


def test_delete_row_updates_indexes():
    table = make_table()
    rid = table.insert_row((1, 10, "a"))
    before = table.delete_row(rid)
    assert before == (1, 10, "a")
    assert table.read_by_key(1) is None
    assert table.row_count == 0


def test_secondary_index_backfill_and_maintenance():
    table = make_table()
    table.insert_row((1, 7, "a"))
    table.insert_row((2, 7, "b"))
    table.create_index("t_k", ("K",))
    index = table.secondary_indexes["t_k"]
    assert len(index.lookup(7)) == 2
    rid = table.find_by_key(1)
    table.update_row(rid, (1, 8, "a"))
    assert len(index.lookup(7)) == 1
    assert len(index.lookup(8)) == 1
    table.delete_row(table.find_by_key(2))
    assert index.lookup(7) == []


def test_duplicate_index_name_rejected():
    table = make_table()
    table.create_index("t_k", ("K",))
    with pytest.raises(SchemaError):
        table.create_index("t_k", ("K",))


def test_index_on_unknown_column_rejected():
    table = make_table()
    with pytest.raises(SchemaError):
        table.create_index("bad", ("NOPE",))


def test_composite_index_key():
    table = make_table()
    table.create_index("t_kn", ("K", "NAME"), unique=True)
    table.insert_row((1, 5, "x"))
    index = table.secondary_indexes["t_kn"]
    assert index.lookup((5, "x"))
    with pytest.raises(DuplicateKeyError):
        table.insert_row((2, 5, "x"))


def test_autoincrement_tracks_explicit_keys():
    table = make_table()
    table.insert_row((10, 0, ""))
    assert table.next_autoincrement() == 11


def test_scan_skips_deleted():
    table = make_table()
    rids = [table.insert_row((i, 0, "")) for i in range(1, 6)]
    table.delete_row(rids[2])
    keys = [row[0] for _rid, row in table.scan()]
    assert keys == [1, 2, 4, 5]


def test_the_lowest_vacated_slot_is_reused_first():
    table = make_table()
    rids = [table.insert_row((i, 0, "")) for i in range(1, 6)]
    assert rids == [0, 1, 2, 3, 4]
    table.delete_row(rids[3])
    table.delete_row(rids[1])
    assert table.insert_row((6, 0, "")) == 1
    assert table.insert_row((7, 0, "")) == 3
    assert table.insert_row((8, 0, "")) == 5  # none vacated: a new slot
    assert [row[0] for _rid, row in table.scan()] == [1, 6, 3, 7, 5, 8]


def test_reading_a_vacated_slot_raises():
    table = make_table()
    rid = table.insert_row((1, 0, "a"))
    table.delete_row(rid)
    with pytest.raises(EngineError, match="no row in slot 0"):
        table.read_row(rid)
    with pytest.raises(EngineError, match="no row in slot 1"):
        table.read_row(1)  # never placed


def test_deleting_a_vacated_slot_raises():
    table = make_table()
    rid = table.insert_row((1, 0, "a"))
    table.delete_row(rid)
    with pytest.raises(EngineError, match="no row in slot 0"):
        table.delete_row(rid)
    assert table.row_count == 0 and list(table.scan()) == []


def test_a_vacated_slot_cannot_be_updated_or_overwritten():
    table = make_table()
    rid = table.insert_row((1, 0, "a"))
    table.delete_row(rid)
    for touch in (lambda rid: table.update_row(rid, (1, 0, "b")),
                  lambda rid: table.overwrite_row(rid, (1, 0, "b"))):
        with pytest.raises(EngineError, match="no row in slot 0"):
            touch(rid)
    assert table.row_count == 0 and list(table.scan()) == []


def test_snapshot_restore_roundtrip():
    table = make_table()
    for i in range(1, 4):
        table.insert_row((i, i * 10, f"n{i}"))
    table.create_index("t_k", ("K",))
    snapshot = table.snapshot()
    table.delete_row(table.find_by_key(2))
    table.insert_row((9, 90, "n9"))
    table.restore_snapshot(snapshot)
    assert table.row_count == 3
    assert table.read_by_key(2) == (2, 20, "n2")
    assert table.read_by_key(9) is None
    # indexes rebuilt
    assert table.secondary_indexes["t_k"].lookup(20)


def test_restore_snapshot_rebuilds_every_index_in_bulk():
    """Vacated slots, a composite secondary index and an ordered one:
    the restored table answers every lookup with the same RowIds."""
    table = make_table()
    table.create_index("t_kn", ("K", "NAME"))
    table.create_index("t_k", ("K",), ordered=True)
    for i in range(1, 60):
        table.insert_row((i, i % 7, f"n{i % 3}"))
    for key in (2, 3, 40, 45):
        table.delete_row(table.find_by_key(key))

    def lookups():
        composite = table.secondary_indexes["t_kn"]
        ordered = table.secondary_indexes["t_k"]
        return (
            list(table.primary_index.range()),
            {(k, n): composite.lookup((k, n)) for k in range(7) for n in ("n0", "n1", "n2")},
            list(ordered.range(2, 5, include_low=False, reverse=True)),
            table.row_count,
        )

    before = lookups()
    snapshot = table.snapshot()
    for i in (1, 4, 5):
        table.delete_row(table.find_by_key(i))
    table.insert_row((9999, 1, "n1"))
    table.restore_snapshot(snapshot)
    assert lookups() == before
    assert table.find_by_key(2) is None
    # and the rebuilt indexes are maintained from there on
    rid = table.insert_row((2, 6, "n0"))
    assert rid in table.secondary_indexes["t_kn"].lookup((6, "n0"))


def test_restore_snapshot_rejects_duplicate_unique_keys():
    table = make_table()
    table.create_index("t_name", ("NAME",), unique=True)
    table.insert_row((1, 0, "a"))
    table.insert_row((2, 0, "b"))
    snapshot = table.snapshot()
    snapshot.rows[1] = (2, 0, "a")  # a damaged image
    with pytest.raises(DuplicateKeyError, match="t_name"):
        table.restore_snapshot(snapshot)



class _LinearScanHeap:
    """Placement oracle: the slot list as it is placed without a record
    of its free space -- every slot scanned for the first vacated one."""

    def __init__(self):
        self.slots = []  # None where vacated

    def insert(self, key):
        slots = self.slots
        if None in slots:
            rid = slots.index(None)
            slots[rid] = key
            return rid
        slots.append(key)
        return len(slots) - 1

    def delete(self, rid):
        self.slots[rid] = None

    def snapshot(self):
        return list(self.slots)

    def restore(self, image):
        self.slots = list(image)


def _pair_table():
    schema = Schema(
        "W",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("PAD", ColumnType.VARCHAR, default=""),
        ),
        primary_key="ID",
    )
    return Table(schema)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(
    st.one_of(
        st.just(("insert", 0)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=10_000)),
        st.sampled_from([("snapshot", 0), ("restore", 0)]),
    ),
    max_size=120,
))
def test_property_placement_matches_the_linear_scan(ops):
    """The lowest vacated slot, else a new one at the end -- every
    ``RowId`` the table returns is the one the linear scan would have,
    across deletes and checkpoint-image restores."""
    table, oracle = _pair_table(), _LinearScanHeap()
    live = {}  # key -> rid
    image = (table.snapshot(), oracle.snapshot(), {})
    next_key = 1
    for op, pick in ops:
        if op == "insert":
            rid = table.insert_row((next_key, ""))
            assert rid == oracle.insert(next_key)
            live[next_key] = rid
            next_key += 1
        elif op == "delete":
            if not live:
                continue
            key = sorted(live)[pick % len(live)]
            rid = live.pop(key)
            table.delete_row(rid)
            oracle.delete(rid)
        elif op == "snapshot":
            image = (table.snapshot(), oracle.snapshot(), dict(live))
        else:
            table.restore_snapshot(image[0])
            oracle.restore(image[1])
            live = dict(image[2])
    assert {key: table.find_by_key(key) for key in live} == live
    assert sorted(table._vacated) == [
        rid for rid, key in enumerate(oracle.slots) if key is None
    ]


# -- update_row: the proven-unchanged write against the full update ------------


def _full_update_row(table, rid, new_row):
    """``update_row`` as it was before it compared the key columns:
    every write validates and walks every index."""
    before = table.read_row(rid)
    new_key = new_row[table.schema.primary_key_index]
    old_key = before[table.schema.primary_key_index]
    table.check_unique(new_row, exclude_rid=rid)
    table._rows[rid] = new_row
    if new_key != old_key:
        table.primary_index.delete(old_key, rid)
        table.primary_index.insert(new_key, rid)
    for index in table.secondary_indexes.values():
        old_entry = table._index_key(index.columns, before)
        new_entry = table._index_key(index.columns, new_row)
        if old_entry != new_entry:
            index.delete(old_entry, rid)
            index.insert(new_entry, rid)
    return before


def _indexed_table():
    """Primary key, a unique index, a non-unique composite one and a
    column no index covers."""
    schema = Schema(
        "U",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("CODE", ColumnType.INT, default=0),
            Column("GRP", ColumnType.INT, default=0),
            Column("TAG", ColumnType.INT, default=0),
            Column("FREE", ColumnType.INT, default=0),
        ),
        primary_key="ID",
    )
    table = Table(schema)
    table.create_index("u_code", ("CODE",), unique=True)
    table.create_index("u_grp_tag", ("GRP", "TAG"), ordered=True)
    for i in range(6):
        table.insert_row((i, 100 + i, i % 2, i % 3, 0))
    return table


def _ordered_keys(index):
    """An ordered index's keys in range order (a hash index has none)."""
    if not isinstance(index, OrderedIndex):
        return []
    return [key for key, _rid in index.range()]


def _index_state(table):
    return (
        dict(table.primary_index._map), _ordered_keys(table.primary_index),
        {
            name: ({key: held if index.unique else set(held)
                    for key, held in index._map.items()},
                   _ordered_keys(index))
            for name, index in table.secondary_indexes.items()
        },
        list(table.scan()),
    )


def _outcome(update, *args):
    try:
        return update(*args)
    except DuplicateKeyError as error:
        return str(error)


_small = st.integers(min_value=0, max_value=7)


@settings(max_examples=300, deadline=None)
@given(updates=st.lists(
    st.tuples(
        _small,  # which row
        # None keeps the stored value: most updates leave most keys alone
        st.tuples(*(st.one_of(st.none(), _small) for _ in range(5))),
    ),
    max_size=30,
))
def test_property_update_row_matches_the_full_update(updates):
    """Same before image, same ``DuplicateKeyError``, same heap and the
    same index contents whether or not the write takes the short path."""
    fast, full = _indexed_table(), _indexed_table()
    for pick, changes in updates:
        keys = sorted(fast.primary_index._map)
        rid = fast.find_by_key(keys[pick % len(keys)])
        stored = fast.read_row(rid)
        new_row = tuple(
            old if new is None else (100 + new if col == 1 else new)
            for col, (old, new) in enumerate(zip(stored, changes))
        )
        assert _outcome(fast.update_row, rid, new_row) == \
            _outcome(_full_update_row, full, rid, new_row)
        assert _index_state(fast) == _index_state(full)


def test_update_row_skips_the_indexes_only_when_no_key_column_moves(monkeypatch):
    table = _indexed_table()
    checked = []
    check_unique = Table.check_unique
    monkeypatch.setattr(
        Table, "check_unique",
        lambda self, row, exclude_rid=None: (
            checked.append(row), check_unique(self, row, exclude_rid))[1],
    )
    rid = table.find_by_key(3)
    table.update_row(rid, (3, 103, 1, 0, 42))  # FREE alone
    assert checked == []
    table.update_row(rid, (3, 103, 1, 2, 42))  # TAG is indexed
    assert checked == [(3, 103, 1, 2, 42)]
    assert rid in table.secondary_indexes["u_grp_tag"].lookup((1, 2))


# -- _rebuild_indexes: a heap with and without vacated slots ------------------


@settings(max_examples=100, deadline=None)
@given(
    n_rows=st.integers(min_value=0, max_value=14),
    doomed=st.sets(st.integers(min_value=0, max_value=13)),
)
def test_property_rebuild_indexes_matches_one_insert_per_row(n_rows, doomed):
    """A heap with no vacated slot is taken whole, one with holes live
    slot by live slot: either way each index holds what one ``insert``
    per live row gives."""
    schema = Schema(
        "W",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("GRP", ColumnType.INT, default=0),
            Column("PAD", ColumnType.VARCHAR, default=""),
        ),
        primary_key="ID",
    )
    table = Table(schema)
    table.create_index("w_grp", ("GRP",))
    table.create_index("w_grp_id", ("GRP", "ID"), unique=True, ordered=True)
    for i in range(n_rows):
        table.insert_row((i, i % 4, ""))
    for i in doomed:
        if i < n_rows:
            table.delete_row(table.find_by_key(i))
    expected = _index_state(table)  # maintained one insert/delete at a time
    assert all(type(rid) is int for rid in expected[0].values())

    for index in (table.primary_index, *table.secondary_indexes.values()):
        index.rebuild([], [])
    table._rebuild_indexes()
    assert _index_state(table) == expected
    rebuilt = list(table.primary_index._map.values())
    assert all(type(rid) is int for rid in rebuilt)

    # create_index backfills the same way, against one insert per live row
    table.create_index("w_id_grp", ("ID", "GRP"), ordered=True)
    backfilled = OrderedIndex("oracle", ("ID", "GRP"))
    for rid, row in table.scan():
        backfilled.insert((row[0], row[1]), rid)
    assert _index_entries(table.secondary_indexes["w_id_grp"]) == \
        _index_entries(backfilled)


# -- restore_snapshot: the marked rows against the whole image -----------------


def _twin_table():
    """The ordered primary key, a unique and a non-unique secondary
    index."""
    schema = Schema(
        "R",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("CODE", ColumnType.INT),
            Column("GRP", ColumnType.INT),
            Column("FREE", ColumnType.INT, default=0),
        ),
        primary_key="ID",
    )
    table = Table(schema)
    table.create_index("r_code", ("CODE",), unique=True)
    table.create_index("r_grp", ("GRP",))
    return table


def _write(table, op):
    """One heap write; ``pick`` s choose among the live keys in order."""
    kind, pick, value = op
    live = [key for key, _rid in table.primary_index.range()]
    try:
        if kind == "place":  # a re-insert lands in the lowest free slot
            table.insert_row((pick, 100 + pick, value, 0))
            return
        if not live:
            return
        rid = table.find_by_key(live[pick % len(live)])
        key, code, grp, free = table.read_row(rid)
        if kind == "move":  # the primary key moves, maybe onto a live one
            table.update_row(rid, (value, code, grp, free))
        elif kind == "regroup":
            table.update_row(rid, (key, code, value, free))
        elif kind == "note":  # no key or indexed column
            table.overwrite_row(rid, (key, code, grp, value))
        elif kind == "delete":
            table.delete_row(rid)
        else:  # two rows swap their unique CODE, through a free value
            other = table.find_by_key(live[value % len(live)])
            other_row = table.read_row(other)
            table.update_row(rid, (key, -1, grp, free))
            table.update_row(other, (other_row[0], code, *other_row[2:]))
            table.update_row(rid, (key, other_row[1], grp, free))
    except DuplicateKeyError:
        pass


_table_write = st.tuples(
    st.sampled_from(["place", "place", "move", "regroup", "note", "delete", "swap"]),
    st.integers(0, 12),
    st.integers(0, 12),
)


@settings(max_examples=300, deadline=None)
@given(
    first=st.lists(_table_write, max_size=15),
    rounds=st.lists(
        st.tuples(st.lists(_table_write, max_size=20), st.booleans()),
        min_size=1, max_size=3,
    ),
)
def test_property_row_restore_matches_the_whole_image_restore(first, rounds):
    """Each round writes, then restores the image (or installs a new one,
    as a checkpoint does).  The table writing back its marked rows and a
    twin copying the image whole and rebuilding its indexes hold the
    same rows, index entries and counter, and place the next rows in the
    same slots."""
    table, twin = _twin_table(), _twin_table()
    for op in first:
        _write(table, op)
        _write(twin, op)
    for ops, install in [((), True), *rounds]:
        for op in ops:
            _write(table, op)
            _write(twin, op)
        if install:
            image, twin_image = table.snapshot(), twin.snapshot()
            table.dirty_rows = set()  # as Database.checkpoint leaves it
        else:
            twin.dirty_rows = None  # no usable image: restore whole
            table.restore_snapshot(image)
            twin.restore_snapshot(twin_image)
            assert table.dirty_rows == set()
        assert _index_state(table) == _index_state(twin)
        assert sorted(table._vacated) == sorted(twin._vacated)
        assert table._next_auto == twin._next_auto
    assert [table.insert_row((50 + i, 50 + i, 0, 0)) for i in range(5)] == \
        [twin.insert_row((50 + i, 50 + i, 0, 0)) for i in range(5)]


# -- load: the bulk insert against one insert_row per row ---------------------


def _index_entries(index):
    """An index's map in insertion order (row-id sets sorted) and its
    keys in range order."""
    return (
        [(key, held if index.unique else sorted(held))
         for key, held in index._map.items()],
        _ordered_keys(index),
    )


def physical_state(table):
    """Everything one ``insert_row`` per row decides: every slot, the
    row-id type, the vacated-slot heap, the auto-increment counter and
    every index map in insertion order."""
    return (
        list(table._rows),
        {type(rid) for rid in table.primary_index._map.values()},
        list(table._vacated),
        table._next_auto,
        _index_entries(table.primary_index),
        {name: _index_entries(index) for name, index in table.secondary_indexes.items()},
    )


def insert_one_per_row(table, rows):
    """The oracle: what every loader did before :meth:`Table.load`."""
    for row in rows:
        table.insert_row(row)


def _loadable_table():
    """A unique, a non-unique, a composite ordered and an ordered unique
    secondary index."""
    schema = Schema(
        "L",
        (
            Column("ID", ColumnType.INT, nullable=False),
            Column("CODE", ColumnType.INT),
            Column("GRP", ColumnType.INT),
            Column("TAG", ColumnType.INT, default=0),
            Column("NAME", ColumnType.VARCHAR, default=""),
            Column("PAD", ColumnType.VARCHAR, default=""),
        ),
        primary_key="ID",
    )
    table = Table(schema)
    table.create_index("l_code", ("CODE",), unique=True)
    table.create_index("l_grp", ("GRP",))
    table.create_index("l_tag_name", ("TAG", "NAME"), ordered=True)
    table.create_index("l_name", ("NAME",), unique=True, ordered=True)
    return table


@settings(max_examples=200, deadline=None)
@given(
    drawn=st.lists(
        st.tuples(
            st.integers(min_value=-20, max_value=5000),  # ID
            st.one_of(st.none(), st.integers(0, 3)),  # GRP: None is a key too
            st.integers(0, 3),  # TAG
        ),
        unique_by=lambda drawn: drawn[0],
        max_size=40,
    ),
    code_none=st.booleans(),  # one CODE of None (a unique None key)
    clash=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(["ID", "CODE"]), st.integers(0, 39), st.integers(0, 39)),
    ),
)
def test_property_load_matches_one_insert_row_per_row(drawn, code_none, clash):
    """Same slots and ``RowId`` s, the same index maps in the same
    order, the same counter -- or, on a duplicate primary or unique key,
    the same error and an empty table."""
    rows = [
        [key, key * 7, grp, tag, f"n{key}", ""] for key, grp, tag in drawn
    ]
    if code_none and rows:
        rows[len(rows) // 2][1] = None
    if clash is not None and len(rows) > 1:
        column, src, dst = clash
        src, dst = src % len(rows), dst % len(rows)
        if src != dst:
            position = 0 if column == "ID" else 1
            rows[dst][position] = rows[src][position]
    rows = [tuple(row) for row in rows]

    loaded, oracle = _loadable_table(), _loadable_table()
    try:
        insert_one_per_row(oracle, rows)
    except DuplicateKeyError as error:
        duplicate = re.search(r"key (\S+) in ", str(error)).group(1)
        with pytest.raises(DuplicateKeyError, match=rf"key {re.escape(duplicate)} in "):
            loaded.load(iter(rows))
        assert physical_state(loaded) == physical_state(_loadable_table())
        return
    loaded.load(iter(rows))
    assert physical_state(loaded) == physical_state(oracle)
    # and the loaded table goes on exactly as the inserted one
    for table in (loaded, oracle):
        if rows:
            table.delete_row(table.find_by_key(rows[0][0]))
        table.insert_row((6001, -1, 1, 1, "n6001", ""))
    assert physical_state(loaded) == physical_state(oracle)


def test_load_refuses_a_table_that_has_pages():
    table = make_table()
    table.delete_row(table.insert_row((1, 0, "")))  # empty, but with a vacated slot
    with pytest.raises(EngineError, match="empty table"):
        table.load([(2, 0, "")])
    assert table.row_count == 0


@pytest.mark.parametrize("index, duplicate", [
    ("T_pkey", (2, 2, "b")),  # the primary key
    ("t_name", (3, 3, "a")),  # a unique secondary
])
def test_load_is_all_or_nothing_on_a_duplicate_key(index, duplicate):
    table = make_table()
    table.create_index("t_name", ("NAME",), unique=True)
    empty = physical_state(table)
    rows = [(i, i, f"r{i}") for i in range(4, 40)]
    rows[30] = duplicate  # well after the first row of its key
    rows[0:2] = [(1, 1, "a"), (2, 2, "x")]
    with pytest.raises(DuplicateKeyError, match=index):
        table.load(rows)
    assert physical_state(table) == empty
    table.load(rows[:30])  # and the table is still loadable
    assert table.row_count == 30
