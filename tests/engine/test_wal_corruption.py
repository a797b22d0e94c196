"""WAL checksums, crash points, and corruption-tolerant recovery.

The contract under test: whatever combination of crash point (record
lost / durable / torn) and tail corruption (bit flips) hits the log,
recovery truncates at the first corrupt record and restores **exactly
the committed prefix** -- transactions whose COMMIT record lies at or
beyond the corruption never happened.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.database import Database
from repro.engine.errors import EngineError, SimulatedCrash, WalCorruptionError  # noqa: F401
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import CRASH_MODES, LogKind, WriteAheadLog


def fresh_db():
    db = Database("chaos")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def kv_state(db):
    return dict(db.query("SELECT K, V FROM kv").rows)


def committed_prefix_state(db):
    """Independent oracle: replay the intact committed prefix of the WAL.

    Reads the raw record stream (stopping at the first CRC failure) and
    applies only transactions whose COMMIT lies inside the intact
    prefix.  Deliberately much simpler than ARIES recovery: single
    table, primary-key ops, no undo needed.
    """
    start = db.checkpoint_lsn + 1
    corrupt = db.wal.first_corrupt_lsn(start)
    end = corrupt if corrupt is not None else db.wal.last_lsn + 1
    records = [r for r in db.wal.records_from(start) if r.lsn < end]
    committed = {r.txn_id for r in records if r.kind is LogKind.COMMIT}
    aborted = {r.txn_id for r in records if r.kind is LogKind.ABORT}
    state = {}
    for record in records:
        if record.txn_id in aborted or record.txn_id not in committed:
            continue
        if record.kind is LogKind.INSERT:
            state[record.after[0]] = record.after[1]
        elif record.kind is LogKind.UPDATE:
            state[record.after[0]] = record.after[1]
        elif record.kind is LogKind.DELETE:
            state.pop(record.key, None)
    return state


# -- checksum mechanics --------------------------------------------------------


def test_records_carry_valid_crcs():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    records = list(db.wal.records_from(1))
    assert records
    assert all(record.is_intact for record in records)
    assert all(record.crc == record.expected_crc() for record in records)


def test_flip_bit_breaks_the_crc():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    target = next(
        r.lsn for r in db.wal.records_from(1) if r.kind is LogKind.INSERT
    )
    assert db.wal.first_corrupt_lsn() is None
    corrupted = db.wal.flip_bit(target)
    assert not corrupted.is_intact
    assert db.wal.first_corrupt_lsn() == target


def test_flip_bit_rejects_unretained_lsn():
    wal = WriteAheadLog()
    with pytest.raises(ValueError):
        wal.flip_bit(1)


def test_discard_from_drops_suffix_and_reuses_lsns():
    db = fresh_db()
    for key in (1, 2, 3):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key])
    last = db.wal.last_lsn
    dropped = db.wal.discard_from(last - 1)
    assert dropped == 2
    assert db.wal.last_lsn == last - 2
    # the next append reuses the discarded LSN, like overwriting a torn tail
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 9])
    assert db.wal.record_at(last - 1).lsn == last - 1


def test_arm_crash_validates():
    wal = WriteAheadLog()
    with pytest.raises(ValueError):
        wal.arm_crash(1, mode="sideways")
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    with pytest.raises(ValueError):
        db.wal.arm_crash(1)  # already written


# -- crash-point modes ---------------------------------------------------------


def test_crash_before_loses_the_record():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    armed = db.wal.last_lsn + 1
    db.wal.arm_crash(armed, mode="before")
    with pytest.raises(SimulatedCrash):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    assert db.wal.last_lsn < armed or db.wal.record_at(armed).kind is not LogKind.INSERT
    db.crash()
    db.recover()
    assert kv_state(db) == {1: 1}


def test_crash_after_keeps_record_durable_but_txn_uncommitted():
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    db.wal.arm_crash(db.wal.last_lsn + 2, mode="after")  # the INSERT record
    with pytest.raises(SimulatedCrash):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    # the data record reached the log intact...
    assert any(
        r.kind is LogKind.INSERT and r.key == 2 and r.is_intact
        for r in db.wal.records_from(1)
    )
    db.crash()
    report = db.recover()
    # ...but with no COMMIT it is a loser: redone, then undone
    assert kv_state(db) == {1: 1}
    assert report.corrupt_from_lsn is None
    assert report.losers


#: statement, offset of the torn record from the last LSN (BEGIN is +1,
#: the data record +2, COMMIT +3), and its kind
TORN_CASES = [
    ("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], 2, LogKind.INSERT),
    # no after image to halve: these two used to be left intact and durable
    ("DELETE FROM kv WHERE K = ?", [1], 2, LogKind.DELETE),
    ("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], 3, LogKind.COMMIT),
]


def test_torn_write_truncates_at_the_torn_record():
    # one test over the cases, not a parametrised one: its id is pinned
    for sql, params, offset, kind in TORN_CASES:
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        torn_lsn = db.wal.last_lsn + offset
        db.wal.arm_crash(torn_lsn, mode="torn")
        with pytest.raises(SimulatedCrash):
            db.execute(sql, params)
        torn = db.wal.record_at(torn_lsn)
        assert torn.kind is kind
        assert not torn.is_intact
        assert db.wal.first_corrupt_lsn() == torn_lsn
        db.crash()
        report = db.recover()
        # the torn statement's transaction never committed -- not even
        # when the torn record *is* its COMMIT
        assert kv_state(db) == {1: 1}
        assert report.corrupt_from_lsn == torn_lsn
        assert report.records_discarded >= 1
        assert db.wal.first_corrupt_lsn() is None  # the tail is clean again


def test_bit_flip_rolls_back_commits_beyond_the_corruption():
    """A committed transaction whose COMMIT lies beyond a corrupt record
    is gone after recovery -- the committed *prefix* survives, nothing
    after the tear."""
    db = fresh_db()
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    prefix_end = db.wal.last_lsn
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    target = next(
        r.lsn for r in db.wal.records_from(prefix_end + 1)
        if r.kind is LogKind.INSERT
    )
    db.crash()
    db.wal.flip_bit(target)
    report = db.recover()
    assert kv_state(db) == {1: 1}
    assert report.corrupt_from_lsn == target


def test_recovery_after_corruption_is_stable_across_cycles():
    db = fresh_db()
    for key in (1, 2, 3, 4):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key])
    db.crash()
    db.wal.flip_bit(db.wal.last_lsn - 1)
    db.recover()
    expected = kv_state(db)
    for _ in range(3):
        db.crash()
        db.recover()
        assert kv_state(db) == expected


# -- the torture property ------------------------------------------------------


op_strategy = st.tuples(
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(min_value=1, max_value=6),
)


@settings(max_examples=200, deadline=None)
@given(
    ops=st.lists(op_strategy, min_size=1, max_size=20),
    crash_offset=st.integers(min_value=1, max_value=60),
    crash_mode=st.sampled_from(CRASH_MODES),
    corrupt=st.booleans(),
    corrupt_back=st.integers(min_value=0, max_value=10),
    corrupt_bit=st.integers(min_value=0, max_value=30),
)
def test_torture_exactly_the_committed_prefix_survives(
    ops, crash_offset, crash_mode, corrupt, corrupt_back, corrupt_bit
):
    """Random crash points x random crash modes x random WAL-tail bit
    flips: recovery always restores exactly the state implied by the
    intact committed prefix of the log."""
    db = fresh_db()
    db.wal.arm_crash(crash_offset, mode=crash_mode)
    counter = 0
    for op, key in ops:
        counter += 1
        try:
            if op == "insert":
                db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, counter])
            elif op == "update":
                db.execute("UPDATE kv SET V = ? WHERE K = ?", [counter, key])
            else:
                db.execute("DELETE FROM kv WHERE K = ?", [key])
        except SimulatedCrash:
            break
        except EngineError:
            pass  # duplicate-key insert: aborted and rolled back
    db.wal.disarm_crash()
    db.crash()
    if corrupt and db.wal.retained_records:
        lsn = max(
            db.wal.first_retained_lsn, db.wal.last_lsn - corrupt_back
        )
        db.wal.flip_bit(lsn, bit=corrupt_bit)
    expected = committed_prefix_state(db)
    report = db.recover()
    assert kv_state(db) == expected
    # report bookkeeping matches what we injected
    if report.corrupt_from_lsn is not None:
        assert report.records_discarded >= 1
    # and the recovered instance keeps working
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [99, 99])
    assert kv_state(db)[99] == 99
