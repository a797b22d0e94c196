"""Tests for the write-ahead log."""

import pytest

from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.errors import SimulatedCrash
from repro.engine.wal import (
    DATA_KINDS, FSYNC_KINDS, LogKind, WriteAheadLog, checksum, corrupt_records,
)
from repro.ha.replication import WalShipper, bootstrap_standby


def test_lsns_are_monotone_from_one():
    wal = WriteAheadLog()
    records = [wal.append(1, LogKind.BEGIN), wal.append(1, LogKind.COMMIT)]
    assert [record.lsn for record in records] == [1, 2]
    assert wal.last_lsn == 2


def test_prev_lsn_links_within_transaction():
    wal = WriteAheadLog()
    begin = wal.append(5, LogKind.BEGIN)
    insert = wal.append(5, LogKind.INSERT, table="T", key=1, after=(1,))
    update = wal.append(5, LogKind.UPDATE, table="T", key=1, before=(1,), after=(2,))
    assert begin.prev_lsn == 0
    assert insert.prev_lsn == begin.lsn
    assert update.prev_lsn == insert.lsn


def test_prev_lsn_does_not_cross_transactions():
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    other = wal.append(2, LogKind.BEGIN)
    mine = wal.append(1, LogKind.INSERT, table="T", key=1, after=(1,))
    assert other.prev_lsn == 0
    assert mine.prev_lsn == 1


def test_transaction_chain_newest_first():
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    a = wal.append(1, LogKind.INSERT, table="T", key=1, after=(1,))
    wal.append(2, LogKind.INSERT, table="T", key=9, after=(9,))
    b = wal.append(1, LogKind.DELETE, table="T", key=1, before=(1,))
    chain = wal.transaction_chain(1, b.lsn)
    assert [record.lsn for record in chain] == [b.lsn, a.lsn, 1]


def test_records_from_filters_by_lsn():
    wal = WriteAheadLog()
    for i in range(5):
        wal.append(1, LogKind.INSERT, table="T", key=i, after=(i,))
    assert [record.lsn for record in wal.records_from(3)] == [3, 4, 5]


def test_truncate_drops_old_records():
    wal = WriteAheadLog()
    for i in range(6):
        wal.append(1, LogKind.INSERT, table="T", key=i, after=(i,))
    dropped = wal.truncate(4)
    assert dropped == 3
    assert wal.retained_records == 3
    with pytest.raises(ValueError):
        list(wal.records_from(2))
    assert [record.lsn for record in wal.records_from(4)] == [4, 5, 6]


def test_truncate_is_idempotent():
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    wal.truncate(2)
    assert wal.truncate(2) == 0


def test_record_at_bounds():
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    assert wal.record_at(1).kind is LogKind.BEGIN
    with pytest.raises(ValueError):
        wal.record_at(2)
    with pytest.raises(ValueError):
        wal.record_at(0)


def test_byte_size_grows_with_images():
    wal = WriteAheadLog()
    small = wal.append(1, LogKind.BEGIN)
    big = wal.append(1, LogKind.UPDATE, table="T", key=1,
                     before=(1, "a", 2.0), after=(1, "b", 3.0))
    assert big.byte_size() > small.byte_size()


def test_bytes_between():
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    r2 = wal.append(1, LogKind.INSERT, table="T", key=1, after=(1,))
    r3 = wal.append(1, LogKind.INSERT, table="T", key=2, after=(2,))
    assert wal.bytes_between(1, 3) == r2.byte_size() + r3.byte_size()
    assert wal.bytes_between(3, 3) == 0


def test_data_kinds_constant():
    assert LogKind.INSERT in DATA_KINDS
    assert LogKind.COMMIT not in DATA_KINDS


def test_max_txn_id_and_first_retained():
    wal = WriteAheadLog()
    assert wal.max_txn_id() == 0
    wal.append(3, LogKind.BEGIN)
    wal.append(7, LogKind.INSERT, table="T", key=1, after=(1,))
    wal.append(5, LogKind.COMMIT)
    assert wal.max_txn_id() == 7
    assert wal.first_retained_lsn == 1
    wal.truncate(3)
    assert wal.first_retained_lsn == 3
    # a high-water mark, not a max over what is retained: the record of
    # txn 7 is gone, its id stays taken -- through a discarded tail and
    # a restore reset as well
    assert [record.txn_id for record in wal.records_from(3)] == [5]
    assert wal.max_txn_id() == 7
    wal.append(9, LogKind.BEGIN)
    wal.discard_from(4)
    assert wal.max_txn_id() == 9
    wal.reset_for_restore()
    assert wal.max_txn_id() == 9


def test_shipped_records_raise_the_txn_id_high_water_mark():
    primary, standby = WriteAheadLog(), WriteAheadLog()
    standby.append_shipped(primary.append(4, LogKind.BEGIN))
    standby.append_shipped(primary.append(2, LogKind.BEGIN))
    assert standby.max_txn_id() == 4


# -- the record checksum -------------------------------------------------------


def test_crc_distinguishes_types():
    base = checksum(1, 2, "update", "T", 1, None, None, 0)
    for key in ("1", True, b"1", 1.5, 1.0):
        assert checksum(1, 2, "update", "T", key, None, None, 0) != base
    # images are type-exact too: nothing folds 10.0 to 10 or -0.0 to 0
    assert checksum(1, 2, "update", "T", 1, (10.0, -0.0), None, 0) != \
        checksum(1, 2, "update", "T", 1, (10, 0), None, 0)


def test_crc_is_identity_independent():
    # Equal-but-distinct objects (no interning, no sharing) checksum
    # identically -- marshal format 2 emits no identity back-references
    # (formats 3+ do), which is why the payload pins format 2.
    s1, s2 = "xy" * 3, "".join(["x", "y"]) * 3
    assert s1 is not s2
    row1, row2 = (s1, s1, 10 ** 40), (s2, "xy" * 3, 10 ** 40 + 1 - 1)
    assert checksum(1, 2, "update", "T", s1, row1, None, 0) == \
        checksum(1, 2, "update", "T", s2, row2, None, 0)


def test_append_stamps_the_expected_crc():
    wal = WriteAheadLog()
    records = [
        wal.append(1, LogKind.BEGIN),
        wal.append(1, LogKind.UPDATE, table="T", key=2.0,
                   before=(2.0, "a", 1.5), after=(2.0, "b", -0.0)),
        wal.append(1, LogKind.INSERT, table="T", key=(1, "k"),
                   after=(1, "k", None)),
        wal.append(1, LogKind.DELETE, table="T", key=1, before=(1, "k", 10.0)),
        wal.append(1, LogKind.COMMIT),
    ]
    for record in records:
        assert record.crc == record.expected_crc()
        assert record.is_intact


#: (txn's record kinds after any BEGIN it has, fsync points they cost)
_CHAINS = [
    ((LogKind.BEGIN, LogKind.COMMIT), 0),  # nothing to make durable
    ((LogKind.BEGIN, LogKind.ABORT), 0),
    ((LogKind.BEGIN, LogKind.INSERT, LogKind.COMMIT), 1),
    # a 2PC peer: its PREPARE is its one flush -- its DECISION, behind
    # that PREPARE, and the COMMIT behind its DECISION add nothing
    # recovery needs (the last agent's forced DECISION holds its fate)
    ((LogKind.BEGIN, LogKind.UPDATE, LogKind.PREPARE, LogKind.DECISION,
      LogKind.COMMIT), 1),
    # the 2PC last agent: its DECISION is its vote, its one flush
    ((LogKind.BEGIN, LogKind.UPDATE, LogKind.DECISION, LogKind.COMMIT), 1),
    # a prepared branch promised something, even with no data behind it
    ((LogKind.BEGIN, LogKind.PREPARE, LogKind.COMMIT), 2),
    # no BEGIN to read back (recovery finishing an in-doubt branch)
    ((LogKind.COMMIT,), 1),
]


def _append_chains(wal):
    """Log every chain of ``_CHAINS``, two at a time and interleaved;
    returns the fsync points each transaction's records cost."""
    cost = {}
    for first in range(0, len(_CHAINS), 2):
        pair = list(enumerate(_CHAINS[first:first + 2], start=first + 1))
        for step in range(max(len(kinds) for _txn, (kinds, _n) in pair)):
            for txn_id, (kinds, _n) in pair:
                if step < len(kinds):
                    before = wal.fsyncs
                    wal.append(txn_id, kinds[step], key=txn_id)
                    cost[txn_id] = cost.get(txn_id, 0) + wal.fsyncs - before
    return cost


def test_only_a_commit_with_work_behind_it_is_a_durability_point():
    wal = WriteAheadLog()
    cost = _append_chains(wal)
    assert cost == {
        txn_id: fsyncs for txn_id, (_kinds, fsyncs) in enumerate(_CHAINS, start=1)
    }
    # a BEGIN that checkpointing truncated away cannot vouch for its COMMIT
    wal.append(9, LogKind.BEGIN)
    wal.truncate(wal.last_lsn + 1)
    before = wal.fsyncs
    wal.append(9, LogKind.COMMIT)
    assert wal.fsyncs - before == 1
    with wal.group_commit():
        wal.append(10, LogKind.BEGIN)
        wal.append(10, LogKind.COMMIT)
    assert wal.fsyncs - before == 1  # an empty batch flushes nothing


def test_only_the_last_agents_decision_is_a_durability_point():
    """The third exception: a DECISION behind its branch's own retained
    PREPARE (a peer's) is no flush.  The last agent's, with no PREPARE
    behind it, is -- and so is one whose PREPARE cannot be read back
    (truncated, or no chain at all), the safe reading.  Only a forced
    DECISION is one a peer may need: it alone becomes unforgotten."""
    wal = WriteAheadLog()
    costs = {}

    def cost(txn_id, kind, key=None):
        before = wal.fsyncs
        wal.append(txn_id, kind, key=key)
        costs.setdefault(txn_id, []).append(wal.fsyncs - before)

    for kind in (LogKind.BEGIN, LogKind.UPDATE, LogKind.DECISION, LogKind.COMMIT):
        cost(1, kind, "g1")  # the last agent
    for kind in (LogKind.BEGIN, LogKind.UPDATE, LogKind.PREPARE, LogKind.DECISION,
                 LogKind.COMMIT):
        cost(2, kind, "g1")  # its peer
    cost(3, LogKind.DECISION, "g3")  # no chain behind it: prev_lsn 0
    assert costs == {1: [0, 0, 1, 0], 2: [0, 0, 1, 0, 0], 3: [1]}
    assert list(wal.unforgotten) == ["g1", "g3"]
    assert wal.flushed_lsn == wal.last_lsn  # g3's flush

    # a PREPARE that checkpointing truncated away cannot vouch for it
    wal.append(4, LogKind.PREPARE, key="g4")
    wal.truncate(wal.last_lsn + 1)
    before = wal.fsyncs
    wal.append(4, LogKind.DECISION, key="g4")
    assert wal.fsyncs - before == 1 and "g4" in wal.unforgotten

    # a standby counts what its primary counts, from the log alone ...
    primary = WriteAheadLog()
    for kind in (LogKind.BEGIN, LogKind.UPDATE, LogKind.PREPARE, LogKind.DECISION,
                 LogKind.COMMIT):
        primary.append(1, kind, key="g1")
    standby = WriteAheadLog()
    for record in primary.records_from(1):
        standby.append_shipped(record)
    assert standby.fsyncs == primary.fsyncs == 1
    # ... unless its log starts after the PREPARE: then the DECISION is
    # a flush there
    late = WriteAheadLog()
    late.start_from(4)
    for record in primary.records_from(4):
        late.append_shipped(record)
    assert late.fsyncs == 1


def test_shipped_records_cost_the_standby_what_they_cost_the_primary():
    primary = WriteAheadLog()
    _append_chains(primary)
    standby = WriteAheadLog()
    for record in primary.records_from(1):
        standby.append_shipped(record)
    assert standby.fsyncs == primary.fsyncs == sum(n for _kinds, n in _CHAINS)


# -- append's inline CRC and per-kind flags ------------------------------------

ROWS = [
    (1, "x", 2.5, None),
    (0, "", -0.0, None, "µ"),
    (None,),
    (2**40, "long " * 20, float("inf"), True),
]


@pytest.mark.parametrize("kind", list(LogKind))
def test_append_crc_is_checksum_of_the_fields(kind):
    wal = WriteAheadLog()
    wal.append(7, LogKind.BEGIN)
    if kind in DATA_KINDS:
        records = [
            wal.append(7, kind, table="T", key=row[0], before=row, after=row[::-1])
            for row in ROWS
        ]
        records.append(wal.append(7, kind, table="T", key="k", after=ROWS[0]))
        records.append(wal.append(7, kind, table="T", key=1.5, before=ROWS[1]))
    else:
        records = [wal.append(7, kind, key="gtid-1"), wal.append(8, kind)]
    for record in records:
        assert record.crc == checksum(
            record.lsn, record.txn_id, kind.value, record.table, record.key,
            record.before, record.after, record.prev_lsn,
        )
        assert record.is_intact


def _append_of_kind(wal, kind, row):
    if kind in DATA_KINDS:
        return wal.append(7, kind, table="T", key=row[0], before=row, after=row[::-1])
    return wal.append(7, kind, key=f"gtid-{row[0]}")


@pytest.mark.parametrize("kind", list(LogKind))
def test_corrupt_records_yields_exactly_the_checksum_mismatches(kind):
    """The inline verify loop against :func:`checksum`, record by record:
    intact ones, bit-flipped ones (the flip lands in an int key or in the
    stored CRC) and a torn write (a halved after image, or a header tear
    where there is none)."""
    wal = WriteAheadLog()
    wal.append(7, LogKind.BEGIN)
    for row in ROWS:
        _append_of_kind(wal, kind, row)
    wal.arm_crash(wal.last_lsn + 1, "torn")
    with pytest.raises(SimulatedCrash):
        _append_of_kind(wal, kind, ROWS[0])
    torn = wal.last_lsn
    wal.revive()
    for row in ROWS:
        _append_of_kind(wal, kind, row)
    flipped = {torn - 2, torn + 1, wal.last_lsn}
    for bit, lsn in enumerate(sorted(flipped)):
        wal.flip_bit(lsn, bit)
    records = wal.records_from(1)
    mismatched = [
        record for record in records
        if record.crc != checksum(
            record.lsn, record.txn_id, record.kind.value, record.table, record.key,
            record.before, record.after, record.prev_lsn,
        )
    ]
    assert [record.lsn for record in mismatched] == sorted({torn, *flipped})
    assert list(corrupt_records(records)) == mismatched


@pytest.mark.parametrize("kind", list(LogKind))
def test_kind_flags_follow_fsync_kinds_and_txn_end(kind):
    """A kind fsyncs iff it is in FSYNC_KINDS and closes the chain iff it
    is COMMIT or ABORT -- on the primary's append and a standby's
    shipped append alike."""
    wal = WriteAheadLog()
    wal.append(1, LogKind.BEGIN)
    wal.append(1, LogKind.INSERT, table="T", key=1, after=(1,))
    fsyncs = wal.fsyncs
    wal.append(1, kind, key="gtid-1")
    assert wal.fsyncs - fsyncs == (kind in FSYNC_KINDS)
    assert (1 not in wal.in_flight_txns()) == (kind in (LogKind.COMMIT, LogKind.ABORT))
    standby = WriteAheadLog()
    for record in wal.records_from(1):
        standby.append_shipped(record)
    assert standby.fsyncs == wal.fsyncs
    assert standby.in_flight_txns() == wal.in_flight_txns()


# -- group commit ---------------------------------------------------------------


def test_group_commit_nested_blocks_flush_once_at_the_outermost_exit():
    wal = WriteAheadLog()
    assert wal.group_commit() is wal.group_commit()  # one manager per log
    with wal.group_commit():
        with wal.group_commit():
            wal.append(1, LogKind.PREPARE, key="g1")
            wal.append(2, LogKind.DECISION, key="g2")
        assert wal.fsyncs == 0  # the inner exit defers to the outer one
        wal.append(3, LogKind.DECISION, key="g3")
        assert wal.fsyncs == 0
    assert wal.fsyncs == 1
    wal.append(4, LogKind.DECISION, key="g4")
    assert wal.fsyncs == 2  # outside a batch every durability point pays


def test_group_commit_unwinds_and_flushes_on_an_exception():
    wal = WriteAheadLog()
    with pytest.raises(RuntimeError):
        with wal.group_commit():
            with wal.group_commit():
                wal.append(1, LogKind.DECISION, key="g1")
                raise RuntimeError("decision phase failed")
    assert wal.fsyncs == 1  # what was pending is flushed
    wal.append(2, LogKind.DECISION, key="g2")
    assert wal.fsyncs == 2  # and no batch was left open


def test_semisync_standby_counts_one_fsync_per_primary_fsync():
    primary = Database("primary")
    primary.create_table(Schema(
        "KV", (Column("K", ColumnType.INT, nullable=False), Column("V", ColumnType.INT)),
        primary_key="K",
    ))
    standby = bootstrap_standby(primary)
    shipper = WalShipper(primary, standby, mode="semisync")
    with primary.begin() as txn:  # BEGIN, two INSERTs, COMMIT: one batch
        primary.execute("INSERT INTO KV VALUES (?, ?)", [1, 1], txn=txn)
        primary.execute("INSERT INTO KV VALUES (?, ?)", [2, 2], txn=txn)
    primary.begin().commit()  # read-only: its COMMIT is no durability point
    branch = primary.begin()
    primary.execute("UPDATE KV SET V = ? WHERE K = ?", [3, 1], txn=branch)
    primary.prepare_commit(branch, "g1")
    primary.log_decision(branch.txn_id, "g1")
    branch.commit()  # behind its own DECISION: no durability point either
    assert shipper.is_fresh and standby.wal.last_lsn == primary.wal.last_lsn
    # the INSERTs' COMMIT and the PREPARE; the DECISION behind that
    # PREPARE is a peer's, no durability point
    assert standby.wal.fsyncs == primary.wal.fsyncs == 2
