"""What a restart costs, as counts: no timing anywhere in this file.

A restart restores the checkpoint image of each table written since that
image was installed, exactly once, and of no other table (the guard
counts ``Table.restore_snapshot`` calls: page clones + index build are
what a restart costs beyond log replay; a second one, or one for a table
that already holds its image, is pure waste that no result shows); it
CRC-verifies every retained record above the checkpoint exactly once,
all of them before the first redo; and it walks the retained log a
fixed number of times.
"""

import pytest

from repro.engine import recovery, wal
from repro.engine.database import Database
from repro.engine.table import Table
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import LogKind
from repro.shard import ShardSalesWorkload, load_sales_fleet

from tests.ha.test_failover import LEASE, ha_fleet, write_pair


@pytest.fixture
def restores(monkeypatch):
    """The tables restored since the last ``clear()``, in call order."""
    calls = []
    restore_snapshot = Table.restore_snapshot

    def counted(table, snapshot):
        calls.append(table)
        restore_snapshot(table, snapshot)

    monkeypatch.setattr(Table, "restore_snapshot", counted)
    return calls


def test_fleet_restart_restores_each_written_table_once(restores):
    fleet, _data = load_sales_fleet(2, seed=5)
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(20):
        workload.run_one()
    # payments write CUSTOMER and ORDERS; ORDERLINE, most of the rows,
    # still is its image and is never restored
    written = [shard.table(name) for shard in fleet.shards for name in ("CUSTOMER", "ORDERS")]
    before = [shard.content_hash() for shard in fleet.shards]

    fleet.crash()
    fleet.recover()
    assert restores == written
    assert [shard.content_hash() for shard in fleet.shards] == before

    # never crashed (the previous recovery is over): recover() resets
    # what its redo wrote
    restores.clear()
    fleet.recover()
    assert restores == written

    # and resets again: idempotence is not bought by skipping the reset
    restores.clear()
    fleet.recover()
    assert restores == written
    assert [shard.content_hash() for shard in fleet.shards] == before


def test_promotion_restores_no_standby_table(restores):
    fleet, pairs = ha_fleet()
    write_pair(fleet, pairs, 41)
    before = fleet.shards[0].content_hash()
    fleet.kill_primary(0)
    fleet.advance(2 * LEASE.lease_s)
    assert fleet.groups[0].failovers == 1
    # a standby's heap is the image it installed: the promotion's
    # restart replays the shipped suffix onto it as it stands
    assert restores == []
    assert fleet.shards[0].content_hash() == before


# -- the log: verified once, before anything is replayed, in few walks ---------


def loaded_fleet():
    """Two shards with single- and cross-shard payments above their
    checkpoints (BEGIN, UPDATE, PREPARE, DECISION, COMMIT)."""
    fleet, _data = load_sales_fleet(2, seed=5)
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(30):
        workload.run_one()
    return fleet


def test_every_retained_record_is_verified_once_before_the_first_redo(monkeypatch):
    events = []
    dumps, redo = wal._marshal_dumps, recovery._apply_redo

    def counted_dumps(payload, version):
        # the CRC's payload encoding: every checksum, inline or not
        events.append(("crc", payload[0]))
        return dumps(payload, version)

    def counted_redo(db, record):
        events.append(("redo", record.lsn))
        redo(db, record)

    monkeypatch.setattr(wal, "_marshal_dumps", counted_dumps)
    monkeypatch.setattr(recovery, "_apply_redo", counted_redo)
    fleet = loaded_fleet()
    for shard in fleet.shards:
        shard.crash()
        events.clear()
        report = shard.recover()
        retained = list(range(shard.checkpoint_lsn + 1, shard.wal.last_lsn + 1))
        assert len(retained) > 50 and report.records_redone > 10
        verified = [lsn for what, lsn in events if what == "crc"]
        assert verified == retained  # each once, in order, none skipped
        assert events[:len(retained)] == [("crc", lsn) for lsn in retained]
        assert len(events) == len(retained) + report.records_redone


class CountedLog(list):
    """A retained-record list that notes each walk of it or of a slice
    of it (a slice copy is not a walk; iterating the copy is)."""

    def __init__(self, records, walks):
        super().__init__(records)
        self.walks = walks

    def __iter__(self):
        self.walks.append(len(self))
        return super().__iter__()

    def __reversed__(self):
        self.walks.append(len(self))
        return super().__reversed__()

    def __getitem__(self, item):
        got = super().__getitem__(item)
        return CountedLog(got, self.walks) if isinstance(item, slice) else got


def test_a_restart_walks_the_retained_log_a_fixed_number_of_times():
    fleet = loaded_fleet()
    walks = []
    for shard in fleet.shards:
        shard.wal._records = CountedLog(shard.wal._records, walks)
    before = [shard.content_hash() for shard in fleet.shards]

    shard = fleet.shards[0]
    shard.crash()
    shard.recover()
    # the CRC loop and the classifying pass: redo and undo walk the data
    # records set aside by the second, and crash() reads a counter
    assert len(walks) == 2

    walks.clear()
    fleet.crash()
    fleet.recover()
    # ... and the fleet pass unions each shard's DECISION records
    assert len(walks) == 3 * fleet.n_shards
    assert [shard.content_hash() for shard in fleet.shards] == before


def _every_kind_db():
    """One table, a checkpoint, then a log tail holding every LogKind."""
    db = Database("kinds")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    db.execute("INSERT INTO kv (K, V) VALUES (1, 1)")
    db.checkpoint()
    for k in range(2, 8):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        db.execute("UPDATE kv SET V = V + 1 WHERE K = ?", [k - 1])
    db.execute("DELETE FROM kv WHERE K = 3")
    undone = db.begin()
    db.execute("UPDATE kv SET V = 0 WHERE K = 2", txn=undone)
    undone.rollback()
    branch = db.begin()
    db.execute("UPDATE kv SET V = 9 WHERE K = 4", txn=branch)
    db.prepare_commit(branch, "g1")
    db.log_decision(branch.txn_id, "g1")
    branch.commit()
    db.wal.append(0, LogKind.CHECKPOINT)  # as a standby's shipped log holds one
    db.execute("INSERT INTO kv (K, V) VALUES (8, 8)")
    return db


def test_a_flipped_bit_truncates_the_log_exactly_there():
    pristine = _every_kind_db()
    first, last = pristine.checkpoint_lsn + 1, pristine.wal.last_lsn
    by_kind = {}
    for record in pristine.wal.records_from(first):
        by_kind.setdefault(record.kind, []).append(record.lsn)
    assert set(by_kind) == set(LogKind)
    targets = {lsn for lsns in by_kind.values() for lsn in (lsns[0], lsns[-1])}
    targets.update(range(first, last + 1, 5))
    targets.update((first, last))
    for bit, lsn in enumerate(sorted(targets)):
        db = _every_kind_db()
        db.wal.flip_bit(lsn, bit)
        db.crash()
        report = db.recover()
        assert report.corrupt_from_lsn == lsn
        assert report.records_discarded == last - lsn + 1
        assert report.records_scanned == lsn - first
        assert db.wal.last_lsn == lsn - 1
        assert db.wal.first_corrupt_lsn() is None
