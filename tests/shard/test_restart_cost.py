"""What a restart costs, as counts: no timing anywhere in this file.

A restart writes back, from the checkpoint image, exactly the rows
written since that image was installed -- each once, no other row, and
no index rebuilt (the guard records what ``Table._restore_rows`` is
handed and counts ``Table._rebuild_indexes`` calls: slots written back
and index work are what a restart costs beyond log replay, and a row that
already holds its image is pure waste that no result shows); it
CRC-verifies every retained record above the checkpoint exactly once,
all of them before the first redo; it walks the retained log a fixed
number of times; and it undoes an in-doubt branch it presumes aborted
along that branch's own chain.  And it rebuilds the heap, not history:
no snapshot can read a redone version, so redo builds no version chain.
"""

import pytest

from repro.core.datagen import load_sales_database
from repro.core.workload import SalesWorkload, TransactionMix
from repro.engine import recovery, wal
from repro.engine.database import Database
from repro.engine.errors import WriteConflictError
from repro.engine.table import Table, VersionStore
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import DATA_KINDS, LogKind, WriteAheadLog
from repro.shard import ShardSalesWorkload, load_sales_fleet
from repro.shard.coordinator import CoordinatorCrash

from tests.ha.test_failover import LEASE, ha_fleet, write_pair
from tests.shard.test_2pc import load_keys
from tests.shard.test_router import kv_fleet


class Restores:
    """What the restores since the last :meth:`clear` did."""

    def __init__(self):
        self.rows = []  # (table, RowId) per slot written back
        self.builds = 0  # whole-table index builds

    def clear(self):
        self.rows, self.builds = [], 0


@pytest.fixture
def restores(monkeypatch):
    seen = Restores()
    restore_rows, rebuild_indexes = Table._restore_rows, Table._rebuild_indexes

    def counted_rows(table, image, dirty):
        seen.rows += [(table, rid) for rid in dirty]
        restore_rows(table, image, dirty)

    def counted_build(table):
        seen.builds += 1
        rebuild_indexes(table)

    monkeypatch.setattr(Table, "_restore_rows", counted_rows)
    monkeypatch.setattr(Table, "_rebuild_indexes", counted_build)
    return seen


@pytest.fixture
def writes(monkeypatch):
    """The distinct (table, RowId) every heap write touched, read off the
    write methods' own arguments and results (not the marks)."""
    touched = set()
    for name in ("update_row", "overwrite_row", "delete_row"):
        def noted(table, rid, *args, _write=getattr(Table, name)):
            touched.add((table, rid))
            return _write(table, rid, *args)
        monkeypatch.setattr(Table, name, noted)
    place_row = Table.place_row

    def placed(table, row):
        rid = place_row(table, row)
        touched.add((table, rid))
        return rid

    monkeypatch.setattr(Table, "place_row", placed)
    return touched


def assert_restarts_write_back(crash, recover, restores, written, hashes):
    """A crash and recover, then recover() twice on a recovered instance
    (it resets what its redo wrote): each writes back ``written``, each
    row once, and rebuilds no index; the content never changes."""
    before = hashes()
    for restart in ((crash, recover), (recover,), (recover,)):
        restores.clear()
        for step in restart:
            step()
        assert len(restores.rows) == len(written)
        assert set(restores.rows) == written
        assert restores.builds == 0
        assert hashes() == before


def test_fleet_restart_writes_back_exactly_the_rows_written(restores, writes):
    fleet, _data = load_sales_fleet(2, seed=5)
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(20):
        workload.run_one()
    written = set(writes)
    # payments write CUSTOMER and ORDERS; ORDERLINE, most of the rows,
    # still is its image and gets no row back
    assert {table.name for table, _rid in written} == {"CUSTOMER", "ORDERS"}
    assert_restarts_write_back(
        fleet.crash, fleet.recover, restores, written,
        lambda: [shard.content_hash() for shard in fleet.shards],
    )


def test_sales_restart_writes_back_exactly_the_rows_written(restores, writes):
    """One engine, the sales mix: T1 places ORDERLINE rows (an
    autoincrement key), T4 deletes them and T2 updates ORDERS and
    CUSTOMER."""
    db, _data = load_sales_database(row_scale=0.002, seed=3)
    db.checkpoint()
    workload = SalesWorkload(db, TransactionMix(t1=40, t2=30, t3=10, t4=20), seed=3)
    workload.run_many(60)
    written = set(writes)
    assert {table.name for table, _rid in written} == {"CUSTOMER", "ORDERS", "ORDERLINE"}
    assert len(written) < db.table("ORDERLINE").row_count // 4
    assert_restarts_write_back(db.crash, db.recover, restores, written, db.content_hash)


def test_promotion_writes_back_no_standby_row(restores):
    fleet, pairs = ha_fleet()
    write_pair(fleet, pairs, 41)
    before = fleet.shards[0].content_hash()
    restores.clear()  # the loads built their indexes
    fleet.kill_primary(0)
    fleet.advance(2 * LEASE.lease_s)
    assert fleet.groups[0].failovers == 1
    # a standby's heap is the image it installed: the promotion's
    # restart replays the shipped suffix onto it as it stands
    assert restores.rows == [] and restores.builds == 0
    assert fleet.shards[0].content_hash() == before


# -- history: a restart builds none ---------------------------------------------


@pytest.fixture
def chain_writes(monkeypatch):
    """The name of each ``VersionStore`` mutator called, in order."""
    called = []
    for name in ("append", "capture_base", "transition", "remove_newest", "vacuum", "clear"):
        def noted(store, *args, _name=name, _mutate=getattr(VersionStore, name), **kwargs):
            called.append(_name)
            return _mutate(store, *args, **kwargs)
        monkeypatch.setattr(VersionStore, name, noted)
    return called


def redone_keys(db):
    """``(table, key)`` each data record above the checkpoint wrote (both
    keys of a primary-key move)."""
    keys = set()
    for record in db.wal.records_from(db.checkpoint_lsn + 1):
        if record.kind in DATA_KINDS:
            keys.add((record.table, record.key))
            if record.kind is LogKind.UPDATE:
                pk = db.table(record.table).schema.primary_key_index
                keys.add((record.table, record.after[pk]))
    return keys


def assert_no_history(db):
    """No chain entry; a snapshot reads every redone key as READ
    COMMITTED does; a snapshot writer of every redone row still there
    meets no first-updater-wins conflict."""
    assert db.live_versions() == 0
    keys = redone_keys(db)
    assert len(keys) > 10
    reader = db.begin(IsolationLevel.SNAPSHOT)
    committed = db.begin(IsolationLevel.READ_COMMITTED)
    present = []
    for name, key in keys:
        sql = f"SELECT * FROM {name} WHERE {db.table(name).schema.primary_key} = ?"
        rows = db.query(sql, [key], txn=committed).rows
        assert db.query(sql, [key], txn=reader).rows == rows
        present += [(name, key, row) for row in rows]
    reader.commit()
    committed.commit()
    assert present
    writer = db.begin(IsolationLevel.SNAPSHOT)
    for name, key, row in present:
        schema = db.table(name).schema
        column = 1 - schema.primary_key_index  # a column next to the key
        try:
            db.execute(
                f"UPDATE {name} SET {schema.columns[column].name} = ? "
                f"WHERE {schema.primary_key} = ?", [row[column], key], txn=writer,
            )
        except WriteConflictError:  # pragma: no cover - what this pins
            pytest.fail(f"a snapshot writer lost {name}[{key!r}] to redone history")
    writer.commit()


def test_a_fleet_restart_builds_no_version_chain(chain_writes):
    fleet = loaded_fleet()
    fleet.crash()
    chain_writes.clear()
    fleet.recover()
    assert chain_writes == []
    for shard in fleet.shards:
        assert_no_history(shard)


def test_a_sales_restart_builds_no_version_chain(chain_writes):
    db, _data = load_sales_database(row_scale=0.002, seed=3)
    db.checkpoint()
    SalesWorkload(db, TransactionMix(t1=40, t2=30, t3=10, t4=20), seed=3).run_many(60)
    db.crash()
    chain_writes.clear()
    report = db.recover()
    assert chain_writes == [] and report.records_redone > 50
    assert_no_history(db)


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
    # ... and so does each shard of a fleet restart: the fleet pass
    # resolves in-doubt branches from the DECISIONs each analysis pass
    # handed over, without a walk of its own
    assert len(walks) == 2 * fleet.n_shards
    assert [shard.content_hash() for shard in fleet.shards] == before


def test_presumed_abort_undoes_each_branch_along_its_chain(monkeypatch):
    """Resolving in-doubt branches by presumed abort walks each branch's
    own prev_lsn chain once, as a rollback does -- not the retained log
    once per branch."""
    fleet = kv_fleet(2)
    by_shard = load_keys(fleet, per_shard=4)
    before = [shard.content_hash() for shard in fleet.shards]
    for index in range(4):
        # the coordinator dies after shard 1 prepared: no DECISION anywhere
        fleet.coordinator.arm_crash("after_prepare")
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [9, keys[index]], gtxn=gtxn)
        with pytest.raises(CoordinatorCrash):
            gtxn.commit()
    fleet.crash()
    reports = [fleet._recover_shard(shard_id) for shard_id in range(fleet.n_shards)]
    assert [len(report.in_doubt) for report in reports] == [0, 4]

    walks, chains = [], []
    transaction_chain = WriteAheadLog.transaction_chain

    def counted_chain(wal, txn_id, from_lsn):
        chains.append(txn_id)
        return transaction_chain(wal, txn_id, from_lsn)

    monkeypatch.setattr(WriteAheadLog, "transaction_chain", counted_chain)
    for shard in fleet.shards:
        shard.wal._records = CountedLog(shard.wal._records, walks)
    fleet_report = fleet._resolve_in_doubt(reports)
    assert fleet_report.resolved_abort == 4
    assert sorted(chains) == sorted(reports[1].in_doubt) and walks == []
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
        # the log ends there, but for the ABORT of each loser the restart
        # undid (each one that wrote)
        wrote = {
            record.txn_id for record in db.wal.records_from(first)
            if record.lsn < lsn and record.kind in DATA_KINDS
        }
        assert [(record.txn_id, record.kind) for record in db.wal.records_from(lsn)] == [
            (txn_id, LogKind.ABORT) for txn_id in sorted(report.losers & wrote)
        ]
        assert db.wal.first_corrupt_lsn() is None
