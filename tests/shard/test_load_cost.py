"""What a load costs, as counts: no timing anywhere in this file.

A loader, a standby bootstrap and a restore's image load fill each table
with one bulk :meth:`Table.load`: no ``Table.insert_row`` (the live
write path: a uniqueness probe, a slot placement and one index insert per
index, per row), no ``HashIndex.insert`` and exactly one ``rebuild`` of
every index -- the build a checkpoint restore uses.

A sales load also draws its rows without ``random.Random``'s per-call
methods, hashes each distinct partition value once, and runs no cyclic
collection while it builds and loads its rows.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from repro.core.datagen import DataGenerator, gc_paused, load_sales_database
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BackupJob
from repro.dr.restore import RestoreJob
from repro.engine.database import Database
from repro.engine.errors import EngineError
from repro.engine.index import HashIndex
from repro.engine.table import Table
from repro.ha.replication import bootstrap_standby
from repro.shard import ShardSalesWorkload, load_sales_fleet
from repro.shard import router as router_module


@pytest.fixture
def calls(monkeypatch):
    """Row inserts, index inserts and index rebuilds (keyed by the index
    object) since the last ``clear()``."""
    counted = Counter()
    insert_row, insert, rebuild = Table.insert_row, HashIndex.insert, HashIndex.rebuild

    def counted_insert_row(table, row):
        counted["insert_row"] += 1
        return insert_row(table, row)

    def counted_insert(index, key, rid):
        counted["insert"] += 1
        insert(index, key, rid)

    def counted_rebuild(index, keys, rids):
        counted[index] += 1  # an OrderedIndex reaches this once, via super()
        rebuild(index, keys, rids)

    monkeypatch.setattr(Table, "insert_row", counted_insert_row)
    monkeypatch.setattr(HashIndex, "insert", counted_insert)
    monkeypatch.setattr(HashIndex, "rebuild", counted_rebuild)
    return counted


def indexes_of(databases):
    return [
        index
        for db in databases
        for table in map(db.table, db.table_names)
        for index in (table.primary_index, *table.secondary_indexes.values())
    ]


def built_once(calls, databases):
    """No per-row insert, and one rebuild of each index of ``databases``
    and of nothing else."""
    assert calls == Counter({index: 1 for index in indexes_of(databases)})


def test_load_sales_database_builds_each_index_once(calls):
    db, _data = load_sales_database(row_scale=0.002)
    assert db.total_rows() > 1000
    built_once(calls, [db])


def test_load_sales_fleet_builds_each_index_once(calls):
    fleet, _data = load_sales_fleet(2, seed=5)
    built_once(calls, fleet.shards)


def test_bootstrap_standby_builds_each_index_once(calls):
    fleet, _data = load_sales_fleet(2, seed=5)
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(20):
        workload.run_one()
    calls.clear()
    standby = bootstrap_standby(fleet.shards[0])
    assert standby.total_rows() == fleet.shards[0].total_rows()
    built_once(calls, [standby])


def test_restore_loads_each_image_with_one_build_per_index(calls):
    fleet, _data = load_sales_fleet(2, seed=5)
    archiver = FleetArchiver(fleet, mode="sync")
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    manifest = BackupJob(fleet, archiver).run()
    for _ in range(20):
        workload.run_one()  # UPDATEs only: the replay inserts nothing
    archiver.catch_up()
    job = RestoreJob(manifest, archiver)
    at_load = []
    job.arm_action("after_load", lambda: at_load.append(Counter(calls)))
    calls.clear()
    restored, report = job.run()
    assert report.rows_loaded == manifest.total_rows and report.records_replayed > 0
    built_once(at_load[0], restored.shards)
    # the restart that replays the archive restores no image: each table
    # still is the one it loaded (tests/shard/test_restart_cost.py), and
    # the replay moves no key
    built_once(calls, restored.shards)


# -- the rows themselves -------------------------------------------------------

SALES_LOADS = {
    "database": lambda: load_sales_database(row_scale=0.002),
    "fleet": lambda: load_sales_fleet(2, seed=5),
}


def test_sales_load_makes_no_stdlib_draw_call(monkeypatch):
    drawn = Counter()
    for name in ("randint", "choice", "uniform"):
        method = getattr(random.Random, name)

        def counted(rng, *args, _name=name, _method=method):
            drawn[_name] += 1
            return _method(rng, *args)

        monkeypatch.setattr(random.Random, name, counted)
    for load in SALES_LOADS.values():
        load()
    assert drawn == Counter()
    random.Random(1).choice("ab")  # the wrapper itself counts
    assert drawn == Counter({"choice": 1})


def test_fleet_load_hashes_each_partition_value_once(monkeypatch):
    hashed = []
    stable_hash = router_module.stable_hash
    monkeypatch.setattr(
        router_module, "stable_hash", lambda value: (hashed.append(value), stable_hash(value))[1]
    )
    fleet, data = load_sales_fleet(2, seed=5)
    distinct = {
        table: {
            row[fleet.shards[0].table(table).schema.column_index(column)]
            for shard in fleet.shards
            for _rid, row in shard.table(table).scan()
        }
        for table, column in (("CUSTOMER", "C_ID"), ("ORDERS", "O_ID"), ("ORDERLINE", "OL_O_ID"))
    }
    assert len(distinct["ORDERLINE"]) * 10 == data.rows["ORDERLINE"]  # ten rows per value
    assert len(hashed) == sum(map(len, distinct.values()))
    assert Counter(hashed) == Counter(
        value for values in distinct.values() for value in values
    )


@pytest.fixture
def collections():
    """Generations of the cyclic collections started since set-up."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    assert gc.isenabled()
    gc.collect()  # every generation's count back to 0
    gc.callbacks.append(record)
    yield seen
    gc.callbacks.remove(record)


@pytest.mark.parametrize("name", SALES_LOADS)
def test_no_collection_while_a_sales_load_builds_and_loads(name, collections, monkeypatch):
    gc_on_at_load = []
    load = Table.load

    def watched(table, rows):
        gc_on_at_load.append(gc.isenabled())
        load(table, rows)  # draws the rows it loads (or split_rows drew them)

    monkeypatch.setattr(Table, "load", watched)
    SALES_LOADS[name]()
    assert gc_on_at_load and not any(gc_on_at_load)
    assert gc.isenabled()
    # one full collection on entry, for what the caller dropped before the
    # load, and one young one, for the rows allocated in the pause, at the
    # first allocation after it -- not dozens of young and several full
    # ones while the rows are built and loaded
    assert collections == [2, 0]


def test_gc_pause_frees_what_the_caller_dropped_before_the_load():
    class Cycle:
        def __init__(self):
            self.me = self

    cycle = Cycle()
    dropped = weakref.ref(cycle)
    gc.collect()  # it survives into the oldest generation
    del cycle
    assert dropped() is not None  # only a full collection frees it now
    load_sales_database(row_scale=0.001)
    assert dropped() is None


def test_gc_pause_keeps_a_disabled_caller_disabled(collections):
    gc.disable()
    try:
        load_sales_fleet(2, seed=5)
        load_sales_database(row_scale=0.002)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert collections == []


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_pause_restores_the_callers_state_when_the_load_raises(enabled, monkeypatch):
    def refuse(table, rows):
        raise EngineError("load needs an empty table")

    monkeypatch.setattr(Table, "load", refuse)
    if not enabled:
        gc.disable()
    try:
        with pytest.raises(EngineError, match="load needs an empty table"):
            DataGenerator(1, 0.001).populate(Database("refused"))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_gc_pause_dropped_unfinished_reenables():
    pause = gc_paused()
    pause.__enter__()
    assert not gc.isenabled()
    del pause  # closes the generator: its finally runs
    assert gc.isenabled()
