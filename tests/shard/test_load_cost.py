"""What a load costs, as counts: no timing anywhere in this file.

A loader, a standby bootstrap and a restore's image load fill each table
with one bulk :meth:`Table.load`: no ``Table.insert_row`` (the live
write path: a uniqueness probe, a page search and one index insert per
index, per row), no ``HashIndex.insert`` and exactly one ``rebuild`` of
every index -- the build a checkpoint restore uses.
"""

from collections import Counter

import pytest

from repro.core.datagen import load_sales_database
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BackupJob
from repro.dr.restore import RestoreJob
from repro.engine.index import HashIndex
from repro.engine.table import Table
from repro.ha.replication import bootstrap_standby
from repro.shard import ShardSalesWorkload, load_sales_fleet


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
    # the restart that replays the archive restores each image once more
    # (tests/shard/test_restart_cost.py) and moves no key
    assert calls == Counter({index: 2 for index in indexes_of(restored.shards)})
