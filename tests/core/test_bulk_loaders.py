"""Every loader against its old per-row loop.

Each loader fills its tables with one :meth:`Table.load` per table.  The
loops below are what they did before, one ``insert_row`` per row, kept
as oracles: at each loader's pinned seed both give the same heap slot
by slot, the same ``RowId`` s, index maps, counters and checkpoint, and
so the same ``content_hash()``.
"""

import random

import pytest

from repro.baselines.sysbench import create_sysbench_schema, load_sysbench
from repro.baselines.tpcc import (
    CUSTOMERS_PER_DISTRICT,
    DISTRICTS_PER_WAREHOUSE,
    ITEMS,
    create_tpcc_schema,
    load_tpcc,
)
from repro.baselines.ycsb import FIELD_COUNT, USERTABLE, load_ycsb
from repro.core.datagen import DataGenerator, load_sales_database
from repro.core.microservices import (
    COMPONENTS_PER_PRODUCT,
    PRODUCTS,
    WAREHOUSES,
    create_extended_schema,
    load_extended,
)
from repro.core.schema import create_sales_schema
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BackupJob
from repro.dr.restore import RestoreJob
from repro.engine.database import Database
from repro.ha.replication import bootstrap_standby
from repro.shard import ShardSalesWorkload, load_sales_fleet, load_sales_shard
from repro.shard.fleet import sales_router

from tests.engine.test_table import physical_state


def database_state(db):
    return (
        db.content_hash(),
        {name: physical_state(db.table(name)) for name in db.table_names},
        db.checkpoint_lsn,
        db.wal.last_lsn,
        {name: (image.rows, sorted(image.vacated))
         for name, image in db._checkpoint_snapshots.items()},
    )


# -- the sales loaders ---------------------------------------------------------


def sales_rows(seed, row_scale):
    for table_name, rows in DataGenerator(1, row_scale, seed).iter_tables():
        for row in rows:
            yield table_name, row


def test_load_sales_database_matches_one_insert_per_row():
    db, _data = load_sales_database(row_scale=0.002, seed=42)
    oracle = Database("primary")
    create_sales_schema(oracle)
    for table_name, row in sales_rows(42, 0.002):
        oracle.table(table_name).insert_row(row)
    assert database_state(db) == database_state(oracle)


def routed_one_row_at_a_time(n_shards, seed, row_scale=0.002):
    """``load_sales_fleet`` / ``load_sales_shard`` as they were: each row
    routed by ``shard_for`` of its partition column, then inserted."""
    router = sales_router(n_shards)
    shards = [Database(f"oracle-{shard_id}") for shard_id in range(n_shards)]
    for shard in shards:
        create_sales_schema(shard)
    for table_name, row in sales_rows(seed, row_scale):
        schema = shards[0].table(table_name).schema
        column = schema.column_index(router.partition_column(table_name))
        shard_id = router.shard_for(table_name, row[column])
        shards[shard_id].table(table_name).insert_row(row)
    for shard in shards:
        shard.checkpoint()
    return shards


def test_fleet_and_shard_loaders_match_the_per_row_routing():
    fleet, _data = load_sales_fleet(2, seed=5)
    oracle = routed_one_row_at_a_time(2, seed=5)
    for shard_id, (shard, expected) in enumerate(zip(fleet.shards, oracle)):
        assert database_state(shard) == database_state(expected)
        alone = load_sales_shard(shard_id, 2, seed=5)
        assert database_state(alone) == database_state(expected)


# -- the baseline and extended-service loaders ---------------------------------


def tpcc_one_row_at_a_time(db, warehouses, customer_scale, item_scale, seed):
    create_tpcc_schema(db)
    rng = random.Random(seed)
    customers = max(3, int(CUSTOMERS_PER_DISTRICT * customer_scale))
    items = max(10, int(ITEMS * item_scale))
    now = 1_700_000_000.0
    for i_id in range(1, items + 1):
        db.table("ITEM").insert_row((i_id, f"item-{i_id:06d}", round(rng.uniform(1, 100), 2)))
    for w_id in range(1, warehouses + 1):
        db.table("WAREHOUSE").insert_row((w_id, f"W{w_id}", 0.08, 300_000.0))
        for i_id in range(1, items + 1):
            db.table("STOCK").insert_row(
                (db.table("STOCK").next_autoincrement(), i_id, w_id,
                 rng.randint(10, 100), 0, 0)
            )
        for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            db.table("DISTRICT").insert_row(
                (db.table("DISTRICT").next_autoincrement(), d_id, w_id,
                 0.09, 30_000.0, customers + 1)
            )
            for c_id in range(1, customers + 1):
                c_key = db.table("CUSTOMER").next_autoincrement()
                db.table("CUSTOMER").insert_row(
                    (c_key, c_id, d_id, w_id, f"LAST{c_id:04d}", -10.0, 10.0, 1, 0)
                )
                o_key = db.table("ORDERS").next_autoincrement()
                db.table("ORDERS").insert_row(
                    (o_key, c_id, d_id, w_id, c_id, rng.randint(1, 10), 5, now)
                )
                for number in range(1, 6):
                    db.table("ORDER_LINE").insert_row(
                        (db.table("ORDER_LINE").next_autoincrement(),
                         c_id, d_id, w_id, number, rng.randint(1, items),
                         5, round(rng.uniform(1, 100), 2))
                    )


def ycsb_one_row_at_a_time(db, records, seed):
    db.create_table(USERTABLE)
    rng = random.Random(seed)
    for key in range(1, records + 1):
        db.table("USERTABLE").insert_row((
            key,
            *(f"f{field}-{key}-{rng.randint(0, 999999):06d}"
              for field in range(FIELD_COUNT)),
        ))


def sysbench_one_row_at_a_time(db, tables, rows, seed):
    create_sysbench_schema(db, tables)
    rng = random.Random(seed)
    for index in range(1, tables + 1):
        for row_id in range(1, rows + 1):
            db.table(f"SBTEST{index}").insert_row((
                row_id,
                rng.randint(1, rows),
                f"c-{row_id:012d}-{rng.randint(0, 999999):06d}",
                f"pad-{row_id:08d}",
            ))


def extended_one_row_at_a_time(db, row_scale, seed):
    create_extended_schema(db)
    rng = random.Random(seed)
    products = max(30, int(PRODUCTS * row_scale))
    now = 1_700_000_000.0
    for p_id in range(1, products + 1):
        db.table("PRODUCT").insert_row(
            (p_id, f"Product#{p_id:06d}", round(rng.uniform(1, 500), 2))
        )
    i_id = 0
    for p_id in range(1, products + 1):
        for warehouse in range(1, WAREHOUSES + 1):
            i_id += 1
            db.table("INVENTORY").insert_row(
                (i_id, p_id, warehouse, rng.randint(0, 500), now)
            )
    b_id = 0
    for p_id in range(1, products + 1):
        for _ in range(COMPONENTS_PER_PRODUCT):
            b_id += 1
            db.table("BOM").insert_row(
                (b_id, p_id, rng.randint(1, products), rng.randint(1, 4))
            )


@pytest.mark.parametrize("load, oracle", [
    (lambda db: load_tpcc(db, 2, 0.003, 0.003),
     lambda db: tpcc_one_row_at_a_time(db, 2, 0.003, 0.003, seed=42)),
    (lambda db: load_ycsb(db, records=200),
     lambda db: ycsb_one_row_at_a_time(db, 200, seed=42)),
    (lambda db: load_sysbench(db, tables=2, rows=100),
     lambda db: sysbench_one_row_at_a_time(db, 2, 100, seed=42)),
    (lambda db: load_extended(db, row_scale=0.002),
     lambda db: extended_one_row_at_a_time(db, 0.002, seed=42)),
], ids=["tpcc", "ycsb", "sysbench", "extended"])
def test_baseline_loaders_match_one_insert_per_row(load, oracle):
    loaded, expected = Database("loaded"), Database("expected")
    load(loaded)
    oracle(expected)
    assert database_state(loaded) == database_state(expected)


# -- copies: clone, standby bootstrap, restore ----------------------------------


def worked_fleet():
    """A loaded fleet after traffic (inserted, updated, deleted rows:
    vacated slots a copy must not reproduce) with its archive attached."""
    fleet, _data = load_sales_fleet(2, seed=5)
    archiver = FleetArchiver(fleet, mode="sync")
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(40):
        workload.run_one()
    for shard in fleet.shards:
        shard.execute("DELETE FROM orderline WHERE OL_ID < 40")
    return fleet, archiver


def copied_one_row_at_a_time(source, name):
    copy = source.clone_schema(name)
    for table_name in source.table_names:
        for _rid, row in source.table(table_name).scan():
            copy.table(table_name).insert_row(row)
    return copy


def test_clone_full_and_bootstrap_standby_match_the_per_row_copy():
    fleet, _archiver = worked_fleet()
    shard = fleet.shards[1]
    assert any(table._vacated for table in map(shard.table, shard.table_names))
    expected = copied_one_row_at_a_time(shard, "copy")
    assert database_state(shard.clone_full("copy")) == database_state(expected)
    expected.install_checkpoint(shard.wal.last_lsn)
    assert database_state(bootstrap_standby(shard)) == database_state(expected)


def test_restore_loads_each_image_as_the_per_row_loop_did():
    fleet, archiver = worked_fleet()
    manifest = BackupJob(fleet, archiver).run()
    for shard_backup in manifest.shards:
        loaded = Database("loaded")
        assert RestoreJob._load_shard(loaded, shard_backup) == shard_backup.rows
        expected = Database("expected")
        expected.reset_for_restore()
        for image in shard_backup.tables:
            table = expected.create_table(image.schema)
            for name, columns, unique, ordered in image.indexes:
                expected.create_index(
                    image.schema.table, name, columns, unique=unique, ordered=ordered
                )
            for row in image.rows:
                table.insert_row(row)
        expected.install_checkpoint(shard_backup.barrier_lsn)
        assert database_state(loaded) == database_state(expected)
