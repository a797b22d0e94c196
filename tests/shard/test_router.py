"""Routing and the fleet's SQL surface (fast path + scatter-gather)."""

import pytest

from repro.engine.database import Database
from repro.engine.errors import DuplicateKeyError
from repro.engine.types import Column, ColumnType, Schema
from repro.shard import (
    ShardedDatabase,
    ShardError,
    ShardRouter,
    load_sales_fleet,
    stable_hash,
)


def fleet_rows(fleet):
    return sum(shard.total_rows() for shard in fleet.shards)


def kv_schema():
    return Schema(
        "KV",
        (
            Column("K", ColumnType.INT, nullable=False),
            Column("V", ColumnType.INT, default=0),
            Column("W", ColumnType.INT),
        ),
        primary_key="K",
    )


def kv_fleet(n_shards=2, **kwargs):
    fleet = ShardedDatabase(n_shards, **kwargs)
    fleet.create_table(kv_schema())
    return fleet


def keys_on(fleet, shard_id, count, start=0):
    """The first ``count`` integer keys owned by ``shard_id``."""
    found, key = [], start
    while len(found) < count:
        if fleet.router.shard_for("KV", key) == shard_id:
            found.append(key)
        key += 1
    return found


class TestStableHash:
    def test_deterministic_per_value(self):
        assert stable_hash(42) == stable_hash(42)
        assert stable_hash("abc") == stable_hash("abc")

    def test_distinguishes_values(self):
        hashes = {stable_hash(k) for k in range(100)}
        assert len(hashes) == 100

    def test_spreads_keys_over_shards(self):
        router = ShardRouter(4)
        router.register("KV", "K")
        owners = [router.shard_for("KV", k) for k in range(400)]
        for shard in range(4):
            assert owners.count(shard) > 50  # no starved shard


class TestShardRouter:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ShardError):
            ShardRouter(0)

    def test_unregistered_table_raises(self):
        router = ShardRouter(2)
        with pytest.raises(ShardError):
            router.shard_for("KV", 1)

    def test_split_rows_uses_partition_column(self):
        router = ShardRouter(3)
        router.register("KV", "W")  # partition by a non-pk column
        rows = [(k, 2, 70 + k % 9) for k in range(60)]
        buckets = router.split_rows(kv_schema(), iter(rows))
        assert buckets == [
            [row for row in rows if router.shard_for("KV", row[2]) == shard]
            for shard in range(3)
        ]
        assert all(buckets)
        with pytest.raises(ShardError):
            ShardRouter(2).split_rows(kv_schema(), rows)

    def test_routes_pk_equality_select(self):
        fleet = kv_fleet(4)
        prepared = fleet.shards[0].prepare("SELECT * FROM kv WHERE K = ?")
        shard = fleet.router.route_prepared(prepared, [17])
        assert shard == fleet.router.shard_for("KV", 17)

    def test_non_partition_predicates_fan_out(self):
        fleet = kv_fleet(4)
        for sql, params in (
            ("SELECT * FROM kv", []),
            ("SELECT * FROM kv WHERE V = ?", [1]),
            ("SELECT * FROM kv WHERE K > ?", [1]),  # range, not equality
            ("UPDATE kv SET V = ? WHERE V = ?", [1, 2]),
            ("DELETE FROM kv WHERE W = ?", [3]),
        ):
            prepared = fleet.shards[0].prepare(sql)
            assert fleet.router.route_prepared(prepared, params) is None

    def test_insert_routes_by_partition_value(self):
        fleet = kv_fleet(4)
        for sql, params in (
            ("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 1]),
            ("INSERT INTO kv VALUES (9, 1, 2)", []),
        ):
            prepared = fleet.shards[0].prepare(sql)
            assert fleet.router.route_prepared(
                prepared, params
            ) == fleet.router.shard_for("KV", 9)

    def test_insert_without_partition_value_raises(self):
        fleet = kv_fleet(4)
        prepared = fleet.shards[0].prepare("INSERT INTO kv (V, W) VALUES (?, ?)")
        with pytest.raises(ShardError):
            fleet.router.route_prepared(prepared, [1, 2])


def loaded_kv(n_shards=3, rows=30):
    """A fleet and one engine holding the same KV rows."""
    fleet = kv_fleet(n_shards)
    reference = Database("ref")
    reference.create_table(kv_schema())
    for k in range(rows):
        w = None if k % 5 == 0 else k * 10
        fleet.execute("INSERT INTO kv VALUES (?, ?, ?)", [k, k % 7, w])
        reference.execute("INSERT INTO kv VALUES (?, ?, ?)", [k, k % 7, w])
    return fleet, reference


class TestFleetSql:
    def test_rows_are_spread_and_complete(self):
        fleet, reference = loaded_kv()
        assert fleet_rows(fleet) == reference.total_rows()
        assert all(shard.total_rows() > 0 for shard in fleet.shards)
        assert fleet.all_rows("KV") == sorted(
            row for _rid, row in reference.table("KV").scan()
        )

    def test_point_read_matches_reference(self):
        fleet, reference = loaded_kv()
        for k in (0, 7, 29):
            assert (
                fleet.query("SELECT V FROM kv WHERE K = ?", [k]).rows
                == reference.query("SELECT V FROM kv WHERE K = ?", [k]).rows
            )

    def test_fanout_aggregates_merge(self):
        fleet, reference = loaded_kv()
        for sql in (
            "SELECT COUNT(*) FROM kv",
            "SELECT SUM(V) FROM kv",
            "SELECT MIN(V), MAX(V) FROM kv",
            "SELECT COUNT(*), SUM(K) FROM kv WHERE V = 3",
        ):
            assert fleet.query(sql).rows == reference.query(sql).rows

    def test_fanout_order_by_limit_nulls_last(self):
        fleet, reference = loaded_kv()
        sql = "SELECT K, W FROM kv ORDER BY W DESC LIMIT 7"
        assert fleet.query(sql).rows == reference.query(sql).rows
        sql = "SELECT K, W FROM kv ORDER BY W"
        got = fleet.query(sql).rows
        want = reference.query(sql).rows
        # NULL ties carry no defined order; compare the tail as a set
        assert got[:-6] == want[:-6]
        assert set(got[-6:]) == set(want[-6:])
        assert all(row[1] is None for row in got[-6:])  # NULLS LAST

    def test_fanout_group_by_raises(self):
        fleet, _ = loaded_kv()
        with pytest.raises(ShardError):
            fleet.query("SELECT V, COUNT(*) FROM kv GROUP BY V")

    def test_fanout_order_by_unprojected_column_raises(self):
        fleet, _ = loaded_kv()
        with pytest.raises(ShardError):
            fleet.query("SELECT K FROM kv ORDER BY W")

    def test_count_distinct_is_not_decomposable(self):
        fleet, _ = loaded_kv()
        with pytest.raises(ShardError):
            fleet.query("SELECT COUNT(DISTINCT V) FROM kv")

    def test_query_rejects_writes(self):
        fleet, _ = loaded_kv()
        with pytest.raises(ShardError):
            fleet.query("DELETE FROM kv WHERE K = 1")

    def test_routed_statement_probes_the_plan_cache_once(self):
        fleet, _ = loaded_kv()
        shard0 = fleet.shards[0]
        for run in (fleet.query, fleet.execute):
            for k in (0, 7, 29):
                probes = shard0.plan_cache_hits + shard0.plan_cache_misses
                assert run("SELECT V FROM kv WHERE K = ?", [k]).rowcount == 1
                assert shard0.plan_cache_hits + shard0.plan_cache_misses == probes + 1

    def test_fanout_update_applies_everywhere(self):
        fleet, reference = loaded_kv()
        fleet.execute("UPDATE kv SET V = V + ? WHERE V = ?", [100, 3])
        reference.execute("UPDATE kv SET V = V + ? WHERE V = ?", [100, 3])
        assert fleet.all_rows("KV") == sorted(
            row for _rid, row in reference.table("KV").scan()
        )

    def test_fanout_delete_applies_everywhere(self):
        fleet, reference = loaded_kv()
        assert (
            fleet.execute("DELETE FROM kv WHERE V = ?", [2]).rowcount
            == reference.execute("DELETE FROM kv WHERE V = ?", [2]).rowcount
        )
        assert fleet_rows(fleet) == reference.total_rows()


def kv_rows(db):
    return sorted(db.query("SELECT K, V, W FROM kv").rows)


def equal_keys(k):
    """Values the engine's equality matches with the INT key ``k``, and
    its string, which matches nothing."""
    return [k, float(k), str(k)] + ([True] if k == 1 else []) + ([False] if k == 0 else [])


class TestKeyEquality:
    """The fleet finds a key wherever one engine would: a WHERE value
    routes as the stored key it equals, an INSERT as it will be stored."""

    @pytest.mark.parametrize("value", [*equal_keys(0), *equal_keys(1), *equal_keys(2), 7.0, 13.0])
    def test_point_statements_match_one_engine(self, value):
        fleet, reference = loaded_kv(2)
        for sql in (
            "SELECT K, V FROM kv WHERE K = ?",
            "UPDATE kv SET V = V + 100 WHERE K = ?",
            "SELECT K, V FROM kv WHERE K = ?",
            "DELETE FROM kv WHERE K = ?",
        ):
            got, want = fleet.execute(sql, [value]), reference.execute(sql, [value])
            assert (got.rows, got.rowcount) == (want.rows, want.rowcount), sql
        assert kv_rows(fleet) == kv_rows(reference)

    def test_literal_float_key_routes_like_the_int(self):
        fleet, reference = loaded_kv(2)
        for k in range(30):
            sql = f"SELECT K, V FROM kv WHERE K = {float(k)}"
            assert fleet.query(sql).rows == reference.query(sql).rows == [(k, k % 7)]

    def test_float_key_insert_lands_on_the_owner(self):
        fleet = kv_fleet(2)
        key = next(k for k in range(1000, 2000) if stable_hash(k) % 2 != stable_hash(float(k)) % 2)
        fleet.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [float(key), 1])
        owner = fleet.router.shard_for("KV", key)
        assert fleet.shards[owner].query("SELECT K FROM kv").rows == [(key,)]
        assert fleet.shards[1 - owner].total_rows() == 0
        with pytest.raises(DuplicateKeyError):
            fleet.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, 2])
        assert fleet_rows(fleet) == 1

    def test_decimal_partition_key_hashes_as_stored(self):
        schema = Schema(
            "PRICES",
            (Column("P", ColumnType.DECIMAL, nullable=False), Column("Q", ColumnType.INT)),
            primary_key="P",
        )
        fleet = ShardedDatabase(2)
        fleet.create_table(schema)
        for p in range(20):
            fleet.execute("INSERT INTO prices VALUES (?, ?)", [p, p])  # stored as float(p)
        for p in range(20):
            for value in (p, float(p)):
                assert fleet.query("SELECT Q FROM prices WHERE P = ?", [value]).rows == [(p,)]


def test_every_loaded_row_routes_to_the_shard_holding_it():
    fleet, _data = load_sales_fleet(3, row_scale=0.001, seed=9)
    for table in fleet.shards[0].table_names:
        column = fleet.router.partition_column(table)
        prepared = fleet.shards[0].prepare(f"SELECT * FROM {table} WHERE {column} = ?")
        position = prepared.table.schema.column_index(column)
        for shard_id, shard in enumerate(fleet.shards):
            for _rid, row in shard.table(table).scan():
                value = row[position]
                for probe in [value, float(value)] + ([True] if value == 1 else []):
                    assert fleet.router.route_prepared(prepared, [probe]) == shard_id
