"""A restart restores each table's checkpoint image exactly once.

No timing: the guard counts ``Table.restore_snapshot`` calls.  The
restore (page clones + index build) is what a restart costs beyond log
replay, and a second one per restart is pure waste that no result shows.
"""

import pytest

from repro.engine.table import Table
from repro.shard import ShardSalesWorkload, load_sales_fleet

from tests.ha.test_failover import LEASE, ha_fleet, write_pair


@pytest.fixture
def restores(monkeypatch):
    """The tables restored since the last ``clear()``, in call order."""
    calls = []
    restore_snapshot = Table.restore_snapshot

    def counted(table, snapshot):
        calls.append(table.name)
        restore_snapshot(table, snapshot)

    monkeypatch.setattr(Table, "restore_snapshot", counted)
    return calls


def test_fleet_restart_restores_each_table_once(restores):
    fleet, _data = load_sales_fleet(2, seed=5)
    workload = ShardSalesWorkload(fleet, cross_ratio=0.5, seed=5)
    for _ in range(20):
        workload.run_one()
    once = fleet.n_shards * len(fleet.shards[0].table_names)
    before = [shard.content_hash() for shard in fleet.shards]

    fleet.crash()
    fleet.recover()
    assert len(restores) == once
    assert [shard.content_hash() for shard in fleet.shards] == before

    # never crashed (the previous recovery is over): recover() resets it
    restores.clear()
    fleet.recover()
    assert len(restores) == once

    # and resets again: idempotence is not bought by skipping the reset
    restores.clear()
    fleet.recover()
    assert len(restores) == once
    assert [shard.content_hash() for shard in fleet.shards] == before


def test_promotion_restores_each_standby_table_once(restores):
    fleet, pairs = ha_fleet()
    write_pair(fleet, pairs, 41)
    fleet.kill_primary(0)
    fleet.advance(2 * LEASE.lease_s)
    assert fleet.groups[0].failovers == 1
    assert sorted(restores) == sorted(fleet.shards[0].table_names)
