"""Lease detection, promotion, restart fallback, and statement gating."""

import pytest

from repro.engine.errors import ShardUnavailableError
from repro.ha.cluster import HAFleet
from repro.ha.lease import LeaseConfig
from repro.ha.workload import SELECT_STAMP, UPDATE_STAMP, build_pairs_fleet
from repro.sim.events import VirtualClock

LEASE = LeaseConfig(lease_s=0.5, heartbeat_s=0.1)


def ha_fleet(**kwargs):
    kwargs.setdefault("lease", LEASE)
    fleet, pairs = build_pairs_fleet(n_shards=2, fleet_cls=HAFleet, **kwargs)
    fleet.start_replication()
    return fleet, pairs


def write_pair(fleet, pairs, stamp, pair=0):
    gtxn = fleet.begin()
    for row in pairs[pair]:
        fleet.execute(UPDATE_STAMP, [stamp, row], gtxn=gtxn)
    gtxn.commit()


class TestDetection:
    def test_live_primary_never_fails_over(self):
        fleet, _pairs = ha_fleet()
        fleet.advance(10 * LEASE.lease_s)
        assert all(g.failovers == 0 and g.restarts == 0 for g in fleet.groups.values())

    def test_dead_primary_detected_after_lease(self):
        fleet, _pairs = ha_fleet()
        fleet.kill_primary(0)
        # inside the lease: not yet detected
        fleet.advance(LEASE.lease_s * 0.5)
        assert fleet.groups[0].failovers == 0
        # poll on the heartbeat cadence: detection lands at the first
        # look past expiry, bounded by lease + one polling interval
        for _ in range(20):
            fleet.advance(LEASE.heartbeat_s)
        group = fleet.groups[0]
        assert group.failovers == 1
        assert group.epoch == 2
        killed, detected, served = group.outages[0]
        assert killed <= detected <= served
        assert detected - killed <= LEASE.lease_s + LEASE.heartbeat_s + 1e-9

    def test_promotion_preserves_acked_commits(self):
        fleet, pairs = ha_fleet()
        write_pair(fleet, pairs, 41)
        write_pair(fleet, pairs, 42)
        fleet.kill_primary(0)
        fleet.advance(2 * LEASE.lease_s)
        fleet.advance(1.0)  # let the modelled replay window lapse
        for row in pairs[0]:
            assert fleet.execute(SELECT_STAMP, [row]).rows[0][0] == 42

    def test_stale_standby_falls_back_to_restart(self):
        fleet, pairs = ha_fleet()
        write_pair(fleet, pairs, 9)
        fleet.kill_standby(0)
        write_pair(fleet, pairs, 10)  # the standby misses this commit
        fleet.kill_primary(0)
        fleet.advance(2 * LEASE.lease_s)
        group = fleet.groups[0]
        # never promote a standby that is missing acked records
        assert group.failovers == 0
        assert group.restarts == 1
        fleet.advance(1.0)
        for row in pairs[0]:
            assert fleet.execute(SELECT_STAMP, [row]).rows[0][0] == 10


class TestStatementGating:
    def test_statements_rejected_until_served_at(self):
        fleet, pairs = ha_fleet()
        # commit something first: the promoted standby then has a log
        # suffix to replay, so the modelled outage window is non-empty
        for stamp in range(1, 6):
            write_pair(fleet, pairs, stamp)
        fleet.kill_primary(0)
        fleet.advance(2 * LEASE.lease_s)
        group = fleet.groups[0]
        assert group.down_until is not None and group.down_until > fleet.clock.now
        row = next(
            r for pair in pairs for r in pair
            if fleet.router.shard_for("PAIRS", r) == 0
        )
        with pytest.raises(ShardUnavailableError) as exc:
            fleet.execute(SELECT_STAMP, [row])
        assert exc.value.retryable
        # once virtual time passes the modelled replay, service resumes
        # -- with every acked commit intact on the promoted standby
        fleet.advance(group.down_until - fleet.clock.now + 1e-9)
        assert fleet.execute(SELECT_STAMP, [row]).rows[0][0] == 5
        assert group.down_until is None

    def test_gating_is_per_shard(self):
        fleet, pairs = ha_fleet()
        fleet.kill_primary(0)
        fleet.advance(2 * LEASE.lease_s)
        row_on_1 = next(
            r for pair in pairs for r in pair
            if fleet.router.shard_for("PAIRS", r) == 1
        )
        # shard 1 never went down; it serves right through the failover
        assert fleet.execute(SELECT_STAMP, [row_on_1]).rows[0][0] == 0


class TestSharedClock:
    def test_external_clock_is_used(self):
        clock = VirtualClock()
        clock.advance(5.0)
        fleet, _pairs = ha_fleet(clock=clock)
        assert fleet.clock is clock
        fleet.advance(1.0)
        assert clock.now == 6.0

    def test_replication_cannot_start_twice(self):
        fleet, _pairs = ha_fleet()
        from repro.engine.errors import EngineError

        with pytest.raises(EngineError, match="already started"):
            fleet.start_replication()
