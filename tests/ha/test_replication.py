"""WAL shipping: bootstrap, both ack modes, and clean disconnects."""

import pytest

from repro.engine.errors import EngineError
from repro.ha.lease import LeaseConfig
from repro.ha.replication import WalShipper, bootstrap_standby
from repro.ha.workload import SELECT_STAMP, UPDATE_STAMP, build_pairs_fleet
from repro.ha.cluster import HAFleet
from repro.sim.events import VirtualClock


def ha_fleet(n_pairs=3, **kwargs):
    fleet, pairs = build_pairs_fleet(
        n_shards=2, n_pairs=n_pairs, fleet_cls=HAFleet, **kwargs
    )
    fleet.start_replication()
    return fleet, pairs


def stamp_on(db, row_id):
    return db.execute(SELECT_STAMP, [row_id]).rows[0][0]


class TestBootstrap:
    def test_standby_starts_with_primary_rows(self):
        fleet, pairs = ha_fleet()
        for shard_id, group in fleet.groups.items():
            for row_id in (row for pair in pairs for row in pair):
                if fleet.router.shard_for("PAIRS", row_id) != shard_id:
                    continue
                assert stamp_on(group.standby, row_id) == 0

    def test_standby_wal_continues_primary_lsns(self):
        fleet, _pairs = ha_fleet()
        group = fleet.groups[0]
        before = group.primary.wal.last_lsn
        fleet.execute(UPDATE_STAMP, [1, _first_row_of(fleet, 0, _pairs)])
        assert group.primary.wal.last_lsn > before
        # every record appended after the bootstrap arrived verbatim
        assert group.standby.wal.last_lsn == group.primary.wal.last_lsn

    def test_bootstrap_requires_quiesced_primary(self):
        fleet, pairs = build_pairs_fleet(n_shards=2, n_pairs=2)
        gtxn = fleet.begin()
        fleet.execute(UPDATE_STAMP, [1, pairs[0][0]], gtxn=gtxn)
        shard = fleet.router.shard_for("PAIRS", pairs[0][0])
        with pytest.raises(EngineError, match="quiesced"):
            bootstrap_standby(fleet.shards[shard])
        gtxn.rollback()

    def test_double_attach_rejected(self):
        fleet, _pairs = ha_fleet()
        group = fleet.groups[0]
        with pytest.raises(EngineError, match="already has a shipper"):
            WalShipper(group.primary, group.standby)


def _first_row_of(fleet, shard_id, pairs):
    for row_a, row_b in pairs:
        for row in (row_a, row_b):
            if fleet.router.shard_for("PAIRS", row) == shard_id:
                return row
    raise AssertionError(f"no pair row on shard {shard_id}")


class TestShipping:
    @pytest.mark.parametrize("mode", ["sync", "semisync"])
    def test_acked_commit_is_durable_on_standby(self, mode):
        fleet, pairs = ha_fleet(ack_mode=mode)
        gtxn = fleet.begin()
        fleet.execute(UPDATE_STAMP, [7, pairs[0][0]], gtxn=gtxn)
        fleet.execute(UPDATE_STAMP, [7, pairs[0][1]], gtxn=gtxn)
        gtxn.commit()
        # the shipped log replays to the same state the primary holds
        for group in fleet.groups.values():
            assert group.shipper.is_fresh
            group.shipper.detach()
            group.standby.crash()
            group.standby.recover()
        for row in pairs[0]:
            shard = fleet.router.shard_for("PAIRS", row)
            assert stamp_on(fleet.groups[shard].standby, row) == 7

    def test_semisync_ships_the_same_records(self):
        sync_fleet, pairs = ha_fleet(ack_mode="sync")
        semi_fleet, _ = ha_fleet(ack_mode="semisync")
        for fleet in (sync_fleet, semi_fleet):
            gtxn = fleet.begin()
            fleet.execute(UPDATE_STAMP, [3, pairs[0][0]], gtxn=gtxn)
            fleet.execute(UPDATE_STAMP, [3, pairs[0][1]], gtxn=gtxn)
            gtxn.commit()
        for sync_group, semi_group in zip(
            sync_fleet.groups.values(), semi_fleet.groups.values()
        ):
            # buffering changes the batching, never the records: the
            # standby logs end at the same LSN with nothing pending
            assert semi_group.shipper.shipped == sync_group.shipper.shipped
            assert (
                semi_group.standby.wal.last_lsn
                == sync_group.standby.wal.last_lsn
            )
            assert semi_group.shipper._buffer == []


    @pytest.mark.parametrize("mode", ["sync", "semisync"])
    def test_standby_counts_the_fsyncs_its_primary_counts(self, mode):
        """Readers are free on both nodes, writers cost both the same:
        the standby applies the primary's durability rule to the
        shipped stream, whichever way the stream is batched."""
        fleet, pairs = ha_fleet(ack_mode=mode)
        groups = list(fleet.groups.values())
        before = [(g.primary.wal.fsyncs, g.standby.wal.fsyncs) for g in groups]
        row_a, row_b = pairs[0]
        with fleet.begin() as gtxn:  # two writers: full 2PC
            fleet.execute(UPDATE_STAMP, [5, row_a], gtxn=gtxn)
            fleet.execute(UPDATE_STAMP, [5, row_b], gtxn=gtxn)
        with fleet.begin() as gtxn:  # a writer and a reader: one-phase
            fleet.execute(UPDATE_STAMP, [6, row_a], gtxn=gtxn)
            fleet.query(SELECT_STAMP, [row_b], gtxn=gtxn)
        with fleet.begin() as gtxn:  # two readers: nothing to flush
            fleet.query(SELECT_STAMP, [row_a], gtxn=gtxn)
            fleet.query(SELECT_STAMP, [row_b], gtxn=gtxn)
        fleet.query(SELECT_STAMP, [row_a])  # autocommit read
        paid = [
            (g.primary.wal.fsyncs - p, g.standby.wal.fsyncs - s)
            for g, (p, s) in zip(groups, before)
        ]
        # the 2PC pays 1 on shard 0, its last agent (DECISION), and 1 on
        # shard 1 (PREPARE; its DECISION behind it is no flush); neither
        # COMMIT flushes.  The one-phase write pays its COMMIT on row_a's
        # shard.
        expected = [1, 1]
        expected[fleet.router.shard_for("PAIRS", row_a)] += 1
        assert paid == [(n, n) for n in expected]
        assert all(g.shipper.is_fresh for g in groups)


class TestDisconnect:
    def test_standby_death_never_fails_the_primary(self):
        fleet, pairs = ha_fleet()
        victim = fleet.router.shard_for("PAIRS", pairs[0][0])
        fleet.kill_standby(victim)
        # the primary keeps serving; the shipper absorbs the loss
        fleet.execute(UPDATE_STAMP, [5, pairs[0][0]])
        group = fleet.groups[victim]
        assert not group.shipper.connected
        assert group.shipper.lost > 0
        assert not group.standby_fresh

    def test_lost_counts_semisync_buffer(self):
        fleet, pairs = ha_fleet(ack_mode="semisync")
        victim = fleet.router.shard_for("PAIRS", pairs[0][0])
        fleet.kill_standby(victim)
        fleet.execute(UPDATE_STAMP, [5, pairs[0][0]])
        group = fleet.groups[victim]
        # the whole failed batch counts, including buffered data records
        assert group.shipper.lost >= 2  # UPDATE + COMMIT at minimum

    def test_resync_restores_freshness(self):
        fleet, pairs = ha_fleet()
        victim = fleet.router.shard_for("PAIRS", pairs[0][0])
        fleet.kill_standby(victim)
        fleet.execute(UPDATE_STAMP, [5, pairs[0][0]])
        fleet.resync(victim)
        group = fleet.groups[victim]
        assert group.standby_fresh
        assert stamp_on(group.standby, pairs[0][0]) == 5

    def test_detach_clears_hook_only_if_owned(self):
        fleet, pairs = ha_fleet()
        victim = fleet.router.shard_for("PAIRS", pairs[0][0])
        group = fleet.groups[victim]
        old_shipper = group.shipper
        fleet.resync(victim)  # replaces the shipper
        assert group.shipper is not old_shipper
        # detaching the stale shipper again must not unhook the new one
        old_shipper.detach()
        listeners = group.primary.wal.append_listeners
        assert listeners.count(group.shipper._on_record) == 1
        assert old_shipper._on_record not in listeners
        fleet.execute(UPDATE_STAMP, [5, pairs[0][0]])
        assert group.standby_fresh
        assert group.standby.wal.last_lsn == group.primary.wal.last_lsn


class TestClockAndLease:
    def test_clock_rejects_negative_advance(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_lease_config_validation(self):
        with pytest.raises(ValueError):
            LeaseConfig(lease_s=0.1, heartbeat_s=0.1)
        with pytest.raises(ValueError):
            LeaseConfig(lease_s=-1.0)

    def test_renewals_coalesce_to_heartbeat(self):
        from repro.ha.lease import LeaderLease

        lease = LeaderLease(LeaseConfig(lease_s=0.5, heartbeat_s=0.1), now=0.0)
        assert lease.renew(0.0)
        assert not lease.renew(0.05)  # inside the heartbeat window
        assert lease.renew(0.11)
        assert not lease.expired(0.6)
        assert lease.expired(0.61 + 0.001)
