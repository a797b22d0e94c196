"""Retried commits are idempotent by gtid.

The regression: a client whose first commit lost its ack to a
coordinator crash replays the transaction under the same gtid.  The
writes are arithmetic (``V = V + 10``), so re-applying them is visible
-- without the DECISION-union check in ``commit_many`` the retry would
double-apply on every shard.
"""

import pytest

from repro.engine.errors import SimulatedCrash
from repro.shard import CoordinatorCrash

from tests.shard.test_2pc import load_keys, value_of
from tests.shard.test_router import kv_fleet

INCREMENT = "UPDATE kv SET V = V + ? WHERE K = ?"


def crashed_commit(fleet, by_shard, phase):
    """Drive one increment on every shard into a coordinator crash at
    ``phase``; returns the gtid the client would retry with."""
    fleet.coordinator.arm_crash(phase)
    gtxn = fleet.begin()
    for keys in by_shard:
        fleet.execute(INCREMENT, [10, keys[0]], gtxn=gtxn)
    with pytest.raises(SimulatedCrash):
        gtxn.commit()
    return gtxn.gtid


def retry(fleet, by_shard, gtid):
    """The client's replay: same writes, same gtid, fresh branches."""
    gtxn = fleet.begin(gtid=gtid)
    assert gtxn.is_retry
    for keys in by_shard:
        fleet.execute(INCREMENT, [10, keys[0]], gtxn=gtxn)
    gtxn.commit()
    return gtxn


class TestIdempotentCommit:
    def test_retry_after_decided_crash_does_not_double_apply(self):
        """The crash landed after the decision was durable: recovery
        commits the original, so the retry must be absorbed -- this is
        the case that double-applied before the gtid check."""
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtid = crashed_commit(fleet, by_shard, "after_decision")
        fleet.crash()
        fleet.recover()
        assert all(value_of(fleet, keys[0]) == 10 for keys in by_shard)
        retry(fleet, by_shard, gtid)
        # exactly once: 10, not 20
        assert all(value_of(fleet, keys[0]) == 10 for keys in by_shard)
        assert fleet.coordinator.idempotent_commits == 1

    def test_retry_after_undecided_crash_applies_once(self):
        """No durable decision: recovery presumed abort, so the retry is
        the first (and only) application."""
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtid = crashed_commit(fleet, by_shard, "after_prepare")
        fleet.crash()
        fleet.recover()
        assert all(value_of(fleet, keys[0]) == 0 for keys in by_shard)
        retry(fleet, by_shard, gtid)
        assert all(value_of(fleet, keys[0]) == 10 for keys in by_shard)
        assert fleet.coordinator.idempotent_commits == 0

    def test_double_retry_is_still_once(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtid = crashed_commit(fleet, by_shard, "after_decision")
        fleet.crash()
        fleet.recover()
        retry(fleet, by_shard, gtid)
        retry(fleet, by_shard, gtid)
        assert all(value_of(fleet, keys[0]) == 10 for keys in by_shard)
        assert fleet.coordinator.idempotent_commits == 2

    def test_fresh_gtids_are_not_absorbed(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        for _ in range(2):
            gtxn = fleet.begin()
            for keys in by_shard:
                fleet.execute(INCREMENT, [10, keys[0]], gtxn=gtxn)
            gtxn.commit()
        assert all(value_of(fleet, keys[0]) == 20 for keys in by_shard)
        assert fleet.coordinator.idempotent_commits == 0

    def test_one_phase_commit_leaves_no_decision_to_absorb(self):
        """A writer plus a reader commits one-phase, so -- like every
        single-shard commit -- it logs no DECISION, and a retry under
        its gtid is a new transaction: the increment applies again.
        The retry token protects 2PC outcomes only; a client that may
        retry a one-phase commit has to make the writes idempotent."""
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)

        def writer_and_reader(gtxn):
            fleet.execute(INCREMENT, [10, by_shard[0][0]], gtxn=gtxn)
            fleet.query("SELECT V FROM kv WHERE K = ?", [by_shard[1][0]], gtxn=gtxn)
            gtxn.commit()

        first = fleet.begin()
        writer_and_reader(first)
        assert fleet.coordinator.single_commits == 1
        assert not any(shard.wal.decided_gtids() for shard in fleet.shards)
        writer_and_reader(fleet.begin(gtid=first.gtid))
        assert value_of(fleet, by_shard[0][0]) == 20
        assert fleet.coordinator.idempotent_commits == 0
        assert fleet.coordinator.single_commits == 2

    def test_crash_exception_is_a_simulated_crash(self):
        # the coordinator's own death surfaces as CoordinatorCrash, a
        # SimulatedCrash subtype: "outcome unknown", not "aborted"
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        fleet.coordinator.arm_crash("mid_commit")
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute(INCREMENT, [10, keys[0]], gtxn=gtxn)
        with pytest.raises(CoordinatorCrash):
            gtxn.commit()
