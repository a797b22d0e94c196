"""Coordinator crashes at every 2PC phase boundary: recovery must leave
no shard divergent -- every global transaction is all-or-nothing."""

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.engine.errors import (
    EngineError,
    ShardUnavailableError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.engine.txn import IsolationLevel, TxnState
from repro.engine.wal import LogKind
from repro.obs import Observer
from repro.shard import PHASES, ShardSalesWorkload, load_sales_fleet

from tests.shard.test_2pc import load_keys, value_of
from tests.shard.test_router import kv_fleet
from tests.shard.test_tail_drop import AMOUNT, drop_unflushed_tails, pay

#: phases where the commit decision is already durable somewhere
_DECIDED_PHASES = ("mid_decision", "after_decision", "mid_commit", "after_commit")


def run_to_crash(fleet, by_shard, phase):
    """Arm ``phase``, drive one cross-shard write, expect the crash."""
    fleet.coordinator.arm_crash(phase)
    gtxn = fleet.begin()
    for keys in by_shard:
        fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [99, keys[0]], gtxn=gtxn)
    with pytest.raises(SimulatedCrash):
        gtxn.commit()
    return gtxn


class TestCrashAtEveryPhase:
    @pytest.mark.parametrize("phase", PHASES)
    def test_no_shard_diverges(self, phase):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        run_to_crash(fleet, by_shard, phase)
        fleet.crash()
        report = fleet.recover()
        values = [value_of(fleet, keys[0]) for keys in by_shard]
        # all-or-nothing: every branch applied, or none
        assert values == [99, 99, 99] or values == [0, 0, 0]
        # presumed abort without a durable decision; commit with one
        if phase in _DECIDED_PHASES:
            assert values == [99, 99, 99]
        else:
            assert values == [0, 0, 0]
            assert report.resolved_commit == 0
        assert report.resolved_abort + report.resolved_commit == report.in_doubt

    def test_in_doubt_branches_resolve_commit_from_peer_decision(self):
        """mid_decision: shard 0 holds the DECISION, the others are in
        doubt -- recovery must commit them off shard 0's record."""
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        run_to_crash(fleet, by_shard, "mid_decision")
        fleet.crash()
        report = fleet.recover()
        assert report.resolved_commit == 2  # shards 1 and 2 were in doubt
        assert report.resolved_abort == 0
        assert len(report.decided_gtids) == 1

    def test_presumed_abort_reports_no_decisions(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtxn = run_to_crash(fleet, by_shard, "after_prepare")
        fleet.crash()
        report = fleet.recover()
        assert report.decided_gtids == set()
        # only shard 1 logged a PREPARE; shard 0, the last agent, never
        # prepared durably: its branch is an ordinary loser, undone by
        # its own recovery before the fleet pass runs
        assert report.resolved_abort == 1
        last_agent = report.shard_reports[0]
        assert last_agent.in_doubt == {}
        assert gtxn.locals[0].txn_id in last_agent.losers
        assert last_agent.records_undone == 1
        assert [value_of(fleet, keys[0]) for keys in by_shard] == [0, 0]

    def test_fleet_usable_after_recovery(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        run_to_crash(fleet, by_shard, "after_prepare")
        fleet.crash()
        fleet.recover()
        with fleet.begin() as gtxn:
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [5, keys[0]], gtxn=gtxn
                )
        assert all(value_of(fleet, keys[0]) == 5 for keys in by_shard)

    def test_prepared_branch_blocks_checkpoint(self):
        """A prepared branch is still active: quiesced checkpoints must
        refuse, or the in-doubt records would vanish behind the image."""
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        run_to_crash(fleet, by_shard, "after_prepare")
        with pytest.raises(EngineError):
            fleet.shards[0].checkpoint()

    def test_arm_crash_rejects_unknown_phase(self):
        fleet = kv_fleet(2)
        with pytest.raises(ValueError):
            fleet.coordinator.arm_crash("between_things")


def test_truncating_checkpoint_keeps_a_decision_a_peer_needs():
    fleet = kv_fleet(2)
    by_shard = load_keys(fleet)
    # shard 1, the writer that is not the last agent, dies before its
    # DECISION (BEGIN, UPDATE, PREPARE, then the DECISION)
    wal = fleet.shards[1].wal
    wal.arm_crash(wal.last_lsn + 4, "before")
    with fleet.begin() as gtxn:
        for keys in by_shard:
            fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [99, keys[0]], gtxn=gtxn)
    # acknowledged: shard 0 holds the DECISION and committed its branch
    assert gtxn.state is TxnState.COMMITTED and wal.is_dead
    fleet.shards[0].checkpoint(truncate_wal=True)  # quiescent, so legal
    fleet.crash()
    fleet.recover()
    assert [value_of(fleet, keys[0]) for keys in by_shard] == [99, 99]


def test_a_decision_forgotten_below_a_checkpoint_still_decides_a_corrupted_peer():
    """Once its peer's COMMIT is durable the last agent forgets its
    DECISION, so a checkpoint carries nothing -- but a non-truncating one
    leaves the record in the log.  When corruption then cuts the peer's
    log at its DECISION, the peer recovers in doubt, and fleet recovery
    must find the DECISION below the last agent's checkpoint."""
    fleet = kv_fleet(2)
    by_shard = load_keys(fleet)
    with fleet.begin() as gtxn:
        for keys in by_shard:
            fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [99, keys[0]], gtxn=gtxn)
    peer = fleet.shards[1].wal
    decision = peer.last_lsn - 1
    assert peer.record_at(decision).kind is LogKind.DECISION
    # a local commit flushes shard 1's log past its COMMIT ...
    fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [1, by_shard[1][1]])
    fleet.shards[0].checkpoint()
    # ... so the checkpoint forgot the DECISION and carries nothing
    assert fleet.shards[0].wal.unforgotten == {}
    peer.flip_bit(decision)
    fleet.crash()
    report = fleet.recover()
    assert report.shard_reports[1].in_doubt and report.resolved_commit == 1
    assert [value_of(fleet, keys[0]) for keys in by_shard] == [99, 99]


def test_a_lone_restart_holds_its_branch_while_the_decider_is_down(flushed):
    """Both shards die after an acknowledged payment: shard 0, the last
    agent, holds the only durable DECISION; shard 1's DECISION and COMMIT
    were never flushed.  Shard 1 restarts alone and finds its branch in
    doubt.  With shard 0 down, finding no decision proves nothing, so the
    branch is held -- PREPARED, its row locked -- until shard 0 is back
    and its DECISION commits it."""
    observer = Observer()
    fleet = kv_fleet(2, observer=observer)
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    pay(fleet, keys)
    for shard in fleet.shards:
        shard.wal.kill()
    drop_unflushed_tails(fleet, flushed)
    held = observer.metrics.gauge("shard.2pc.in_doubt")

    report = fleet._recover_shard(1)
    assert report.in_doubt
    fleet._resolve_in_doubt([report], [1])
    assert held.value == 1
    with pytest.raises(ShardUnavailableError) as unavailable:
        fleet.execute("UPDATE kv SET V = 0 WHERE K = ?", [keys[1]])
    assert unavailable.value.shard_id == 0 and unavailable.value.retryable

    fleet._resolve_in_doubt([fleet._recover_shard(0)], [0])
    assert held.value == 0
    assert [value_of(fleet, key) for key in keys] == [-AMOUNT, AMOUNT]


def snapshot_value_of(fleet, key):
    with fleet.begin(isolation=IsolationLevel.SNAPSHOT) as gtxn:
        return fleet.query("SELECT V FROM kv WHERE K = ?", [key], gtxn=gtxn).scalar()


@pytest.mark.parametrize("peek", [True, False])
@pytest.mark.parametrize("phase, outcome", [("after_prepare", 0), ("mid_decision", 99)])
def test_a_held_branch_is_invisible_to_snapshots_until_it_is_decided(phase, outcome, peek):
    """Restart redo writes the heap alone, the branches it finds in doubt
    included: their keys come back chainless, with no history a snapshot
    could take for committed.  A branch held while its decider is down
    is undecided: a snapshot must read its before-image (not a write
    that may yet be presumed aborted), and once shard 0 is back a new
    snapshot reads what the fleet decided -- whether or not a snapshot
    ran while the branch was held."""
    fleet = kv_fleet(2)
    by_shard = load_keys(fleet, per_shard=1)
    run_to_crash(fleet, by_shard, phase)
    fleet.shards[0].wal.kill()
    fleet._resolve_in_doubt([fleet._recover_shard(1)], [1])
    assert len(fleet.coordinator.dangling) == 1
    if peek:
        assert snapshot_value_of(fleet, by_shard[1][0]) == 0

    fleet._resolve_in_doubt([fleet._recover_shard(0)], [0])
    assert fleet.coordinator.dangling == []
    for keys in by_shard:
        assert snapshot_value_of(fleet, keys[0]) == outcome
        assert value_of(fleet, keys[0]) == outcome


def test_a_dangling_transaction_waits_while_any_shard_is_down():
    """Shard 1, the last agent of a write to shards 1 and 2, dies right
    after forcing its DECISION: no reachable shard holds one, so the
    transaction dangles with shard 2 prepared.  Shard 0, in no branch,
    dies too and comes back first; shard 1 is still down, so finishing
    the dangling transaction must wait, not presume abort."""
    fleet = kv_fleet(3)
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    wal = fleet.shards[1].wal
    wal.arm_crash(wal.last_lsn + 3, "after")  # BEGIN, UPDATE, DECISION
    gtxn = fleet.begin()
    for key in keys[1:]:
        fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [99, key], gtxn=gtxn)
    with pytest.raises(SimulatedCrash):
        gtxn.commit()
    assert fleet.coordinator.dangling == [gtxn]
    fleet.shards[0].wal.kill()
    for shard_id in (0, 1):
        fleet._resolve_in_doubt([fleet._recover_shard(shard_id)], [shard_id])
        fleet.coordinator.finish_dangling()
        assert fleet.coordinator.dangling == ([gtxn] if shard_id == 0 else [])
    assert [value_of(fleet, key) for key in keys] == [0, 99, 99]


def test_a_lone_restart_keeps_a_decision_a_live_prepared_peer_needs():
    """The coordinator dies with shard 0's DECISION forced and shard 1
    prepared and live.  Shard 0 restarts alone, with every shard up: its
    DECISION must stay unforgotten while shard 1's branch is undecided,
    through a flush on shard 1 and a truncating checkpoint on shard 0,
    so that a later fleet recovery still commits shard 1's branch."""
    fleet = kv_fleet(2)
    by_shard = load_keys(fleet)
    gtxn = run_to_crash(fleet, by_shard, "mid_decision")
    fleet._resolve_in_doubt([fleet._recover_shard(0)], [0])
    fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [1, by_shard[1][1]])
    fleet.shards[0].checkpoint(truncate_wal=True)
    assert list(fleet.shards[0].wal.unforgotten) == [gtxn.gtid]
    fleet.crash()
    fleet.recover()
    assert [value_of(fleet, keys[0]) for keys in by_shard] == [99, 99]


def writers_and_a_reader(fleet, by_shard):
    """A global transaction that writes the first key of every shard but
    the last and only reads the last one's (S lock held to commit)."""
    gtxn = fleet.begin(isolation=IsolationLevel.SERIALIZABLE)
    for keys in by_shard[:-1]:
        fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [99, keys[0]], gtxn=gtxn)
    fleet.query("SELECT V FROM kv WHERE K = ?", [by_shard[-1][0]], gtxn=gtxn)
    return gtxn


def assert_nothing_left_behind(fleet):
    for shard in fleet.shards:
        assert not shard.txns.active
        assert not shard.wal.in_doubt_txns()
        assert not shard.locks._held_by_txn


class TestReadOnlyBranch:
    """The reader votes and leaves; what it left behind is nothing, so
    every crash after it recovers as if it had never enlisted."""

    @pytest.mark.parametrize("phase", PHASES)
    def test_coordinator_crash_with_a_reader_present(self, phase):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        fleet.coordinator.arm_crash(phase)
        gtxn = writers_and_a_reader(fleet, by_shard)
        with pytest.raises(SimulatedCrash):
            gtxn.commit()
        reader = fleet.shards[2]
        assert gtxn.locals[2].state is TxnState.COMMITTED
        assert not reader.locks._held_by_txn
        fleet.crash()
        report = fleet.recover()
        decided = phase in _DECIDED_PHASES
        assert [value_of(fleet, keys[0]) for keys in by_shard] == (
            [99, 99, 0] if decided else [0, 0, 0]
        )
        # only the writers were ever in doubt; the reader's log holds
        # no trace of the protocol
        assert report.in_doubt <= 2
        assert not {LogKind.PREPARE, LogKind.DECISION} & {
            record.kind for record in reader.wal.records_from(1)
        }
        assert_nothing_left_behind(fleet)

    def test_crash_between_the_readers_vote_and_the_writers_commit(self):
        """One writer: no PREPARE protects it, and none is needed -- the
        commit that dies is the only record that could have made the
        transaction durable."""
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtxn = writers_and_a_reader(fleet, by_shard)
        writer = fleet.shards[0]
        writer.wal.arm_crash(writer.wal.last_lsn + 1, "before")  # its COMMIT
        with pytest.raises(SimulatedCrash):
            gtxn.commit()
        assert gtxn.locals[1].state is TxnState.COMMITTED  # the reader left
        fleet.crash()
        report = fleet.recover()
        assert report.in_doubt == 0
        assert value_of(fleet, by_shard[0][0]) == 0
        assert_nothing_left_behind(fleet)
        with writers_and_a_reader(fleet, by_shard):
            pass
        assert value_of(fleet, by_shard[0][0]) == 99
        assert fleet.coordinator.single_commits == 1

    def test_reader_shard_dying_at_its_vote_aborts_the_writers(self):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        gtxn = writers_and_a_reader(fleet, by_shard)
        fleet.shards[2].wal.kill()
        with pytest.raises(ShardUnavailableError, match="during prepare"):
            gtxn.commit()
        assert gtxn.state is TxnState.ABORTED
        assert [value_of(fleet, keys[0]) for keys in by_shard[:2]] == [0, 0]
        assert not any(shard.locks._held_by_txn for shard in fleet.shards[:2])

    def test_branch_the_engine_rolled_back_aborts_the_rest(self):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        gtxn = writers_and_a_reader(fleet, by_shard)
        gtxn.locals[2].rollback()  # what a lock timeout does to a branch
        with pytest.raises(TransactionAborted):
            gtxn.commit()
        assert gtxn.state is TxnState.ABORTED
        assert [value_of(fleet, keys[0]) for keys in by_shard[:2]] == [0, 0]
        assert_nothing_left_behind(fleet)


class TestChaosDrivenCoordinatorCrash:
    def make_fleet(self, phase):
        plan = FaultPlan(
            [FaultSpec(FaultKind.COORD_CRASH, phase, 0.0, 1.0)],
            seed=7, name="coord-crash",
        )
        chaos = ChaosInjector(plan)
        fleet = kv_fleet(3, chaos=chaos)
        return fleet, chaos

    def test_chaos_plan_fires_once_and_recovery_converges(self):
        fleet, chaos = self.make_fleet("after_prepare")
        by_shard = load_keys(fleet)
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [42, keys[0]], gtxn=gtxn
            )
        with pytest.raises(SimulatedCrash):
            gtxn.commit()
        assert chaos.observed.get("coord_crash") == 1
        fleet.crash()
        fleet.recover()
        assert all(value_of(fleet, keys[0]) == 0 for keys in by_shard)
        # one-shot: the replacement coordinator (same injector) is clean
        with fleet.begin() as retry:
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [42, keys[0]], gtxn=retry
                )
        assert all(value_of(fleet, keys[0]) == 42 for keys in by_shard)

    def test_sales_fleet_survives_chaos_coordinator_crash(self):
        """End-to-end: the payment workload on real sales data, a chaos
        coordinator crash mid-run, whole-fleet crash, recovery, resume."""
        plan = FaultPlan(
            [FaultSpec(FaultKind.COORD_CRASH, "mid_commit", 0.0, 1.0)],
            seed=3, name="coord-crash",
        )
        chaos = ChaosInjector(plan)
        fleet, _data = load_sales_fleet(2, seed=3, chaos=chaos)
        workload = ShardSalesWorkload(fleet, cross_ratio=1.0, seed=3)
        with pytest.raises(SimulatedCrash):
            for _ in range(50):
                workload.run_one()
        fleet.crash()
        report = fleet.recover()
        # mid_commit: decision durable everywhere, so in-doubt commits
        assert report.resolved_abort == 0
        # the fleet serves transactions again
        resumed = ShardSalesWorkload(fleet, cross_ratio=1.0, seed=5)
        for _ in range(10):
            resumed.run_one()
        assert resumed.committed == 10
