"""Cross-shard payments under checkpoints, participant crashes and tail
drops: no acknowledged payment is lost, and none is left half applied.

A peer's DECISION and COMMIT are not flushed, so until they are durable
the last agent's forced DECISION is the only record of the outcome: its
log keeps it unforgotten, and every checkpoint there carries it, until
each peer's COMMIT is durable on the peer's own log.  The machine
interleaves PAIRS transfers (each one a cross-shard payment), local
commits (each flushes its shard's log), checkpoints on any shard
(truncating or not), participant crashes at any append (before, after or
torn), the lone restart of a crashed shard while others may still be
down, and whole-fleet restarts.
Every crash loses what no flush covered (the ``flushed`` fixture), and a
restart reads back only what is on disk.  After each fleet restart, and
at the end, :class:`~repro.ha.history.HistoryChecker` checks the history
against the recovered stamps: no lost update, no fractured state.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test,
)

from repro.engine.errors import ShardUnavailableError, SimulatedCrash
from repro.engine.wal import CRASH_MODES
from repro.ha import HAFleet
from repro.ha.history import HistoryChecker
from repro.ha.workload import PairWorkload, build_pairs_fleet

from tests.shard.test_2pc import load_keys
from tests.shard.test_router import kv_schema
from tests.shard.test_tail_drop import drop_unflushed_tails

SHARD = st.integers(0, 2)  # taken modulo the fleet's shard count


class PaymentsUnderCheckpoints(RuleBasedStateMachine):
    #: ``{wal: last_lsn at its latest fsync point}``: the test binds it
    flushed: dict = {}

    @initialize(n_shards=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
    def build(self, n_shards, seed):
        self.flushed.clear()
        self.fleet, pairs = build_pairs_fleet(n_shards, n_pairs=2 * n_shards)
        self.fleet.create_table(kv_schema())
        self.local_keys = [keys[0] for keys in load_keys(self.fleet, per_shard=1)]
        self.work = PairWorkload(self.fleet, pairs, seed=seed)
        self._on_disk()

    def _shard(self, shard):
        return self.fleet.shards[shard % self.fleet.n_shards]

    def _dead(self):
        return [shard for shard in self.fleet.shards if shard.wal.is_dead]

    def _on_disk(self):
        """What a restart read back is durable: mark it flushed."""
        for shard in self.fleet.shards:
            self.flushed[shard.wal] = shard.wal.last_lsn

    @rule()
    def transfer(self):
        try:
            self.work.transfer()
        except SimulatedCrash:
            pass  # recorded (info once the commit started); the shard stays down

    @rule(shard=SHARD)
    def local_commit(self, shard):
        key = self.local_keys[shard % self.fleet.n_shards]
        try:
            self.fleet.execute("UPDATE kv SET V = V + 1 WHERE K = ?", [key])
        except ShardUnavailableError:
            pass  # the shard is down, or this write's append killed it

    @rule(shard=SHARD, truncate=st.booleans())
    def checkpoint(self, shard, truncate):
        db = self._shard(shard)
        if db.wal.is_dead or db.txns.active:
            return  # a checkpoint needs the shard up and quiescent
        try:
            db.checkpoint(truncate_wal=truncate)
        except SimulatedCrash:
            pass  # an armed crash point fired on the CHECKPOINT record

    @rule(shard=SHARD, offset=st.integers(1, 6), mode=st.sampled_from(CRASH_MODES))
    def arm_participant_crash(self, shard, offset, mode):
        wal = self._shard(shard).wal
        if not wal.is_dead:
            wal.arm_crash(wal.last_lsn + offset, mode)

    @precondition(lambda self: len(self._dead()) >= 1)
    @rule()
    def restart_the_crashed_participant(self):
        """The lowest-id crashed shard comes back alone, its unflushed
        tail lost, and resolves its in-doubt branches against every other
        shard's decisions, holding those no reachable shard decided while
        another is still down; then the coordinator finishes the
        survivors it left prepared."""
        db = self._dead()[0]
        shard_id = self.fleet.shards.index(db)
        drop_unflushed_tails(self.fleet, self.flushed, [db])
        report = self.fleet._recover_shard(shard_id)
        self.fleet._resolve_in_doubt([report], [shard_id])
        self.fleet.coordinator.finish_dangling()
        self.flushed[db.wal] = db.wal.last_lsn

    @rule(drop_tails=st.booleans())
    def restart_fleet(self, drop_tails):
        self._restart_and_check(drop_tails)

    def _restart_and_check(self, drop_tails):
        if drop_tails:
            drop_unflushed_tails(self.fleet, self.flushed)
        self.fleet.crash()
        self.fleet.recover()
        self._on_disk()
        report = HistoryChecker().check(self.work.history, self.work.final_stamps())
        assert report.consistent, report.describe()

    def teardown(self):
        if hasattr(self, "fleet"):
            self._restart_and_check(drop_tails=True)


def test_no_acknowledged_payment_is_lost_or_fractured(flushed):
    machine = type("Machine", (PaymentsUnderCheckpoints,), {"flushed": flushed})
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=60, stateful_step_count=30, deadline=None),
    )


def test_failovers_do_not_pile_up_unforgotten_decisions():
    """A lone restart (an HA failover) reads back every DECISION its log
    holds and keeps it until the resolution names its peers -- every
    other shard at its log's tail.  The next 2PC commits then forget
    them: across checkpoints and failovers of either shard the set stays
    a handful, not one more restart's worth each time."""
    fleet, pairs = build_pairs_fleet(2, n_pairs=4, fleet_cls=HAFleet)
    fleet.start_replication()
    work = PairWorkload(fleet, pairs, seed=3)
    lease_s = fleet.lease_config.lease_s
    sizes = []
    for failover in range(6):
        for _ in range(20):
            work.transfer()
        fleet.shards[0].checkpoint(truncate_wal=True)
        for _ in range(20):
            work.transfer()
        shard_id = failover % 2
        fleet.kill_primary(shard_id)
        fleet.advance(2 * lease_s)
        fleet.advance(2 * lease_s)  # past the replay
        if fleet.groups[shard_id].standby is None:
            fleet.resync(shard_id)
        work.transfer()
        work.transfer()
        sizes.append(max(len(shard.wal.unforgotten) for shard in fleet.shards))
    assert sum(group.failovers for group in fleet.groups.values()) == 6
    assert max(sizes) <= 2, sizes
