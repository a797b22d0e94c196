"""Two-phase commit: atomicity, the fast path, and fsync accounting."""

import pytest

from repro.engine.errors import LockTimeoutError, TransactionAborted
from repro.engine.txn import TxnState
from repro.engine.wal import LogKind

from tests.shard.test_router import keys_on, kv_fleet


def load_keys(fleet, per_shard=4):
    """Insert ``per_shard`` rows owned by each shard; returns keys by shard."""
    by_shard = [
        keys_on(fleet, shard_id, per_shard) for shard_id in range(fleet.n_shards)
    ]
    for keys in by_shard:
        for key in keys:
            fleet.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, 0])
    return by_shard


def value_of(fleet, key):
    return fleet.query("SELECT V FROM kv WHERE K = ?", [key]).scalar()


class TestCrossShardCommit:
    def test_commit_applies_on_all_participants(self):
        fleet = kv_fleet(3)
        by_shard = load_keys(fleet)
        with fleet.begin() as gtxn:
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [7, keys[0]], gtxn=gtxn
                )
            assert gtxn.participants == [0, 1, 2]
        assert gtxn.state is TxnState.COMMITTED
        assert all(value_of(fleet, keys[0]) == 7 for keys in by_shard)
        assert fleet.coordinator.cross_commits == 1

    def test_rollback_undoes_all_participants(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [9, keys[0]], gtxn=gtxn)
        gtxn.rollback()
        assert gtxn.state is TxnState.ABORTED
        assert all(value_of(fleet, keys[0]) == 0 for keys in by_shard)

    def test_exception_in_context_manager_rolls_back(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        with pytest.raises(RuntimeError):
            with fleet.begin() as gtxn:
                for keys in by_shard:
                    fleet.execute(
                        "UPDATE kv SET V = ? WHERE K = ?", [9, keys[0]], gtxn=gtxn
                    )
                raise RuntimeError("application error")
        assert all(value_of(fleet, keys[0]) == 0 for keys in by_shard)

    def test_finished_global_txn_cannot_commit_again(self):
        fleet = kv_fleet(2)
        load_keys(fleet)
        gtxn = fleet.begin()
        gtxn.rollback()
        with pytest.raises(TransactionAborted):
            gtxn.commit()

    def test_prepare_failure_aborts_every_branch(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        blocker = fleet.begin()
        fleet.execute(
            "UPDATE kv SET V = ? WHERE K = ?", [1, by_shard[1][0]], gtxn=blocker
        )
        victim = fleet.begin()
        fleet.execute(
            "UPDATE kv SET V = ? WHERE K = ?", [2, by_shard[0][0]], gtxn=victim
        )
        with pytest.raises(LockTimeoutError):
            # second branch hits the blocker's X lock (no-wait policy)
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [2, by_shard[1][0]], gtxn=victim
            )
        victim.rollback()
        blocker.rollback()
        assert all(value_of(fleet, keys[0]) == 0 for keys in by_shard)
        assert fleet.coordinator.aborts >= 1

    def test_gtids_stay_unique_across_coordinator_restart(self):
        fleet = kv_fleet(2)
        load_keys(fleet)
        first = fleet.begin().gtid
        fleet.crash()
        fleet.recover()
        second = fleet.begin().gtid
        assert first != second


class TestFastPathAndFsyncs:
    def test_single_shard_txn_skips_prepare(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        with fleet.begin() as gtxn:
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [5, by_shard[0][0]], gtxn=gtxn
            )
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [5, by_shard[0][1]], gtxn=gtxn
            )
            assert gtxn.participants == [0]
        assert fleet.coordinator.single_commits == 1
        assert fleet.coordinator.cross_commits == 0
        kinds = [record.kind for record in fleet.shards[0].wal._records]
        assert LogKind.PREPARE not in kinds
        assert LogKind.DECISION not in kinds

    def test_single_shard_commit_costs_one_fsync(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        before = fleet.fsyncs
        with fleet.begin() as gtxn:
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [5, by_shard[0][0]], gtxn=gtxn
            )
        assert fleet.fsyncs - before == 1

    def test_cross_shard_commit_fsync_cost(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        before = fleet.fsyncs
        with fleet.begin() as gtxn:
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [5, keys[0]], gtxn=gtxn
                )
        # the last agent (shard 0) flushes its DECISION, shard 1 its
        # PREPARE; shard 1's DECISION behind that PREPARE, and a COMMIT
        # behind its DECISION, are no flush
        assert fleet.fsyncs - before == 1 + 1

    def test_group_commit_amortizes_decision_fsyncs(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet, per_shard=6)
        batch = []
        for index in range(4):
            gtxn = fleet.begin()
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [index, keys[index]],
                    gtxn=gtxn,
                )
            batch.append(gtxn)
        before = fleet.fsyncs
        fleet.coordinator.commit_many(batch)
        assert all(gtxn.state is TxnState.COMMITTED for gtxn in batch)
        # 4 txns x 2 participants: shard 0 is every txn's last agent, so
        # only shard 1's 4 PREPAREs flush; shard 0's 4 DECISION records
        # collapse to one group fsync, and shard 1's, each behind its
        # PREPARE, flush nothing; no COMMIT flushes.
        assert fleet.fsyncs - before == 4 + 1

    def test_commit_many_mixes_fast_path_and_2pc(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        single = fleet.begin()
        fleet.execute(
            "UPDATE kv SET V = ? WHERE K = ?", [1, by_shard[0][0]], gtxn=single
        )
        cross = fleet.begin()
        for keys in by_shard:
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [2, keys[1]], gtxn=cross
            )
        fleet.coordinator.commit_many([single, cross])
        assert fleet.coordinator.single_commits == 1
        assert fleet.coordinator.cross_commits == 1
        assert value_of(fleet, by_shard[0][0]) == 1
        assert all(value_of(fleet, keys[1]) == 2 for keys in by_shard)
