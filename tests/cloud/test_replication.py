"""Tests for the engine-backed replication pipeline."""

import pytest

from repro.cloud.architectures import cdb1, cdb2, cdb3, cdb4
from repro.cloud.replication import ReplicationPipeline
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import LogKind
from repro.obs import Observer
from repro.sim.events import Environment


def primary_db():
    db = Database("primary")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
    return db


def make_pipeline(arch_factory, n_replicas=1, observer=None):
    env = Environment()
    primary = primary_db()
    pipeline = ReplicationPipeline(
        env, arch_factory(), primary, n_replicas, observer=observer
    )
    return env, primary, pipeline


def visible(pipeline, key):
    """Real read against replica 0: is the probe row visible?"""
    return bool(pipeline.replicas[0].query("SELECT K FROM kv WHERE K = ?", [key]).rows)


def test_replica_starts_as_full_copy():
    _env, _primary, pipeline = make_pipeline(cdb3)
    assert pipeline.replicas[0].query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 10


def test_insert_becomes_visible_after_replay():
    env, primary, pipeline = make_pipeline(cdb3)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20])
    assert not visible(pipeline, 2)
    env.run(until=5.0)
    assert visible(pipeline, 2)


def test_update_and_delete_replicate():
    env, primary, pipeline = make_pipeline(cdb4)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [99, 1])
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    primary.execute("DELETE FROM kv WHERE K = ?", [2])
    env.run(until=2.0)
    replica = pipeline.replicas[0]
    assert replica.query("SELECT V FROM kv WHERE K = ?", [1]).scalar() == 99
    assert replica.query("SELECT K FROM kv WHERE K = ?", [2]).rows == []


def test_visibility_latency_orders_by_architecture():
    """cdb4 replicates faster than cdb1, which beats cdb2."""
    lags = {}
    for factory in (cdb1, cdb2, cdb4):
        env, primary, pipeline = make_pipeline(factory)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [7, 7])
        committed_at = env.now
        step = 0.0005
        t = step
        while t < 10.0:
            env.run(until=t)
            if visible(pipeline, 7):
                break
            t += step
        lags[factory().name] = t - committed_at
    assert lags["cdb4"] < lags["cdb1"] < lags["cdb2"]


def test_multiple_replicas_all_converge():
    env, primary, pipeline = make_pipeline(cdb3, n_replicas=3)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [5, 50])
    env.run(until=5.0)
    for index in range(3):
        assert visible(pipeline, 5)
        assert pipeline.replicas[index].query(
            "SELECT V FROM kv WHERE K = ?", [5]
        ).scalar() == 50


def test_rolled_back_transaction_never_ships():
    obs = Observer()
    env, primary, pipeline = make_pipeline(cdb3, observer=obs)
    txn = primary.begin()
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 9], txn=txn)
    txn.rollback()
    env.run(until=5.0)
    assert "repl.batches" not in obs.metrics.counters
    assert not visible(pipeline, 9)


def test_stats_track_applied_records():
    obs = Observer()
    env, primary, pipeline = make_pipeline(cdb3, observer=obs)
    for k in range(2, 6):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    env.run(until=5.0)
    assert obs.metrics.counters["repl.batches"].value == 4
    assert obs.metrics.histograms["repl.lag_s"].count == 4
    assert pipeline.converged()


def test_replica_lag_records_drains():
    env, primary, pipeline = make_pipeline(cdb3)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    applier = pipeline.appliers[0]
    assert primary.wal.last_lsn - applier.applied_lsn > 0
    env.run(until=5.0)
    # the applier stands at the batch's COMMIT, the primary's last record
    assert applier.applied_lsn == primary.wal.last_lsn


def test_sequential_replay_batches_coalesce():
    """A slow-cadence replayer applies many commits in one batch window."""
    env, primary, pipeline = make_pipeline(cdb2)
    for k in range(2, 12):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    env.run(until=0.5)  # less than one batch interval: nothing applied yet
    assert not any(visible(pipeline, k) for k in range(2, 12))
    env.run(until=5.0)
    assert all(visible(pipeline, k) for k in range(2, 12))


def test_interleaved_commits_ship_one_transaction_per_batch(monkeypatch):
    """Two open transactions interleave their writes in the log and
    commit in the reverse of their begin order: each commit ships only
    its own transaction's records, read back along its prev_lsn chain,
    in write order."""
    env, primary, pipeline = make_pipeline(cdb3)
    applier = pipeline.appliers[0]
    apply_batch = applier.apply_batch
    shipped = []

    def recording(records, commit_lsn):
        shipped.append([(r.txn_id, r.kind, r.key) for r in records])
        return apply_batch(records, commit_lsn)

    monkeypatch.setattr(applier, "apply_batch", recording)
    first, second = primary.begin(), primary.begin()
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20], txn=first)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 30], txn=second)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1], txn=first)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [31, 3], txn=second)
    primary.execute("DELETE FROM kv WHERE K = ?", [2], txn=first)
    second.commit()
    first.commit()
    env.run(until=5.0)
    assert shipped == [
        [(second.txn_id, LogKind.INSERT, 3), (second.txn_id, LogKind.UPDATE, 3)],
        [(first.txn_id, LogKind.INSERT, 2), (first.txn_id, LogKind.UPDATE, 1),
         (first.txn_id, LogKind.DELETE, 2)],
    ]
    assert pipeline.converged()


def test_zero_replicas_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        ReplicationPipeline(env, cdb3(), primary_db(), n_replicas=0)
