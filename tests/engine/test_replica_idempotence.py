"""ReplicaApplier idempotence: log shipping may deliver a batch twice
(retransmit after a partition heals); replaying it must be a no-op.  And
the version chains a batch builds: only where a replica snapshot can
read them, as on the write path (``Database._keeps_history``)."""

from repro.engine.database import Database
from repro.engine.recovery import ReplicaApplier
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import DATA_KINDS, LogKind


def make_primary():
    db = Database("primary")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def kv_state(db, txn=None):
    return dict(db.query("SELECT K, V FROM kv", txn=txn).rows)


def shipped_batches(db, after_lsn=0):
    """``(data records, commit LSN)`` per committed transaction above
    ``after_lsn``, in commit order, like the pipeline ships them."""
    return [
        ([r for r in reversed(db.wal.transaction_chain(c.txn_id, c.prev_lsn))
          if r.kind in DATA_KINDS], c.lsn)
        for c in db.wal.records_from(after_lsn + 1) if c.kind is LogKind.COMMIT
    ]


def test_double_delivery_changes_nothing():
    primary = make_primary()
    replica = primary.clone_full("replica")
    applier = ReplicaApplier(replica)
    for key in (1, 2, 3):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key * 10])
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [99, 2])
    primary.execute("DELETE FROM kv WHERE K = ?", [3])

    batches = shipped_batches(primary)
    for batch in batches:
        applier.apply_batch(*batch)
    state_after_first = kv_state(replica)
    lsn_after_first = applier.applied_lsn
    applied_after_first = applier.records_applied
    assert state_after_first == kv_state(primary)

    # the partition healed and the pipeline retransmits everything
    for batch in batches:
        assert applier.apply_batch(*batch) == 0
    assert kv_state(replica) == state_after_first
    assert applier.applied_lsn == lsn_after_first
    assert applier.records_applied == applied_after_first


def test_interleaved_redelivery_of_one_batch():
    primary = make_primary()
    replica = primary.clone_full("replica")
    applier = ReplicaApplier(replica)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
    first, second = shipped_batches(primary)

    applier.apply_batch(*first)
    applier.apply_batch(*first)      # duplicate before the next batch
    applier.apply_batch(*second)
    applier.apply_batch(*first)      # stale duplicate after later progress
    assert kv_state(replica) == kv_state(primary)
    assert applier.records_applied == 2


def test_lag_behind_tracks_applied_lsn():
    primary = make_primary()
    replica = primary.clone_full("replica")
    applier = ReplicaApplier(replica)
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    assert applier.applied_lsn == 0
    for batch in shipped_batches(primary):
        applier.apply_batch(*batch)
    assert applier.applied_lsn == primary.wal.last_lsn


# -- version chains: built where a replica snapshot can read them --------------


def seeded_replica():
    """A primary holding keys 1 and 2, its clone, and an applier for
    the batches the primary commits from here on."""
    primary = make_primary()
    for key in (1, 2):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key * 10])
    replica = primary.clone_full("replica")
    applier = ReplicaApplier(replica)
    applier.applied_lsn = primary.wal.last_lsn  # the clone holds all so far
    return primary, replica, applier


def ship(primary, applier):
    for batch in shipped_batches(primary, after_lsn=applier.applied_lsn):
        applier.apply_batch(*batch)


def test_a_snapshot_begun_before_a_batch_reads_the_rows_it_began_on():
    primary, replica, applier = seeded_replica()
    reader = replica.begin(IsolationLevel.SNAPSHOT)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
    primary.execute("DELETE FROM kv WHERE K = ?", [2])
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 30])
    ship(primary, applier)
    assert kv_state(replica, reader) == {1: 10, 2: 20}
    for key, value in ((1, 10), (2, 20)):
        assert replica.query(
            "SELECT V FROM kv WHERE K = ?", [key], txn=reader
        ).scalar() == value
    reader.commit()
    assert kv_state(replica) == kv_state(primary) == {1: 11, 3: 30}


def test_a_chained_key_stays_in_step_once_its_snapshot_ended():
    """Keys 1 and 2 gained chains while a snapshot was live; a batch
    applied after it ended must keep them in step, or the stale chain
    head is what the next snapshot reads."""
    primary, replica, applier = seeded_replica()
    reader = replica.begin(IsolationLevel.SNAPSHOT)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [21, 2])
    ship(primary, applier)
    reader.commit()
    versions = replica.table("KV").versions
    assert 1 in versions and 2 in versions
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [12, 1])
    primary.execute("DELETE FROM kv WHERE K = ?", [2])
    ship(primary, applier)
    later = replica.begin(IsolationLevel.SNAPSHOT)
    assert kv_state(replica, later) == kv_state(replica) == {1: 12}
    assert replica.query("SELECT V FROM kv WHERE K = ?", [2], txn=later).rows == []
    later.commit()


def test_a_batch_with_no_snapshot_live_builds_no_chain():
    primary, replica, applier = seeded_replica()
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [11, 1])
    primary.execute("DELETE FROM kv WHERE K = ?", [2])
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [3, 30])
    ship(primary, applier)
    assert replica.live_versions() == 0
    reader = replica.begin(IsolationLevel.SNAPSHOT)
    assert kv_state(replica, reader) == kv_state(primary) == {1: 11, 3: 30}
    reader.commit()


# -- vacuum: shipped entries carry primary LSNs, far above the replica's own ----


def test_a_replica_vacuums_the_history_its_ended_snapshot_kept():
    primary, replica, applier = seeded_replica()
    reader = replica.begin(IsolationLevel.SNAPSHOT)
    for value in range(50):
        primary.execute("UPDATE kv SET V = ? WHERE K = ?", [value, 1])
    ship(primary, applier)
    assert replica.live_versions() == 51
    assert replica.wal.last_lsn < applier.applied_lsn
    assert kv_state(replica, reader) == {1: 10, 2: 20}
    reader.commit()
    assert replica.vacuum() == 51
    assert replica.live_versions() == 0
    later = replica.begin(IsolationLevel.SNAPSHOT)
    assert kv_state(replica, later) == kv_state(primary) == {1: 49, 2: 20}
    later.commit()


def test_a_replica_batch_vacuums_once_enough_versions_accumulate():
    """Nothing commits on a replica, so the batch itself runs the commit
    path's auto-vacuum check; else a key chained while a snapshot was
    live keeps chaining every shipped write of it."""
    primary, replica, applier = seeded_replica()
    replica.auto_vacuum_versions = 64
    reader = replica.begin(IsolationLevel.SNAPSHOT)
    primary.execute("UPDATE kv SET V = ? WHERE K = ?", [0, 1])
    ship(primary, applier)
    reader.commit()
    assert 1 in replica.table("KV").versions
    for value in range(1, 300):
        primary.execute("UPDATE kv SET V = ? WHERE K = ?", [value, 1])
        ship(primary, applier)
        assert replica.live_versions() < replica.auto_vacuum_versions
    assert replica.vacuum_runs > 0
    later = replica.begin(IsolationLevel.SNAPSHOT)
    assert kv_state(replica, later) == kv_state(primary) == {1: 299, 2: 20}
    later.commit()
