"""ReplicaApplier idempotence: log shipping may deliver a batch twice
(retransmit after a partition heals); replaying it must be a no-op."""

from repro.engine.database import Database
from repro.engine.recovery import ReplicaApplier
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


def kv_state(db):
    return dict(db.query("SELECT K, V FROM kv").rows)


def shipped_batches(db):
    """``(data records, commit LSN)`` per committed transaction, in commit
    order, like the pipeline ships them."""
    return [
        ([r for r in reversed(db.wal.transaction_chain(c.txn_id, c.prev_lsn))
          if r.kind in DATA_KINDS], c.lsn)
        for c in db.wal.records_from(1) if c.kind is LogKind.COMMIT
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
