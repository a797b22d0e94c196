"""Crash recovery and replica log replay.

Two consumers of the WAL live here:

* :func:`recover` -- ARIES-style restart recovery for the primary:
  analysis over the retained log, redo of every data record after the
  checkpoint into the heap alone (no snapshot can read a redone
  version), then undo of loser transactions in reverse LSN order.
  Checkpoints are quiesced, so loser records never precede the checkpoint.
* :class:`ReplicaApplier` -- applies the committed-transaction batches
  (each COMMIT's ``prev_lsn`` chain) to a read replica, tracking the
  applied commit LSN.  The cloud layer decides *when* records arrive
  (network and replay-parallelism timing); this class guarantees
  *what* the replica state is.

Live rollback (``Database._rollback``) undoes a ``prev_lsn`` chain with
:func:`_apply_undo` too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, TYPE_CHECKING

from repro.engine.errors import EngineError
from repro.engine.table import RowVersion, Table
from repro.engine.wal import (
    ABORT, BEGIN, CHECKPOINT, COMMIT, DATA_KINDS, DECISION, DELETE, INSERT, PREPARE, UPDATE,
    LogRecord,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


@dataclass
class RecoveryReport:
    """What a restart recovery pass did."""

    checkpoint_lsn: int = 0
    records_scanned: int = 0
    records_redone: int = 0
    records_undone: int = 0
    winners: Set[int] = field(default_factory=set)
    losers: Set[int] = field(default_factory=set)
    #: local txn id -> gtid of each prepared transaction with no local
    #: COMMIT/ABORT/DECISION: redone, neither undone nor committed, until
    #: the coordinator resolves it (:meth:`repro.shard.coordinator.
    #: TxnCoordinator.resolve`)
    in_doubt: Dict[int, object] = field(default_factory=dict)
    #: gtids this shard holds a DECISION for: those the analysis pass
    #: read, and those the CHECKPOINTs it read carry
    decided: Set[object] = field(default_factory=set)
    #: the DECISIONs it keeps unforgotten, in log order: every carried
    #: one and every forced one (no PREPARE of its branch behind it)
    kept: List[object] = field(default_factory=list)
    #: first LSN whose CRC failed (None when the tail was intact)
    corrupt_from_lsn: Optional[int] = None
    #: records dropped when the corrupt tail was truncated
    records_discarded: int = 0


def _chain_end(table: Table, key, lsn: int) -> None:
    head = table.versions.newest(key)
    if head is not None and head.end_txn is None and head.end_lsn is None:
        head.end_lsn = lsn


def _chain_unend(table: Table, key, record: LogRecord) -> None:
    """Clear the uncommitted end mark ``Database._build_versions`` set
    for this record (what is undone was never chained by redo)."""
    head = table.versions.newest(key)
    if head is not None and head.end_txn == record.txn_id:
        head.end_txn = None


def _apply_redo(db: "Database", record: LogRecord) -> None:
    """Physically re-apply one data record (exact replay after snapshot).

    Chain entries, stamped with the record's own (primary) LSN, follow
    the write path's rule (``Database._keeps_history``).  After
    ``crash()`` no snapshot is live and no key chained, so a restart
    writes the heap alone; a replica chains what its snapshots can read.
    """
    table = db._tables[record.table]
    kind, key, after = record.kind, record.key, record.after
    new_key = key
    if kind is INSERT:
        table.insert_row(after)
    else:
        rid = table.find_by_key(key)
        if rid is None:
            raise EngineError(f"redo {kind.name}: key {key!r} missing in {record.table}")
        if kind is UPDATE:
            table.update_row(rid, after)
            new_key = after[table.schema.primary_key_index]
        else:
            table.delete_row(rid)
    versions = table.versions
    if not db._keeps_history(versions, key, new_key):
        return
    if kind is UPDATE:
        versions.transition(key, new_key, record.before, after, lsn=record.lsn)
    elif kind is INSERT:
        versions.append(key, RowVersion(after, begin_lsn=record.lsn))
    else:  # a snapshot live while a replica batch applies keeps seeing it
        versions.capture_base(key, record.before)
        _chain_end(table, key, record.lsn)


def _undo_versions(table: Table, record: LogRecord) -> None:
    """Reverse one data record's version-chain entries: drop the version
    it created, clear the end marker it set on the predecessor."""
    if record.kind is not DELETE:
        table.versions.remove_newest(record.after[table.schema.primary_key_index])
    if record.kind is not INSERT:
        _chain_unend(table, record.key, record)


def _apply_undo(db: "Database", record: LogRecord) -> None:
    """Logically reverse one data record (live rollback and loser undo).

    Chain maintenance mirrors the forward path (:func:`_undo_versions`).
    A write whose chain entries are deferred (``Transaction.deferred``)
    or were redone after a crash touched only chainless keys, so there
    is nothing to reverse.
    """
    table = db.table(record.table)
    if record.kind is INSERT:
        key = record.after[table.schema.primary_key_index]
        rid = table.find_by_key(key)
        if rid is None:
            raise EngineError(f"undo INSERT: key {key!r} missing in {record.table}")
        table.delete_row(rid)
    elif record.kind is UPDATE:
        new_key = record.after[table.schema.primary_key_index]
        rid = table.find_by_key(new_key)
        if rid is None:
            raise EngineError(f"undo UPDATE: key {new_key!r} missing in {record.table}")
        table.update_row(rid, record.before)
    elif record.kind is DELETE:
        table.insert_row(record.before)
    else:  # pragma: no cover
        raise EngineError(f"cannot undo record kind {record.kind}")
    _undo_versions(table, record)


def recover(db: "Database") -> RecoveryReport:
    """Run analysis/redo/undo over the retained log after a crash.

    The database must already be reset to its last checkpoint image
    (``Database.recover`` sees to that); this function replays the tail.

    Corruption tolerance: the log tail is CRC-verified first, and the
    log is truncated at the first corrupt record (torn write, bit flip).
    Everything after that point is discarded -- a transaction whose
    COMMIT lies beyond the corruption never committed, so exactly the
    committed prefix survives.
    """
    obs = db.obs
    report = RecoveryReport(checkpoint_lsn=db.checkpoint_lsn)
    start_lsn = db.checkpoint_lsn + 1
    with obs.span("recovery", "engine", track="engine") as root:
        corrupt_lsn = db.wal.first_corrupt_lsn(start_lsn)
        if corrupt_lsn is not None:
            report.corrupt_from_lsn = corrupt_lsn
            report.records_discarded = db.wal.discard_from(corrupt_lsn)
            obs.count("engine.recovery.discarded", report.records_discarded)
            obs.event(
                "wal.corruption", "engine", track="engine",
                attrs={"lsn": corrupt_lsn, "discarded": report.records_discarded},
            )
        records = db.wal.records_from(start_lsn)
        report.records_scanned = len(records)

        # Analysis: one pass classes every record -- who committed, who
        # aborted, who was in flight, which prepared branches are in
        # doubt, which gtids are decided -- and sets the data records
        # aside for redo and undo.
        seen: Set[int] = set()
        winners = report.winners
        aborted: Set[int] = set()
        prepared: Dict[int, object] = {}
        data: List[LogRecord] = []
        # gtid -> txn id of each DECISION; a carried gtid maps to 0
        decisions: Dict[object, int] = dict.fromkeys(
            db.wal.carried_at(db.checkpoint_lsn), 0
        )
        with obs.span("recovery.analysis", "engine", track="engine"):
            for record in records:
                kind = record.kind
                if kind is BEGIN:
                    seen.add(record.txn_id)
                elif kind is COMMIT or kind is DECISION:
                    # a durable local decision is as good as COMMIT: the
                    # coordinator had already decided before the crash
                    winners.add(record.txn_id)
                    if kind is DECISION:
                        decisions[record.key] = record.txn_id
                elif kind in DATA_KINDS:
                    seen.add(record.txn_id)
                    data.append(record)
                elif kind is PREPARE:
                    prepared[record.txn_id] = record.key
                elif kind is ABORT:
                    aborted.add(record.txn_id)
                elif kind is CHECKPOINT:
                    decisions.update(dict.fromkeys(record.after or (), 0))
            report.decided = set(decisions)
            report.kept = [
                gtid for gtid, txn_id in decisions.items() if txn_id not in prepared
            ]
            db.wal.unforgotten = dict.fromkeys(report.kept)
            report.in_doubt = {
                txn_id: gtid
                for txn_id, gtid in prepared.items()
                if txn_id not in winners and txn_id not in aborted
            }
            # In-doubt transactions are neither winners nor losers: redo
            # them (locks are gone, but so is everyone who could look),
            # never undo them -- the fleet pass decides their fate.
            report.losers = seen - winners - aborted - set(report.in_doubt)

        # Redo: replay history (repeating history, ARIES-style).  Aborted
        # transactions are skipped entirely: their rollback ran synchronously
        # before the crash and compensations are not logged (no CLRs), so
        # neither their changes nor their undo exist in the checkpoint image.
        with obs.span("recovery.redo", "engine", track="engine"):
            if aborted:
                data = [record for record in data if record.txn_id not in aborted]
            for record in data:
                _apply_redo(db, record)
            report.records_redone = len(data)

        # Undo losers in reverse LSN order, then log the ABORT of each
        # one undone, as a rollback does: the next restart skips its
        # records instead of undoing them again on top of what committed
        # since.
        with obs.span("recovery.undo", "engine", track="engine"):
            losers = report.losers
            if losers:
                undone = set()
                for record in reversed(data):
                    if record.txn_id in losers:
                        _apply_undo(db, record)
                        undone.add(record.txn_id)
                        report.records_undone += 1
                for txn_id in sorted(undone):
                    db.wal.append(txn_id, ABORT)
        root.set("scanned", report.records_scanned)
        root.set("redone", report.records_redone)
        root.set("undone", report.records_undone)
        if report.in_doubt:
            root.set("in_doubt", len(report.in_doubt))
            obs.count("engine.recovery.in_doubt", len(report.in_doubt))
        obs.count("engine.recovery.runs")
        obs.count("engine.recovery.redone", report.records_redone)
        obs.count("engine.recovery.undone", report.records_undone)
    return report


class ReplicaApplier:
    """Applies committed-transaction batches to a replica database."""

    def __init__(self, replica: "Database"):
        self.replica = replica
        self.applied_lsn = 0
        self.records_applied = 0

    def apply_batch(self, records: List[LogRecord], commit_lsn: int) -> int:
        """Apply one committed transaction's data records, in order.

        Batches arrive in commit order, so a batch whose COMMIT is at or
        below :attr:`applied_lsn` was applied already (a re-delivery)
        and applies nothing.  A data record's own LSN cannot tell: a
        transaction that committed later may have written earlier.
        """
        if commit_lsn <= self.applied_lsn:
            return 0
        for record in records:
            _apply_redo(self.replica, record)
        self.applied_lsn = commit_lsn
        self.records_applied += len(records)
        # Shipped versions carry primary LSNs, far ahead of the replica's
        # own near-empty WAL: raise the snapshot floor so replica
        # snapshots taken from here on see everything applied so far.
        if commit_lsn > self.replica.snapshot_floor:
            self.replica.snapshot_floor = commit_lsn
        # nothing commits on a replica: the batch runs the commit's check
        self.replica._vacuum_if_due()
        return len(records)
