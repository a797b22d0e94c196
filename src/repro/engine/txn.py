"""Transactions and the transaction manager.

A :class:`Transaction` is a handle: the mutation logic lives in
:class:`repro.engine.database.Database`, which logs to the WAL and
locks through the lock manager.  Strict 2PL plus WAL-before-data gives
atomicity and durability; serialisability follows from 2PL.
"""

from __future__ import annotations

import enum
from typing import Optional, TYPE_CHECKING

from repro.engine.errors import TransactionAborted

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database


class IsolationLevel(enum.Enum):
    """Supported isolation levels.

    Two families share the engine:

    * **Lock-based** -- ``SERIALIZABLE`` is strict 2PL (S locks held to
      commit); ``READ_COMMITTED`` releases S locks immediately after
      each read, which is what the paper's OLTP workloads run under on
      PostgreSQL.
    * **MVCC** -- ``SNAPSHOT`` and ``REPEATABLE_READ`` capture a commit-
      LSN snapshot at ``BEGIN`` and read row versions without taking any
      locks; writes still lock and additionally fail with a retryable
      :class:`~repro.engine.errors.WriteConflictError` when another
      transaction committed a newer version first (first-updater-wins).
      As in PostgreSQL, ``REPEATABLE_READ`` is implemented as snapshot
      isolation, so the two MVCC levels behave identically.
    """

    READ_COMMITTED = "read committed"
    REPEATABLE_READ = "repeatable read"
    SNAPSHOT = "snapshot"
    SERIALIZABLE = "serializable"


#: Levels whose reads go through version chains instead of the lock manager.
MVCC_LEVELS = frozenset({IsolationLevel.SNAPSHOT, IsolationLevel.REPEATABLE_READ})

# ``level.mvcc``: membership resolved once, not by Python-level Enum.__hash__
for _level in IsolationLevel:
    _level.mvcc = _level in MVCC_LEVELS
del _level


class TxnState(enum.Enum):
    ACTIVE = "active"
    #: 2PC phase one passed: changes durable, locks held, fate owned by
    #: the coordinator (commit and rollback both remain possible).
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"


# bound once: the per-transaction code reads members as globals (see wal.py)
READ_COMMITTED = IsolationLevel.READ_COMMITTED
ACTIVE, PREPARED = TxnState.ACTIVE, TxnState.PREPARED
COMMITTED, ABORTED = TxnState.COMMITTED, TxnState.ABORTED


class Transaction:
    """One unit of work against a :class:`Database`."""

    __slots__ = (
        "_db", "txn_id", "isolation", "state", "first_lsn", "last_lsn",
        "reads", "writes", "start_s", "snapshot_lsn", "created_versions",
        "ended_versions", "deferred", "gtid", "deadline", "autocommit",
    )

    def __init__(
        self,
        db: "Database",
        txn_id: int,
        isolation: IsolationLevel = READ_COMMITTED,
    ):
        self._db = db
        self.txn_id = txn_id
        self.isolation = isolation
        self.state = ACTIVE
        self.first_lsn = 0
        self.last_lsn = 0
        #: statement-level counters consumed by the cost model
        self.reads = 0
        self.writes = 0
        #: begin timestamp stamped by the database's observer (0.0 when off)
        self.start_s = 0.0
        #: commit-LSN snapshot captured at BEGIN for the MVCC levels
        #: (``None`` for the lock-based levels): versions committed at or
        #: below this LSN are visible, later commits are not.
        self.snapshot_lsn: Optional[int] = None
        #: row versions this transaction created / superseded, stamped
        #: with the commit LSN at commit time (engine-internal).
        self.created_versions: list = []
        self.ended_versions: list = []
        #: data records written while no snapshot could read their
        #: history: their chain entries are built only if a snapshot
        #: begins before this transaction ends (engine-internal).
        self.deferred: list = []
        #: global transaction id when this local transaction is one
        #: participant branch of a cross-shard 2PC transaction
        self.gtid = None
        #: optional per-request deadline (duck-typed: anything with
        #: ``expired() -> bool``, normally :class:`repro.qos.deadline.
        #: Deadline`).  The engine checks it at its cancellation points
        #: -- lock wait, WAL append -- and rolls the transaction back
        #: when it has passed, so doomed work is abandoned early
        #: instead of holding locks.
        self.deadline = None
        #: begun by :meth:`Database.execute` for one statement and
        #: committed before that call returns: no other transaction runs
        #: while it holds a lock (engine-internal)
        self.autocommit = False

    @property
    def uses_mvcc(self) -> bool:
        return self.snapshot_lsn is not None

    @property
    def is_read_only(self) -> bool:
        """Has this (open) transaction logged no data record so far?

        Such a transaction has nothing to make durable: its COMMIT is
        not a flush, and as a 2PC branch it votes read-only.
        """
        return not self.writes

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        self._db._commit(self)

    def rollback(self) -> None:
        self._db._rollback(self)

    @property
    def is_active(self) -> bool:
        return self.state is ACTIVE

    def ensure_active(self) -> None:
        if self.state is not ACTIVE:
            raise TransactionAborted(
                f"transaction {self.txn_id} is {self.state.value}"
            )

    # -- context manager: commit on success, roll back on error ------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.is_active:
                self.commit()
        else:
            if self.is_active:
                self.rollback()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transaction {self.txn_id} {self.state.value}>"


class TransactionManager:
    """Assigns transaction ids and tracks active transactions."""

    def __init__(self, start_id: int = 1) -> None:
        if start_id < 1:
            raise ValueError("transaction ids start at 1")
        self._next_txn_id = start_id
        self.active: dict[int, Transaction] = {}
        #: active MVCC transactions: while none is live, no snapshot can
        #: read the version history a write would build
        self.live_snapshots = 0
        self.committed = 0
        self.aborted = 0

    def begin(
        self, db: "Database", isolation: IsolationLevel
    ) -> Transaction:
        txn = Transaction(db, self._next_txn_id, isolation)
        self._next_txn_id += 1
        self.active[txn.txn_id] = txn
        if isolation.mvcc:
            self.live_snapshots += 1
        return txn

    def finish(self, txn: Transaction, committed: bool) -> None:
        if self.active.pop(txn.txn_id, None) is not None and txn.isolation.mvcc:
            self.live_snapshots -= 1
        if committed:
            self.committed += 1
        else:
            self.aborted += 1

    def oldest_snapshot_lsn(self, default: int) -> int:
        """The GC horizon: the oldest snapshot any live transaction holds.

        Versions superseded at or before this LSN are invisible to every
        current and future snapshot and may be vacuumed.  ``default``
        (normally the WAL tail) applies when no MVCC transaction is live.
        """
        snapshots = [
            txn.snapshot_lsn
            for txn in self.active.values()
            if txn.snapshot_lsn is not None
        ]
        return min(snapshots) if snapshots else default
