"""The ``Database`` facade: catalog, transactions, SQL, recovery.

This is the only class most callers need::

    db = Database("primary")
    db.create_table(schema)
    with db.begin() as txn:
        db.execute("INSERT INTO t VALUES (DEFAULT, ?)", [1], txn=txn)
    rows = db.query("SELECT * FROM t").rows

Write path (strict WAL-before-data): X-lock the row, append the log
record, apply the physical change, advance the transaction's
``last_lsn``.  The log is the only copy of a transaction's writes:
rollback walks its ``prev_lsn`` chain, and replication subscribes to
the WAL.  Commit appends COMMIT and releases all locks.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    LockTimeoutError,
    SchemaError,
    SqlError,
    TransactionAborted,
    WriteConflictError,
)
from repro.engine.executor import Executor, Prepared, ResultSet
from repro.engine.locks import BLOCKED, EXCLUSIVE, LockManager, LockMode
from repro.engine.recovery import RecoveryReport, _apply_undo, recover
from repro.engine.sql import SelectStatement
from repro.engine.table import RowVersion, Table, TableSnapshot, VersionStore
from repro.engine.txn import (
    ABORTED, ACTIVE, COMMITTED, PREPARED, IsolationLevel, Transaction, TransactionManager,
)
from repro.engine.types import DEFAULT, Schema
from repro.engine.wal import (
    ABORT, BEGIN, COMMIT, DATA_KINDS, DECISION, DELETE, INSERT, PREPARE, UPDATE,
    LogRecord, WriteAheadLog,
)
from repro.obs import NULL_OBSERVER, Observer


class Database:
    """One database instance (a primary or a replica)."""

    def __init__(
        self,
        name: str = "db",
        default_isolation: IsolationLevel = IsolationLevel.READ_COMMITTED,
        observer: Optional[Observer] = None,
        auto_vacuum_versions: int = 4096,
        plan_cache_size: int = 512,
    ):
        self.name = name
        self.obs = observer or NULL_OBSERVER
        # Pre-resolved txn metrics keep begin/commit on the counter fast
        # path; the per-txn timeline span stays on the tracer API.
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._c_txn = {
                outcome: metrics.counter(f"engine.txn.{outcome}")
                for outcome in ("begin", "commit", "abort")
            }
            self._h_txn_s = metrics.histogram("engine.txn.duration_s")
            self._c_mvcc = {
                event: metrics.counter(f"engine.mvcc.{event}")
                for event in (
                    "versions_created", "versions_gc",
                    "conflicts", "snapshot_reads",
                )
            }
            # Eager registration: the plan-cache series exist (at zero)
            # in every export even before the first prepare() call, and
            # prepare() itself stays off the registry dict.
            self._c_plan = {
                event: metrics.counter(f"engine.sql.plan_cache.{event}")
                for event in ("hit", "miss", "evict")
            }
        else:
            self._c_txn = None
            self._h_txn_s = None
            self._c_mvcc = None
            self._c_plan = None
        self.wal = WriteAheadLog(observer=self.obs)
        self.locks = LockManager(observer=self.obs)
        self.txns = TransactionManager()
        self.default_isolation = default_isolation
        self._tables: Dict[str, Table] = {}
        #: flat view of every table's version store -- the auto-vacuum
        #: check in :meth:`_commit` sums these once per commit, and the
        #: dict-values walk was measurable there
        self._version_stores: Tuple[VersionStore, ...] = ()
        self._executor = Executor(self)
        if plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        self.plan_cache_size = plan_cache_size
        self._prepared: "OrderedDict[str, Prepared]" = OrderedDict()
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        self.plan_cache_evictions = 0
        self.checkpoint_lsn = 0
        self._checkpoint_snapshots: Dict[str, TableSnapshot] = {}
        #: the tables are the checkpoint image: True from :meth:`crash`
        #: until :meth:`recover` ends or a transaction begins
        self._at_image = False
        #: MVCC: snapshots never start below this LSN.  Replica appliers
        #: raise it to the applied primary LSN so snapshot reads on a
        #: replica see the shipped versions (which carry primary LSNs).
        self.snapshot_floor = 0
        #: vacuum automatically once this many versions accumulate
        self.auto_vacuum_versions = auto_vacuum_versions
        self.vacuum_runs = 0
        self.deadline_cancellations = 0

    # -- catalog ----------------------------------------------------------------

    def create_table(self, schema: Schema) -> Table:
        if schema.table in self._tables:
            raise SchemaError(f"table {schema.table!r} already exists")
        table = Table(schema)
        self._tables[schema.table] = table
        self._version_stores = tuple(t.versions for t in self._tables.values())
        return table

    def table(self, name: str) -> Table:
        try:
            upper = name.upper()
            return self._tables[upper] if upper in self._tables else self._tables[name]
        except KeyError:
            raise SchemaError(f"unknown table {name!r}") from None

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def create_index(
        self, table: str, name: str, columns: Sequence[str],
        unique: bool = False, ordered: bool = False,
    ) -> None:
        self.table(table).create_index(name, tuple(columns), unique=unique, ordered=ordered)

    def total_rows(self) -> int:
        return sum(table.row_count for table in self._tables.values())

    # -- transactions -------------------------------------------------------------

    def begin(
        self,
        isolation: Optional[IsolationLevel] = None,
        deadline=None,
    ) -> Transaction:
        txn = self.txns.begin(self, isolation or self.default_isolation)
        txn.deadline = deadline
        self._at_image = False
        if self._c_txn is not None:
            txn.start_s = self.obs.now()
            self._c_txn["begin"].value += 1.0
        record = self.wal.append(txn.txn_id, BEGIN)
        txn.first_lsn = record.lsn
        txn.last_lsn = record.lsn
        if txn.isolation.mvcc:
            # Commit LSNs are strictly greater than the BEGIN record's
            # LSN, so this snapshot excludes every later commit.
            txn.snapshot_lsn = max(record.lsn, self.snapshot_floor)
            if self.txns.live_snapshots == 1:
                # the first snapshot: in-flight writers (PREPARED branches
                # included) build the chain entries they skipped
                for active in self.txns.active.values():
                    if active.deferred:
                        self._build_deferred(active)
        return txn

    def _commit(self, txn: Transaction) -> None:
        # PREPARED is commit-eligible too: phase two of 2PC finishes a
        # branch whose fate the coordinator already decided.
        if txn.state is not ACTIVE and txn.state is not PREPARED:
            raise TransactionAborted(
                f"transaction {txn.txn_id} is {txn.state.value}"
            )
        record = self.wal.append(txn.txn_id, COMMIT)
        # Stamp this transaction's version-chain entries with the commit
        # LSN: they become visible to snapshots taken from here on.
        for version in txn.created_versions:
            version.begin_lsn = record.lsn
            version.begin_txn = None
        for version in txn.ended_versions:
            version.end_lsn = record.lsn
            version.end_txn = None
        txn.state = COMMITTED
        self.locks.release_all(txn.txn_id)
        self.txns.finish(txn, committed=True)
        if self.obs.enabled:
            self._observe_txn_end(txn, "commit")
        if txn.created_versions:
            self._vacuum_if_due()

    def _rollback(self, txn: Transaction) -> None:
        if txn.state is not ACTIVE and txn.state is not PREPARED:
            return
        # The walk starts at the last record applied, not at the log's
        # tail: a record a firing crash point wrote is in the log but was
        # never applied.
        self._undo(txn.txn_id, txn.last_lsn)
        txn.state = ABORTED
        self.locks.release_all(txn.txn_id)
        self.txns.finish(txn, committed=False)
        if self.obs.enabled:
            self._observe_txn_end(txn, "abort")

    def _undo(self, txn_id: int, last_lsn: int) -> None:
        """Undo a transaction's changes newest first along its prev_lsn
        chain from ``last_lsn``, then log its ABORT (no CLRs: the engine
        is memory-resident, so rollback is atomic w.r.t. crashes)."""
        for record in self.wal.transaction_chain(txn_id, last_lsn):
            if record.kind in DATA_KINDS:
                _apply_undo(self, record)
        self.wal.append(txn_id, ABORT)

    # -- two-phase commit (participant side) --------------------------------------

    def prepare_commit(self, txn: Transaction, gtid) -> None:
        """2PC phase one: make ``txn`` durable without deciding its fate.

        Appends a PREPARE record carrying the global transaction id; the
        transaction keeps every lock and write intent, and only
        :meth:`Transaction.commit` / :meth:`Transaction.rollback` (both
        accept the PREPARED state) finish it.  After a crash, recovery
        classes the branch *in doubt* until the fleet-level pass resolves
        it against the durable DECISION records.
        """
        txn.ensure_active()
        record = self.wal.append(txn.txn_id, PREPARE, key=gtid)
        txn.gtid = gtid
        txn.last_lsn = record.lsn
        txn.state = PREPARED
        if self.obs.enabled:
            self.obs.count("engine.txn.prepare")

    def log_decision(self, txn_id: int, gtid) -> None:
        """Record the coordinator's commit decision on this shard: forced
        on the last agent (no PREPARE behind it), not on a peer, whose
        PREPARE is durable and whose fate the last agent's DECISION holds
        (:meth:`WriteAheadLog._durability_point`)."""
        self.wal.append(txn_id, DECISION, key=gtid)

    def resolve_in_doubt(self, txn_id: int, commit: bool) -> None:
        """Finish an in-doubt prepared transaction recovery redid: append
        its COMMIT (a DECISION exists somewhere in the fleet), or undo it
        along its chain from its PREPARE and append ABORT (presumed
        abort), as a rollback does."""
        if commit:
            self.wal.append(txn_id, COMMIT)
        else:
            self._undo(txn_id, self.wal.last_lsn_of(txn_id))
        if self.obs.enabled:
            self.obs.count(
                "engine.recovery.in_doubt_committed" if commit
                else "engine.recovery.in_doubt_aborted"
            )

    def hold_in_doubt(self, txn_id: int, gtid) -> Transaction:
        """Reopen an in-doubt branch recovery redid as a ``PREPARED``
        transaction with an X lock on each key it wrote, until its commit
        or rollback settles it.  Redo left the keys it wrote chainless
        (:meth:`_keeps_history`), so its writes are booked as a live
        writer's (:meth:`_logged`): a snapshot begun meanwhile builds their
        entries, uncommitted, and reads their before-images.  It runs
        right after :meth:`recover` on a fresh lock table, so a refused
        lock is an invariant breach, not a conflict."""
        txn = Transaction(self, txn_id)
        txn.gtid = gtid
        txn.state = PREPARED
        self.txns.active[txn_id] = txn
        chain = self.wal.transaction_chain(txn_id, self.wal.last_lsn_of(txn_id))
        for record in reversed([r for r in chain if r.kind in DATA_KINDS]):
            table = self._tables[record.table]
            key = new_key = record.key
            if record.kind is UPDATE:
                new_key = record.after[table.schema.primary_key_index]
            for lock_key in (key, new_key):
                lock = (record.table, lock_key)
                if self.locks.acquire(txn_id, lock, EXCLUSIVE) is BLOCKED:
                    raise EngineError(f"in-doubt txn {txn_id} meets a held lock on {lock}")
            self._logged(txn, table, record, key, new_key)
        txn.last_lsn = chain[0].lsn
        return txn

    def _observe_txn_end(self, txn: Transaction, outcome: str) -> None:
        end_s = self.obs.now()
        self._c_txn[outcome].value += 1.0
        self._h_txn_s.observe(end_s - txn.start_s)
        self.obs.complete(
            "txn", "engine", txn.start_s, end_s, track="engine",
            attrs={
                "txn_id": txn.txn_id, "outcome": outcome,
                "reads": txn.reads, "writes": txn.writes,
            },
        )

    # -- SQL entry points -------------------------------------------------------------

    def prepare(self, sql: str) -> Prepared:
        """Parse-once statement cache, bounded LRU.

        Ad-hoc SQL with inlined literals used to grow the cache without
        limit; the least recently used plan is now evicted once
        ``plan_cache_size`` distinct statements accumulate.
        """
        prepared = self._prepared.get(sql)
        if prepared is not None:
            self._prepared.move_to_end(sql)
            self.plan_cache_hits += 1
            if self._c_plan is not None:
                self._c_plan["hit"].inc()
            return prepared
        prepared = Prepared(self, sql)
        self._prepared[sql] = prepared
        self.plan_cache_misses += 1
        if self._c_plan is not None:
            self._c_plan["miss"].inc()
        if len(self._prepared) > self.plan_cache_size:
            self._prepared.popitem(last=False)
            self.plan_cache_evictions += 1
            if self._c_plan is not None:
                self._c_plan["evict"].inc()
        return prepared

    def execute(
        self,
        sql: str | Prepared,
        params: Sequence[Any] = (),
        txn: Optional[Transaction] = None,
    ) -> ResultSet:
        """Execute a statement; without ``txn`` it autocommits.

        An explicit ``txn`` is bounded by the deadline it was begun with
        (:meth:`begin`): the engine cancels doomed work at its lock-wait
        and WAL-append points, rolling the transaction back.
        """
        prepared = self.prepare(sql) if isinstance(sql, str) else sql
        if txn is not None:
            return self._execute_in(prepared, params, txn)
        autocommit_txn = self.begin()
        autocommit_txn.autocommit = True
        try:
            result = self._execute_in(prepared, params, autocommit_txn)
            autocommit_txn.commit()
            return result
        except BaseException:
            if autocommit_txn.is_active:
                autocommit_txn.rollback()
            raise

    def _execute_in(
        self, prepared: Prepared, params: Sequence[Any], txn: Transaction
    ) -> ResultSet:
        """Run one statement; a cancelled one leaves nothing held."""
        try:
            return self._executor.execute(prepared, params, txn)
        except DeadlineExceededError:
            if txn.is_active:
                self._rollback(txn)
            raise

    def query(
        self,
        sql: str,
        params: Sequence[Any] = (),
        txn: Optional[Transaction] = None,
    ) -> ResultSet:
        """Read-only :meth:`execute`: rejects anything but SELECT.

        Raises :class:`SqlError` for any other statement, inside ``txn``
        as well as outside, so callers can't mutate through the read
        path by accident.
        """
        prepared = self.prepare(sql)
        if not isinstance(prepared.statement, SelectStatement):
            raise SqlError(
                f"query() is read-only; use execute() for: {sql.strip()[:60]!r}"
            )
        return self.execute(prepared, params, txn=txn)

    def explain(self, sql: str, params: Sequence[Any] = ()) -> str:
        """Describe the access plan a statement would use, without running it."""
        return self._executor.explain(self.prepare(sql), params)

    # -- write internals (called by the executor) ----------------------------------------

    def _deadline_guard(self, txn: Transaction, where: str) -> None:
        """Cancellation point: roll back and raise once the deadline passed.

        Rolling back *before* raising is what distinguishes deadline
        cancellation from a plain exception: every lock is released and
        every MVCC write intent undone, so an expired request cannot
        refuse the healthy ones a lock it holds.
        """
        deadline = txn.deadline
        if deadline is None or not deadline.expired():
            return
        self.deadline_cancellations += 1
        if self.obs.enabled:
            self.obs.count("engine.deadline.cancelled")
        self._rollback(txn)
        raise DeadlineExceededError(
            f"txn {txn.txn_id} cancelled at {where}: deadline exceeded"
        )

    def _lock_row(self, txn: Transaction, table: str, key: Any, mode: LockMode) -> None:
        if txn.deadline is not None:
            # Guard only when a deadline exists -- the cancellation
            # message formats key reprs, too costly to build per lock.
            self._deadline_guard(txn, f"lock wait on {table}[{key!r}]")
        if txn.autocommit and self.locks.elide((table, key)):
            # the commit ending this execute() call releases it before
            # any other transaction runs
            return
        if self.locks.acquire(txn.txn_id, (table, key), mode) is BLOCKED:
            holders = self.locks.holders((table, key))
            self._rollback(txn)
            raise LockTimeoutError(
                f"txn {txn.txn_id} blocked on {table}[{key!r}] held by "
                f"{sorted(holders)} (no-wait policy)",
                holders,
            )

    def _unlock_row(self, txn: Transaction, table: str, key: Any) -> None:
        self.locks.release_one(txn.txn_id, (table, key))

    # -- MVCC write-path helpers ---------------------------------------------

    def _check_write_conflict(self, txn: Transaction, table: Table, key: Any) -> None:
        """First-updater-wins: abort a snapshot writer whose target row
        gained a committed version after the writer's snapshot."""
        if txn.snapshot_lsn is None:
            return
        newest = table.versions.newest_commit_lsn(key)
        if newest > txn.snapshot_lsn:
            if self._c_mvcc is not None:
                self._c_mvcc["conflicts"].value += 1.0
            self._rollback(txn)
            raise WriteConflictError(
                f"txn {txn.txn_id} (snapshot LSN {txn.snapshot_lsn}) lost "
                f"{table.name}[{key!r}] to a commit at LSN {newest} "
                f"(first-updater-wins)"
            )

    def _build_versions(self, txn: Transaction, table: Table, record: LogRecord) -> None:
        """Give one of ``txn``'s data records its version-chain entries.

        The entries stay uncommitted (marked with ``txn``'s id) until the
        commit LSN stamp.  The write path calls this while a snapshot
        could read the history, or while the key already has a chain;
        :meth:`_build_deferred` calls it for the writes that ran while
        neither held.
        """
        versions = table.versions
        built = versions.live_versions
        kind = record.kind
        if kind is UPDATE:
            after = record.after
            ended, created = versions.transition(
                record.key, after[table.schema.primary_key_index],
                record.before, after, txn.txn_id,
            )
            if ended is not None:
                txn.ended_versions.append(ended)
            txn.created_versions.append(created)
        elif kind is INSERT:
            txn.created_versions.append(versions.append(
                record.key, RowVersion(record.after, begin_txn=txn.txn_id)
            ))
        else:  # DELETE: supersede the head, a captured base image if need be
            versions.capture_base(record.key, record.before)
            head = versions.newest(record.key)
            if head.end_txn is None and head.end_lsn is None:
                head.end_txn = txn.txn_id
                txn.ended_versions.append(head)
        if self._c_mvcc is not None:
            self._c_mvcc["versions_created"].value += versions.live_versions - built

    def _build_deferred(self, txn: Transaction) -> None:
        """Build the chain entries ``txn`` skipped, in write order: a
        snapshot then reads its before-images and loses a later write of
        its keys to its commit, as if no write had skipped its chain."""
        for record in txn.deferred:
            self._build_versions(txn, self._tables[record.table], record)
        txn.deferred.clear()

    def live_versions(self) -> int:
        """Total version-chain entries across all tables."""
        total = 0
        for store in self._version_stores:
            total += store.live_versions
        return total

    def vacuum(self) -> int:
        """Trim version history invisible to every live snapshot.

        The horizon is the oldest snapshot LSN among active transactions.
        With none live it is where the next snapshot would start (the WAL
        tail, or on a replica the applied primary LSN its shipped entries
        carry), collapsing all chains.  Runs automatically once
        ``auto_vacuum_versions`` accumulate (:meth:`_vacuum_if_due`) and
        from :meth:`checkpoint`; safe to call any time.  Returns versions
        freed.
        """
        horizon = self.txns.oldest_snapshot_lsn(max(self.wal.last_lsn, self.snapshot_floor))
        freed = 0
        for table in self._tables.values():
            freed += table.versions.vacuum(horizon)
        self.vacuum_runs += 1
        if self.obs.enabled and freed:
            self._c_mvcc["versions_gc"].value += float(freed)
            self.obs.event(
                "mvcc.vacuum", "engine", track="engine",
                attrs={"freed": freed, "horizon_lsn": horizon},
            )
        return freed

    def _vacuum_if_due(self) -> None:
        """Vacuum once ``auto_vacuum_versions`` have accumulated: after a
        commit that built chain entries, and after each replica batch."""
        if self.live_versions() >= self.auto_vacuum_versions:
            self.vacuum()

    def _keeps_history(self, versions: VersionStore, key: Any, new_key: Any) -> bool:
        """Whether a write of ``key`` (moved to ``new_key``) builds chain
        entries -- live, redo and replica apply alike: while a snapshot
        that may read them is live, or while either key has a chain,
        which must stay in step (else undo pops committed history and a
        later snapshot reads a stale head)."""
        return self.txns.live_snapshots or versions.live_versions and (
            key in versions or new_key in versions
        )

    def _logged(
        self, txn: Transaction, table: Table, record: LogRecord, key: Any, new_key: Any
    ) -> None:
        """Book a logged and applied data record on ``txn``: its undo
        chain head (``last_lsn``), counters, and version-chain entries.

        A write :meth:`_keeps_history` does not chain waits on
        ``txn.deferred`` until a snapshot begins.  One it chains comes
        after ``txn``'s deferred entries, so its chains stay in write
        order (a move onto a chained key must not take the row it
        inserted for base).
        """
        if self._keeps_history(table.versions, key, new_key):
            if txn.deferred:
                self._build_deferred(txn)
            self._build_versions(txn, table, record)
        else:
            txn.deferred.append(record)
        txn.last_lsn = record.lsn
        txn.writes += 1

    def _insert(self, txn: Transaction, table: Table, values: Sequence[Any]) -> None:
        schema = table.schema
        next_auto = None
        if DEFAULT in values and any(
            value is DEFAULT and column.autoincrement
            for value, column in zip(values, schema.columns)
        ):
            next_auto = table.next_autoincrement()
        row = schema.coerce_row(values, next_auto=next_auto)
        key = row[schema.primary_key_index]
        # Check all unique constraints before logging, so a failed insert
        # leaves no WAL record for recovery to trip over; the placement
        # below does not check them again.
        table.check_unique(row)
        self._lock_row(txn, table.name, key, EXCLUSIVE)
        self._check_write_conflict(txn, table, key)
        if txn.deadline is not None:
            self._deadline_guard(txn, "WAL append")
        record = self.wal.append(
            txn.txn_id, INSERT, table=table.name, key=key, after=row
        )
        table.place_row(row)
        self._logged(txn, table, record, key, key)

    def _update(
        self,
        txn: Transaction,
        table: Table,
        rid,
        before: Tuple[Any, ...],
        after: Tuple[Any, ...],
        keys_unchanged: bool = False,
    ) -> None:
        schema = table.schema
        if not keys_unchanged:
            after = schema.coerce_row(after)
            # Validate unique constraints before the WAL record exists.
            table.check_unique(after, exclude_rid=rid)
        key = before[schema.primary_key_index]
        new_key = key if keys_unchanged else after[schema.primary_key_index]
        self._lock_row(txn, table.name, key, EXCLUSIVE)
        self._check_write_conflict(txn, table, key)
        if new_key != key:
            # The moved row is this transaction's uncommitted insert under
            # its new key: lock that key as an INSERT would, or another
            # writer could delete the row (or own a delete of the key that
            # its rollback would undo on top of it).
            self._lock_row(txn, table.name, new_key, EXCLUSIVE)
            self._check_write_conflict(txn, table, new_key)
        if txn.deadline is not None:
            self._deadline_guard(txn, "WAL append")
        record = self.wal.append(
            txn.txn_id, UPDATE, table.name, key, before, after,
        )
        if keys_unchanged:
            table.overwrite_row(rid, after)
        else:
            table.update_row(rid, after)
        self._logged(txn, table, record, key, new_key)

    def _delete(
        self, txn: Transaction, table: Table, rid, before: Tuple[Any, ...]
    ) -> None:
        key = before[table.schema.primary_key_index]
        self._lock_row(txn, table.name, key, EXCLUSIVE)
        self._check_write_conflict(txn, table, key)
        if txn.deadline is not None:
            self._deadline_guard(txn, "WAL append")
        record = self.wal.append(
            txn.txn_id, DELETE, table=table.name, key=key, before=before
        )
        table.delete_row(rid)
        self._logged(txn, table, record, key, key)

    # -- checkpointing and crash recovery -------------------------------------------------

    def checkpoint(self, truncate_wal: bool = False) -> int:
        """Quiesced checkpoint: vacuum, snapshot every table, log it.

        Returns the checkpoint LSN.  Raises if transactions are active,
        because the recovery protocol assumes checkpoint images contain
        no uncommitted data.

        With ``truncate_wal`` the records preceding the checkpoint are
        dropped (log archiving): recovery never needs them -- a DECISION
        another shard's in-doubt branch may still need is carried by
        the CHECKPOINT record itself (:meth:`WriteAheadLog.
        log_checkpoint`) -- and append listeners received every record
        synchronously as it was logged, so replication is unaffected.
        """
        if self.txns.active:
            raise EngineError(
                f"checkpoint requires quiescence; active txns: {sorted(self.txns.active)}"
            )
        # Quiescence means no live snapshot: vacuum collapses every chain
        # so the checkpoint images carry no version history.
        self.vacuum()
        snapshots = {name: table.snapshot() for name, table in self._tables.items()}
        # the image is the restart base only once its record is logged;
        # the record carries the DECISIONs a peer may still need
        record = self.wal.log_checkpoint()
        self._checkpoint_snapshots = snapshots
        for table in self._tables.values():
            table.dirty_rows = set()
        self.checkpoint_lsn = record.lsn
        if truncate_wal:
            self.wal.truncate(record.lsn)
        return record.lsn

    def install_checkpoint(self, checkpoint_lsn: int, carried: tuple = ()) -> None:
        """Adopt the current tables as the durable base image at
        ``checkpoint_lsn`` without logging anything.

        Standby bootstrap: after :meth:`clone_full` copied the primary's
        rows, this stamps the copy as a checkpoint taken at the
        primary's durable horizon and positions the (pristine) WAL so
        shipped records continue the primary's LSN sequence.  From then
        on ``crash() + recover()`` replays exactly the shipped suffix --
        which is what promotion does.  ``carried`` are the primary's
        unforgotten DECISIONs, carried as a CHECKPOINT record would.
        """
        if self.txns.active:
            raise EngineError("install_checkpoint requires quiescence")
        self._checkpoint_snapshots = {
            name: table.snapshot() for name, table in self._tables.items()
        }
        for table in self._tables.values():
            table.dirty_rows = set()
        self.checkpoint_lsn = checkpoint_lsn
        self.wal.start_from(checkpoint_lsn + 1, carried)

    def reset_for_restore(self) -> None:
        """Blank the instance so a backup image can be loaded into it.

        Point-in-time restore entry point: drops every table, wipes the
        WAL back to pristine (so :meth:`install_checkpoint` /
        ``wal.start_from`` apply), clears checkpoint images, and resets
        transaction/lock state.  Requires quiescence -- a restore over
        live transactions would tear them.
        """
        if self.txns.active:
            raise EngineError(
                f"reset_for_restore requires quiescence; active txns: "
                f"{sorted(self.txns.active)}"
            )
        self._tables = {}
        self._version_stores = ()
        self._checkpoint_snapshots = {}
        self.checkpoint_lsn = 0
        self.snapshot_floor = 0
        self.wal.reset_for_restore()
        self.locks = LockManager(observer=self.obs)
        self.txns = TransactionManager()
        self._prepared.clear()

    def crash(self) -> None:
        """Simulate an instance crash: lose all volatile state.

        Tables revert to the last checkpoint image (empty if none); the
        WAL survives (it is the durable part).  Locks and active
        transactions vanish.  Call :meth:`recover` to replay the tail.

        Each table puts back only the rows written since its image was
        installed (``Table.dirty_rows``; a table nothing wrote costs
        O(1)), and drops its version chains.
        """
        empty = TableSnapshot([], 1, [])
        for name, table in self._tables.items():
            table.restore_snapshot(self._checkpoint_snapshots.get(name, empty))
        # In-flight transaction handles die with the instance.
        for txn in list(self.txns.active.values()):
            txn.state = ABORTED
        self.locks = LockManager(observer=self.obs)
        if self.obs.enabled:
            self.obs.count("engine.crash")
            self.obs.event("db.crash", "engine", track="engine",
                           attrs={"db": self.name})
        # Transaction ids must stay monotone across restarts: a reused id
        # would let a post-crash ABORT record poison an identically-
        # numbered committed transaction from before the crash.  The log
        # keeps the XID high-water mark, truncated records included.
        self.txns = TransactionManager(start_id=self.wal.max_txn_id() + 1)
        # A fired crash point left the log refusing appends; the restart
        # revives it (the durable records themselves survived).
        self.wal.revive()
        self._at_image = True

    def recover(self) -> RecoveryReport:
        """ARIES-style restart recovery (see :mod:`repro.engine.recovery`).

        Replay starts from the checkpoint image, restored once: an
        instance :meth:`crash` has not just reset (live, or already
        recovered) is reset here first, never redone on top of itself.
        """
        if not self._at_image:
            self.crash()
        try:
            return recover(self)
        finally:
            self._at_image = False

    # -- consistency checking -------------------------------------------------------------

    def content_hash(self) -> str:
        """Order-independent hash of committed row contents.

        Identical logical states hash identically regardless of physical
        row placement, which is what the replication consistency checks
        compare across primary and replicas.
        """
        import hashlib

        digest = hashlib.sha256()
        for tbl in (self._tables[name] for name in sorted(self._tables)):
            digest.update(tbl.name.encode())
            acc = 0
            for _rid, row in tbl.scan():
                row_digest = hashlib.sha256(repr(row).encode()).digest()
                acc ^= int.from_bytes(row_digest[:16], "big")
            digest.update(acc.to_bytes(16, "big"))
        return digest.hexdigest()

    def same_content(self, other: "Database") -> bool:
        """True when both databases hold the same committed rows.
        Unused by the product: the oracle replica tests compare with."""
        return self.content_hash() == other.content_hash()

    # -- cloning (replica bootstrap) ----------------------------------------------------

    def clone_schema(
        self,
        name: str,
        observer: Optional[Observer] = None,
    ) -> "Database":
        """A new empty database with the same tables and indexes."""
        clone = Database(name, default_isolation=self.default_isolation,
                         observer=observer)
        for table in self._tables.values():
            clone.create_table(table.schema)
            for index in table.secondary_indexes.values():
                clone.create_index(
                    table.name,
                    index.name,
                    index.columns,
                    unique=index.unique,
                    ordered=hasattr(index, "range"),
                )
        return clone

    def clone_full(self, name: str, observer: Optional[Observer] = None) -> "Database":
        """Schema clone plus a copy of all current rows (base backup),
        each table loaded in bulk from a scan of this one."""
        if self.txns.active:
            raise EngineError(f"clone_full requires a quiesced database, {self.name!r} is not")
        clone = self.clone_schema(name, observer=observer)
        for table in self._tables.values():
            clone.table(table.name).load(map(itemgetter(1), table.scan()))
        return clone
