"""The fleet facade: N real engine databases behind one SQL surface.

:class:`ShardedDatabase` looks like a :class:`~repro.engine.database.
Database` to callers -- ``create_table`` / ``execute`` / ``query`` /
``crash`` / ``recover`` -- but spreads rows across shards by hashed
partition key.  Statements that pin the partition key run on exactly
one shard (the fast path the scale-out claim rests on); the rest
scatter to every shard and merge at the gateway.

Crash recovery is fleet-aware: after per-shard ARIES recovery the
coordinator resolves each in-doubt branch against the *union* of
durable DECISIONs across the fleet -- committed if any shard decided
it, presumed aborted once every shard is up -- so a coordinator crash
between PREPARE and the decisions leaves every branch of a global
transaction applied, or none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.datagen import DataGenerator, GeneratedData, gc_paused
from repro.core.schema import create_sales_schema
from repro.engine.database import Database
from repro.engine.errors import LockTimeoutError, ShardUnavailableError, SimulatedCrash
from repro.engine.executor import Prepared, ResultSet
from repro.engine.recovery import RecoveryReport
from repro.engine.sql import InsertStatement, SelectStatement
from repro.engine.txn import IsolationLevel
from repro.engine.types import Schema
from repro.obs import NULL_OBSERVER, Observer
from repro.shard.coordinator import GlobalTransaction, TxnCoordinator
from repro.shard.router import ShardError, ShardRouter


@dataclass
class FleetRecoveryReport:
    """Outcome of a fleet-wide crash recovery."""

    shard_reports: List[RecoveryReport] = field(default_factory=list)
    #: gtids with a durable DECISION record somewhere in the fleet
    decided_gtids: set = field(default_factory=set)
    resolved_commit: int = 0
    resolved_abort: int = 0

    @property
    def in_doubt(self) -> int:
        return self.resolved_commit + self.resolved_abort


class ShardedDatabase:
    """A hash-partitioned fleet of engine databases."""

    def __init__(
        self,
        n_shards: int,
        name: str = "fleet",
        observer: Optional[Observer] = None,
        chaos=None,
    ):
        if n_shards < 1:
            raise ShardError("a fleet needs at least one shard")
        self.name = name
        self.obs = observer or NULL_OBSERVER
        self.chaos = chaos
        self.shards = [
            Database(f"{name}-s{shard_id}", observer=observer)
            for shard_id in range(n_shards)
        ]
        self.router = ShardRouter(n_shards)
        self.coordinator = TxnCoordinator(
            self.shards, observer=observer, chaos=chaos, name=name
        )

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    # -- catalog -------------------------------------------------------------

    def create_table(self, schema: Schema) -> None:
        """Create ``schema`` on every shard, partitioned by its primary key."""
        for shard in self.shards:
            shard.create_table(schema)
        self.router.register(schema.table, schema.primary_key)

    def create_index(
        self, table: str, name: str, columns: Sequence[str],
        unique: bool = False, ordered: bool = False,
    ) -> None:
        for shard in self.shards:
            shard.create_index(table, name, columns, unique=unique, ordered=ordered)

    def all_rows(self, table: str) -> List[Tuple[Any, ...]]:
        """Every committed row of ``table`` across the fleet, sorted.
        Unused by the product: the oracle the router tests compare the
        placement of routed writes against."""
        return sorted(
            itertools.chain.from_iterable(
                (row for _rid, row in shard.table(table).scan())
                for shard in self.shards
            )
        )

    @property
    def fsyncs(self) -> int:
        """Total WAL fsync-equivalents across the fleet."""
        return sum(shard.wal.fsyncs for shard in self.shards)

    # -- transactions --------------------------------------------------------

    def begin(
        self,
        isolation: Optional[IsolationLevel] = None,
        deadline=None,
        gtid: Optional[str] = None,
    ) -> GlobalTransaction:
        """Start a global transaction.

        ``gtid`` is the client's retry token: replaying a commit whose
        ack was lost under its original id makes the commit idempotent
        (see :meth:`~repro.shard.coordinator.TxnCoordinator.begin`).
        """
        return self.coordinator.begin(
            isolation=isolation, deadline=deadline, gtid=gtid
        )

    # -- SQL -----------------------------------------------------------------

    def execute(
        self,
        sql: str | Prepared,
        params: Sequence[Any] = (),
        gtxn: Optional[GlobalTransaction] = None,
    ) -> ResultSet:
        """Route and run one statement.

        Single-shard statements go straight to the owning shard (inside
        ``gtxn`` they enlist that shard as a branch).  Fan-out writes
        outside a global transaction are wrapped in one, so a scattered
        UPDATE is still atomic across shards via 2PC.  :meth:`query`
        passes on the statement shard 0 prepared: one cache probe each.
        """
        # Shard 0 parses and validates; other shards re-prepare the text
        # against their own (identical) catalog through the LRU plan cache.
        prepared = self.shards[0].prepare(sql) if isinstance(sql, str) else sql
        sql = prepared.sql
        statement = prepared.statement
        shard_id = self.router.route_prepared(prepared, params)
        if shard_id is not None:
            if self.obs.enabled:
                self.obs.count("shard.stmt.single_shard")
            return self._run_on_shard(shard_id, sql, params, gtxn, prepared)
        if self.obs.enabled:
            self.obs.count("shard.stmt.fanout")
        if gtxn is None and not isinstance(statement, SelectStatement):
            with self.begin() as wrapper:
                return self._fanout(sql, params, statement, wrapper)
        return self._fanout(sql, params, statement, gtxn)

    def query(
        self,
        sql: str,
        params: Sequence[Any] = (),
        gtxn: Optional[GlobalTransaction] = None,
    ) -> ResultSet:
        """Read-only :meth:`execute`; rejects anything but SELECT,
        inside ``gtxn`` as well as outside."""
        prepared = self.shards[0].prepare(sql)
        if not isinstance(prepared.statement, SelectStatement):
            raise ShardError(f"query() is read-only: {sql.strip()[:60]!r}")
        return self.execute(prepared, params, gtxn=gtxn)

    def _shard_db(self, shard_id: int) -> Database:
        """The live database currently serving ``shard_id``.

        The HA fleet overrides this to gate on failover state (raising
        :class:`~repro.engine.errors.ShardUnavailableError` while a
        shard is between primaries).
        """
        return self.shards[shard_id]

    def _run_on_shard(
        self,
        shard_id: int,
        sql: str,
        params: Sequence[Any],
        gtxn: Optional[GlobalTransaction],
        prepared=None,
    ) -> ResultSet:
        """Run one routed statement on one shard.

        When the routing :class:`~repro.engine.executor.Prepared` was
        built against the very database object serving the shard, it is
        handed over directly, skipping a plan-cache probe.  A promoted
        standby is a *different* database object, so after failover the
        text path (and the shard's own plan cache) takes over.

        A dead shard's WAL raises the engine-internal
        :class:`~repro.engine.errors.SimulatedCrash` on the first append
        (even a read pays a BEGIN record); clients should instead see a
        retryable :class:`~repro.engine.errors.ShardUnavailableError`
        that names the shard and classifies correctly for the resilience
        stack's breakers and retry budget.  So does a statement that
        meets the locks of an in-doubt branch held (in the coordinator's
        ``dangling``) until a down shard is back: it names that shard.
        """
        try:
            shard = self._shard_db(shard_id)
            stmt = prepared if (prepared is not None and shard is prepared.db) else sql
            if gtxn is None:
                result = shard.execute(stmt, params)
                if self.coordinator.awaiting:
                    self.coordinator.note_flushed(shard_id, shard.wal.flushed_lsn)
                return result
            return shard.execute(stmt, params, txn=gtxn.local(shard_id))
        except SimulatedCrash as crash:
            if self.obs.enabled:
                self.obs.count("shard.stmt.unavailable")
            raise ShardUnavailableError(
                f"shard {shard_id} is down mid-statement; retry after failover",
                shard_id=shard_id,
            ) from crash
        except LockTimeoutError as timeout:
            down = [i for i, db in enumerate(self.shards) if db.wal.is_dead]
            held = {g.locals[shard_id].txn_id for g in self.coordinator.dangling
                    if shard_id in g.locals}
            if not down or held.isdisjoint(timeout.holders):
                raise
            raise ShardUnavailableError(
                f"shard {shard_id} holds the row for an in-doubt transaction "
                f"until shard {down[0]} is back; retry then",
                shard_id=down[0],
            ) from timeout

    def _fanout(
        self,
        sql: str,
        params: Sequence[Any],
        statement,
        gtxn: Optional[GlobalTransaction],
    ) -> ResultSet:
        if isinstance(statement, InsertStatement):  # route_statement raises first
            raise ShardError("INSERT cannot fan out")  # pragma: no cover
        columns: Tuple[str, ...] = ()
        per_shard_rows: List[List[Tuple[Any, ...]]] = []
        rowcount = 0
        for shard_id in range(self.n_shards):
            result = self._run_on_shard(shard_id, sql, params, gtxn)
            columns = result.columns or columns
            per_shard_rows.append(result.rows)
            rowcount += result.rowcount
        if not isinstance(statement, SelectStatement):
            return ResultSet(columns, [], rowcount)
        if statement.group_by is not None:
            raise ShardError(
                "GROUP BY cannot be merged across shards; "
                "pin the partition key or query shards individually"
            )
        if any(item.is_aggregate for item in statement.items):
            rows = [self._merge_aggregates(statement, per_shard_rows)]
            return ResultSet(columns, rows, 1)
        rows = list(itertools.chain.from_iterable(per_shard_rows))
        rows = self._merge_order(statement, columns, rows)
        return ResultSet(columns, rows, len(rows))

    @staticmethod
    def _merge_aggregates(
        statement: SelectStatement,
        per_shard_rows: List[List[Tuple[Any, ...]]],
    ) -> Tuple[Any, ...]:
        """Combine per-shard aggregate results (the decomposable ones)."""
        merged: List[Any] = []
        for index, item in enumerate(statement.items):
            values = [rows[0][index] for rows in per_shard_rows if rows]
            present = [value for value in values if value is not None]
            if item.aggregate == "COUNT" and not item.distinct:
                merged.append(sum(values))
            elif item.aggregate == "SUM":
                merged.append(sum(present) if present else None)
            elif item.aggregate == "MIN":
                merged.append(min(present) if present else None)
            elif item.aggregate == "MAX":
                merged.append(max(present) if present else None)
            else:
                raise ShardError(
                    f"{item.aggregate}{' DISTINCT' if item.distinct else ''} "
                    "is not decomposable across shards"
                )
        return tuple(merged)

    @staticmethod
    def _merge_order(
        statement: SelectStatement,
        columns: Tuple[str, ...],
        rows: List[Tuple[Any, ...]],
    ) -> List[Tuple[Any, ...]]:
        """Re-establish ORDER BY / LIMIT over the concatenated shards."""
        if statement.order_by is not None:
            if statement.order_by not in columns:
                raise ShardError(
                    f"ORDER BY {statement.order_by} must be in the select "
                    "list to merge across shards"
                )
            index = columns.index(statement.order_by)
            # NULLS LAST in both directions, matching the executor.
            present = [row for row in rows if row[index] is not None]
            absent = [row for row in rows if row[index] is None]
            present.sort(key=lambda row: row[index], reverse=statement.order_desc)
            rows = present + absent
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return rows

    # -- crash and recovery --------------------------------------------------

    def crash(self) -> None:
        """Whole-fleet failure: every shard loses volatile state and the
        coordinator dies with its in-flight protocol state."""
        next_gtid = self.coordinator.next_gtid
        for shard in self.shards:
            shard.crash()
        self.coordinator = TxnCoordinator(
            self.shards, observer=self.obs, chaos=self.chaos,
            name=self.name, start_gtid=next_gtid,
        )

    def _recover_shard(self, shard_id: int) -> RecoveryReport:
        """Restart one shard and replay its log.

        Disarms any still-armed WAL crash point; ``Database.recover``
        resets a shard no crash has just reset.  So recovery converges to
        the same resolved state, and restores the checkpoint image once,
        whether the fleet crashed once, twice, never, or with a fault
        scheduled but unfired.
        """
        shard = self.shards[shard_id]
        shard.wal.disarm_crash()
        return shard.recover()

    def recover(self) -> FleetRecoveryReport:
        """Per-shard ARIES recovery, then fleet-level in-doubt resolution.

        Idempotent: recovering twice, or recovering a fleet that never
        crashed, converges to the same resolved state (each pass resets
        shards to their checkpoint image and replays the same durable
        log; in-doubt branches resolved by an earlier pass are winners
        to the next one).
        """
        reports = [self._recover_shard(shard_id) for shard_id in range(self.n_shards)]
        return self._resolve_in_doubt(reports)

    def _resolve_in_doubt(
        self,
        shard_reports: Sequence[RecoveryReport],
        shard_ids: Optional[Sequence[int]] = None,
    ) -> FleetRecoveryReport:
        """Resolve in-doubt branches against the fleet-wide decision union
        (:meth:`~repro.shard.coordinator.TxnCoordinator.resolve`);
        ``shard_ids`` maps each report to its shard (defaults to all
        shards in order), so a single promoted shard resolves against the
        whole fleet's decisions."""
        report = FleetRecoveryReport(shard_reports=list(shard_reports))
        if shard_ids is None:
            shard_ids = range(len(report.shard_reports))
        report.resolved_commit, report.resolved_abort = self.coordinator.resolve(
            list(zip(shard_ids, report.shard_reports)), report.decided_gtids
        )
        if self.obs.enabled and report.in_doubt:
            self.obs.event(
                "fleet.recovery", "shard", track="shard",
                attrs={
                    "resolved_commit": report.resolved_commit,
                    "resolved_abort": report.resolved_abort,
                },
            )
        return report


# -- sales-schema helpers ------------------------------------------------------


def sales_router(n_shards: int) -> ShardRouter:
    """The canonical sales-schema partitioning.

    CUSTOMER and ORDERS partition by primary key; ORDERLINE partitions
    by ``OL_O_ID`` so an order's lines are co-located with the order --
    the new-order and order-assembly flows stay single-shard.
    """
    router = ShardRouter(n_shards)
    router.register("CUSTOMER", "C_ID")
    router.register("ORDERS", "O_ID")
    router.register("ORDERLINE", "OL_O_ID")
    return router


def _create_sales_fleet_schema(fleet: ShardedDatabase) -> None:
    create_sales_schema(fleet)
    # create_sales_schema registered primary keys; ORDERLINE co-locates
    # with its order instead.
    fleet.router.register("ORDERLINE", "OL_O_ID")


def load_sales_fleet(
    n_shards: int,
    row_scale: float = 0.002,
    seed: int = 42,
    name: str = "fleet",
    observer: Optional[Observer] = None,
    chaos=None,
) -> Tuple[ShardedDatabase, GeneratedData]:
    """A sharded fleet with the sales data loaded and routed."""
    fleet = ShardedDatabase(n_shards, name=name, observer=observer, chaos=chaos)
    _create_sales_fleet_schema(fleet)
    generator = DataGenerator(1, row_scale, seed)
    _load_routed(generator, fleet.router, dict(enumerate(fleet.shards)))
    data = GeneratedData(
        scale_factor=1,
        row_scale=row_scale,
        rows=generator.materialised_rows(),
    )
    return fleet, data


def load_sales_shard(
    shard_id: int,
    n_shards: int,
    row_scale: float = 0.002,
    seed: int = 42,
) -> Database:
    """One shard's slice of the scale-factor-1 sales data, as a
    standalone database.

    The multiprocess load driver calls this in each worker: the same
    deterministic row stream is generated everywhere and filtered by
    the same stable hash, so worker-local shards hold exactly the rows
    the inline fleet would give them.
    """
    if not 0 <= shard_id < n_shards:
        raise ShardError(f"shard_id {shard_id} out of range for {n_shards} shards")
    db = Database(f"shard-{shard_id}")
    create_sales_schema(db)
    _load_routed(
        DataGenerator(1, row_scale, seed), sales_router(n_shards),
        {shard_id: db},
    )
    return db


def _load_routed(
    generator: DataGenerator, router: ShardRouter, shards: Dict[int, Database]
) -> None:
    """Load ``shards`` (shard id -> database) with the rows ``router``
    gives them, a table at a time, then checkpoint each: the bulk load
    bypassed the WAL, so the loaded state becomes each shard's durable
    base image (``crash()`` restores it)."""
    with gc_paused():
        for table_name, rows in generator.iter_tables():
            schema = next(iter(shards.values())).table(table_name).schema
            buckets = router.split_rows(schema, rows)
            for shard_id, db in shards.items():
                db.table(table_name).load(buckets[shard_id])
        for db in shards.values():
            db.checkpoint()
