"""Hash partitioning: which shard owns a row, which shard runs a statement.

Routing is a pure function of (table, partition-key value, shard
count).  The hash must be *stable across processes* -- Python's builtin
``hash`` is salted per interpreter, so the multiprocess load driver and
the inline fleet would disagree about row placement.  CRC32 over the
repr of the value's :func:`canonical_key` is deterministic everywhere
and cheap; the canonical key makes every value the engine's equality
matches with a stored key hash like it (``2``, ``2.0`` and ``True`` are
one key of an INT column).
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.engine.errors import EngineError, SchemaError
from repro.engine.sql import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.engine.types import STORED_TYPE, ColumnType, Schema


class ShardError(EngineError):
    """A statement cannot be routed or merged across the fleet."""


def stable_hash(value: Any) -> int:
    """Process-stable 32-bit hash of a partition-key value.

    ``repr`` canonicalizes: ints, floats and strings each map to one
    byte sequence per logical value, unlike the salted builtin ``hash``.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


def canonical_key(value: Any, column_type: ColumnType, insert: bool = False) -> Any:
    """The value a partition key of ``column_type`` is hashed as.

    An INSERT value hashes as the shard will store it (coerced).  Any
    other value hashes as the stored value it equals, if the conversion
    to the column's Python type is exact (``2.0`` and ``True`` as ``2``
    and ``1`` in an INT column, ``2`` as ``2.0`` in a DECIMAL one), and
    as itself when no stored key can equal it (``'2'`` in an INT
    column).  A value of the column's own type is its own key.
    """
    stored = STORED_TYPE[column_type]
    if type(value) is stored:
        return value
    try:
        if insert:
            return column_type.coerce(value)
        as_stored = stored(value)
    except (SchemaError, TypeError, ValueError, OverflowError):
        return value  # the shard refuses it, or nothing stored equals it
    return as_stored if as_stored == value else value


class ShardRouter:
    """Maps partition-key values to shard ids for registered tables."""

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ShardError("a fleet needs at least one shard")
        self.n_shards = n_shards
        self._partition_keys: Dict[str, str] = {}
        #: bumped on every (re-)registration; cached route plans carry
        #: the version they were compiled under and miss when it moves
        self._version = 0

    def register(self, table: str, column: str) -> None:
        """Declare ``column`` as the partition key of ``table``."""
        self._partition_keys[table.upper()] = column.upper()
        self._version += 1

    def partition_column(self, table: str) -> str:
        try:
            return self._partition_keys[table.upper()]
        except KeyError:
            raise ShardError(f"no partition key registered for {table!r}") from None

    def shard_for(self, table: str, value: Any) -> int:
        """Owning shard of the row of ``table`` keyed by ``value``, a
        value of the partition column's stored type."""
        self.partition_column(table)  # validate registration
        return stable_hash(value) % self.n_shards

    def split_rows(
        self, schema: Schema, rows: Iterable[Sequence[Any]]
    ) -> List[List[Sequence[Any]]]:
        """Full rows of one table bucketed by owning shard, each bucket
        in input order (the fleet loaders): the partition column is
        resolved once, then each distinct partition value costs one
        hash and every row one dict probe (ORDERLINE's ten rows an
        order share its ``OL_O_ID``)."""
        position = schema.column_index(self.partition_column(schema.table))
        column_type = schema.columns[position].type
        n_shards = self.n_shards
        buckets: List[List[Sequence[Any]]] = [[] for _ in range(n_shards)]
        # equal values share one canonical key, so they may share an entry
        owners: Dict[Any, int] = {}
        for row in rows:
            value = row[position]
            owner = owners.get(value)
            if owner is None:
                owner = owners[value] = (
                    stable_hash(canonical_key(value, column_type)) % n_shards
                )
            buckets[owner].append(row)
        return buckets

    # -- statement routing ---------------------------------------------------

    def route_prepared(
        self, prepared, params: Sequence[Any]
    ) -> Optional[int]:
        """The single shard a statement targets, or ``None`` for fan-out.

        A statement is single-shard when its WHERE clause pins the
        table's partition key with equality (or, for INSERT, when the
        row being inserted carries a concrete partition-key value).
        Everything else scatters to all shards; INSERTs must always
        route, so an INSERT without a concrete partition value raises.

        The plan -- which statement value pins the partition key -- is
        a function of the statement shape alone, so it compiles once
        and is memoised on the prepared object.  Parameter values stay
        run-time: the same plan hashes a different key per call.
        """
        cached = prepared.route_plan
        if cached is None or cached[0] != self._version:
            statement = prepared.statement
            partition = self.partition_column(statement.table)
            plan = self._compile_route(
                statement, prepared.table.schema, partition
            )
            cached = (self._version, plan, statement.table, partition)
            prepared.route_plan = cached
        return self._run_route(cached[1], cached[2], cached[3], params)

    @staticmethod
    def _compile_route(statement: Statement, schema: Schema, partition: str):
        """Find the statement value that pins the partition key.

        Returns ``("insert", is_param, payload, column_type, stored)``
        for an INSERT that carries one, ``("where", candidates,
        column_type, stored)`` for a WHERE clause whose equality values
        are inspected per call (a NULL falls through to the next
        candidate; none left means fan-out), or ``("unroutable",)``.
        ``stored`` is the partition column's Python type: a value of it
        is hashed as is, any other through :func:`canonical_key`.
        """
        column_type = schema.column(partition).type
        stored = STORED_TYPE[column_type]
        if isinstance(statement, InsertStatement):
            columns = statement.columns or schema.column_names
            for column, value in zip(columns, statement.values):
                if column.upper() == partition:
                    if value.kind == "param":
                        return ("insert", True, value.param_index, column_type, stored)
                    if value.kind == "literal":
                        return ("insert", False, value.literal, column_type, stored)
                    break  # DEFAULT: decided by the shard, unknowable here
            return ("unroutable",)
        if isinstance(statement, (SelectStatement, UpdateStatement, DeleteStatement)):
            candidates = []
            for condition in statement.where:
                if condition.column.upper() == partition and condition.op == "=":
                    value = condition.value
                    if value.kind == "param":
                        candidates.append((True, value.param_index))
                    elif value.kind == "literal":
                        candidates.append((False, value.literal))
            return ("where", candidates, column_type, stored)
        raise ShardError(f"cannot route statement type {type(statement).__name__}")

    def _run_route(
        self, plan, table: str, partition: str, params: Sequence[Any]
    ) -> Optional[int]:
        kind = plan[0]
        n = self.n_shards
        if kind == "where":
            for is_param, payload in plan[1]:
                value = params[payload] if is_param else payload
                if value is not None:
                    if n == 1:
                        return 0  # one shard: any pinned value routes there, unhashed
                    if type(value) is not plan[3]:
                        value = canonical_key(value, plan[2])
                    return stable_hash(value) % n
            return None
        if kind == "insert":
            _kind, is_param, payload, column_type, stored = plan
            value = params[payload] if is_param else payload
            if value is not None:
                if n == 1:
                    return 0
                if type(value) is not stored:
                    value = canonical_key(value, column_type, insert=True)
                return stable_hash(value) % n
        raise ShardError(
            f"INSERT into {table} carries no concrete value for "
            f"partition key {partition}; sharded inserts must supply one "
            f"(autoincrement would mint conflicting ids per shard)"
        )
