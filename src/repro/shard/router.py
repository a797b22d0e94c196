"""Hash partitioning: which shard owns a row, which shard runs a statement.

Routing is a pure function of (table, partition-key value, shard
count).  The hash must be *stable across processes* -- Python's builtin
``hash`` is salted per interpreter, so the multiprocess load driver and
the inline fleet would disagree about row placement.  CRC32 over the
value's canonical repr is deterministic everywhere and cheap.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.engine.errors import EngineError
from repro.engine.sql import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from repro.engine.types import Schema


class ShardError(EngineError):
    """A statement cannot be routed or merged across the fleet."""


def stable_hash(value: Any) -> int:
    """Process-stable 32-bit hash of a partition-key value.

    ``repr`` canonicalizes: ints, floats and strings each map to one
    byte sequence per logical value, unlike the salted builtin ``hash``.
    """
    return zlib.crc32(repr(value).encode("utf-8"))


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
        """Owning shard of the row of ``table`` keyed by ``value``."""
        self.partition_column(table)  # validate registration
        return stable_hash(value) % self.n_shards

    def split_rows(
        self, schema: Schema, rows: Iterable[Sequence[Any]]
    ) -> List[List[Sequence[Any]]]:
        """Full rows of one table bucketed by owning shard, each bucket
        in input order (the fleet loaders): the partition column is
        resolved once, then each row costs one hash."""
        position = schema.column_index(self.partition_column(schema.table))
        n_shards = self.n_shards
        buckets: List[List[Sequence[Any]]] = [[] for _ in range(n_shards)]
        for row in rows:
            buckets[stable_hash(row[position]) % n_shards].append(row)
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

        Returns ``("value", is_param, payload)`` when one exists,
        ``("candidates", [...])`` for a WHERE clause whose equality
        values must be inspected per call (a NULL falls through to the
        next candidate), ``("fanout",)`` or ``("unroutable",)``.
        """
        if isinstance(statement, InsertStatement):
            columns = statement.columns or schema.column_names
            for column, value in zip(columns, statement.values):
                if column.upper() == partition:
                    if value.kind == "param":
                        return ("insert", True, value.param_index)
                    if value.kind == "literal":
                        return ("insert", False, value.literal)
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
            return ("where", candidates)
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
                    # one shard: any pinned value routes there, unhashed
                    return 0 if n == 1 else stable_hash(value) % n
            return None
        if kind == "insert":
            _kind, is_param, payload = plan
            value = params[payload] if is_param else payload
            if value is not None:
                return 0 if n == 1 else stable_hash(value) % n
        raise ShardError(
            f"INSERT into {table} carries no concrete value for "
            f"partition key {partition}; sharded inserts must supply one "
            f"(autoincrement would mint conflicting ids per shard)"
        )
