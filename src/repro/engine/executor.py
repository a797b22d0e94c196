"""Statement planning and execution.

A prepared statement is **compiled** once (see
:mod:`repro.engine.compiler`): the access-path shape, residual
predicates with resolved column indexes, SET programs and INSERT row
sources are all derived from the statement shape at prepare time, so
per-execution work is reduced to binding parameter values and running
the row loop.  The access shapes:

* equality on the primary key        -> point lookup
* equalities covering a secondary    -> index lookup + residual filter
* range predicate on an ordered key  -> index range scan
* otherwise                          -> full scan

The row loop is batched: candidates are materialised once per index
probe or scan and each residual predicate filters the whole batch in
one comprehension pass instead of a per-row closure call.

Reads take shared locks (exclusive under ``FOR UPDATE``), writes take
exclusive locks.  Under READ COMMITTED shared locks are released at the
end of the statement, and not taken where that changes nothing
(``LockManager.elide``); under SERIALIZABLE they are held to commit
(strict 2PL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.engine.compiler import (
    CompiledStatement,
    compile_statement,
    resolve_residual,
)
from repro.engine.errors import SchemaError, SqlError
from repro.engine.locks import EXCLUSIVE, SHARED, LockMode
from repro.engine.sql import (
    InsertStatement,
    SelectItem,
    SelectStatement,
    Statement,
    UpdateStatement,
    count_params,
    parse,
)
from repro.engine.table import Table
from repro.engine.txn import READ_COMMITTED, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.database import Database

_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


@dataclass(slots=True)
class ResultSet:
    """Rows produced by a statement plus the affected-row count."""

    columns: Tuple[str, ...]
    rows: List[Tuple[Any, ...]]
    rowcount: int

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def first(self) -> Optional[Tuple[Any, ...]]:
        return self.rows[0] if self.rows else None


class Prepared:
    """A parsed statement bound to a database catalog."""

    def __init__(self, db: "Database", sql: str):
        self.sql = sql
        self.statement: Statement = parse(sql)
        self.param_count = count_params(self.statement)
        self.table: Table = db.table(self.statement.table)
        schema = self.table.schema
        # Validate referenced columns eagerly so typos fail at prepare time.
        for condition in getattr(self.statement, "where", ()):
            schema.column_index(condition.column)
        if isinstance(self.statement, SelectStatement):
            for item in self.statement.items:
                if item.column is not None:
                    schema.column_index(item.column)
            if self.statement.order_by:
                schema.column_index(self.statement.order_by)
        elif isinstance(self.statement, InsertStatement):
            for column in self.statement.columns:
                schema.column_index(column)
            expected = len(self.statement.columns) or len(schema.columns)
            if len(self.statement.values) != expected:
                raise SqlError(
                    f"INSERT into {schema.table} expects {expected} values, "
                    f"got {len(self.statement.values)}"
                )
        elif isinstance(self.statement, UpdateStatement):
            for clause in self.statement.sets:
                schema.column_index(clause.column)
                if clause.delta_column is not None:
                    schema.column_index(clause.delta_column)
        self.db = db
        self.compiled = compile_statement(self.table, self.statement)
        #: route-plan cache slot for the shard router (set lazily there)
        self.route_plan = None

    def recompile(self):
        """Re-derive the compiled plan (the index set changed)."""
        self.compiled = compile_statement(self.table, self.statement)
        return self.compiled

    def arity_error(self, given: int) -> SqlError:
        return SqlError(
            f"{self.sql!r} expects {self.param_count} parameters, got {given}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Prepared {self.sql!r}>"


class Executor:
    """Executes prepared statements inside transactions."""

    def __init__(self, db: "Database"):
        self._db = db

    def execute(
        self, prepared: Prepared, params: Sequence[Any], txn: Transaction
    ) -> ResultSet:
        txn.ensure_active()
        if prepared.param_count != len(params):
            raise prepared.arity_error(len(params))
        compiled = prepared.compiled
        table = prepared.table
        if compiled.epoch != table.plan_epoch:
            # An index was created after this statement was prepared;
            # the cached plan may no longer be the best (or even refer
            # to the right access path).
            compiled = prepared.recompile()
        kind = compiled.kind
        if kind == "select":
            return self._select(prepared, compiled, params, txn)
        if kind == "update":
            return self._update(prepared, compiled, params, txn)
        if kind == "insert":
            return self._insert(prepared, compiled, params, txn)
        return self._delete(prepared, compiled, params, txn)

    def explain(self, prepared: Prepared, params: Sequence[Any]) -> str:
        """Describe the plan :meth:`execute` would run for ``params``:
        the compiled statement itself, checked and refreshed as there
        and bound the way :meth:`_match_rows` binds it -- there is no
        second planner for EXPLAIN to drift from."""
        if prepared.param_count != len(params):
            raise prepared.arity_error(len(params))
        compiled = prepared.compiled
        if compiled.epoch != prepared.table.plan_epoch:
            compiled = prepared.recompile()
        if compiled.kind == "insert":
            return f"insert into {prepared.table.name}"
        access = compiled.access
        if access.shape == "table_scan":
            description = "full table scan"
        elif access.shape == "index_range":
            low, incl_low, high, incl_high = self._resolve_bounds(access, params)
            left = "[" if incl_low else "("
            right = "]" if incl_high else ")"
            description = (f"index range scan via {access.index_name} "
                           f"{left}{low!r}, {high!r}{right}")
        else:
            key = tuple(
                params[payload] if is_param else payload
                for is_param, payload in access.key_sources or (access.key_source,)
            )
            lookup = "primary-key lookup" if access.shape == "pk_point" else "index lookup"
            description = (f"{lookup} via {access.index_name} "
                           f"(key={key if access.key_sources else key[0]!r})")
        if compiled.order_by:
            description += f"; sort by {compiled.order_by}"
            if compiled.limit is not None:
                description += f" limit {compiled.limit}"
        return description

    # -- planning and row matching -----------------------------------------------

    @staticmethod
    def _merge_bound(op: str, value, column: str, merged):
        """Fold one resolved range predicate into ``(low, incl_low,
        high, incl_high)``, with a typed comparison guard.

        A NULL bound or a bound whose type cannot be ordered against an
        earlier bound used to escape as a bare ``TypeError``; both are
        statement errors and surface as :class:`SqlError`.
        """
        low, incl_low, high, incl_high = merged
        if value is None:
            raise SqlError(
                f"range predicate on {column} compares against NULL; "
                f"use an equality or drop the bound"
            )
        try:
            if op in (">", ">="):
                if low is None or value > low or (value == low and op == ">"):
                    low, incl_low = value, op == ">="
            else:  # < or <=
                if high is None or value < high or (value == high and op == "<"):
                    high, incl_high = value, op == "<="
        except TypeError:
            other = low if op in (">", ">=") else high
            raise SqlError(
                f"range predicates on {column} mix incomparable types "
                f"{type(value).__name__} and {type(other).__name__}"
            ) from None
        return low, incl_low, high, incl_high

    @classmethod
    def _resolve_bounds(cls, access, params):
        """Bind params into a compiled range access's bounds."""
        merged = (None, True, None, True)
        column = access.range_column
        for op, (is_param, payload) in access.range_ops:
            value = params[payload] if is_param else payload
            merged = cls._merge_bound(op, value, column, merged)
        return merged

    @staticmethod
    def _filter_batch(pairs, residual):
        """Apply each resolved residual predicate to the whole candidate
        batch in one comprehension pass (no per-row closure calls).

        A predicate comparing incomparable types is a statement error,
        not an internal crash: the bare ``TypeError`` becomes
        :class:`SqlError`.
        """
        try:
            for idx, fn, value in residual:
                pairs = [
                    pair for pair in pairs
                    if (cell := pair[1][idx]) is not None and fn(cell, value)
                ]
        except TypeError as exc:
            raise SqlError(f"predicate comparison failed: {exc}") from None
        return pairs

    @staticmethod
    def _row_passes(row, residual):
        """Residual check for a single point-looked-up row."""
        try:
            for idx, fn, value in residual:
                cell = row[idx]
                if cell is None or not fn(cell, value):
                    return False
        except TypeError as exc:
            raise SqlError(f"predicate comparison failed: {exc}") from None
        return True

    def _match_rows(
        self,
        table: Table,
        access,
        params: Sequence[Any],
        txn: Transaction,
        mode: LockMode,
    ) -> List[Tuple[Any, Tuple[Any, ...]]]:
        """Return (rid, row) pairs satisfying the compiled access path.

        A key another transaction holds a lock on but the heap lacks
        (its uncommitted DELETE, or a primary-key move away) is met in
        ``mode``, as a present row's lock would be: by a point lookup of
        that key, and by any other access path whose match the removed
        row would have been (:meth:`_meet_deleters`).
        """
        shape = access.shape
        if shape == "pk_point":
            is_param, payload = access.key_source
            key = params[payload] if is_param else payload
            try:
                rid = table.find_by_key(key)
            except TypeError as exc:
                # an unhashable parameter ([1], {...}) from a JSON client
                raise SqlError(f"key lookup failed: {exc}") from None
            if rid is None:
                if self._db.locks.holders((table.name, key)).keys() - {txn.txn_id}:
                    self._db._lock_row(txn, table.name, key, mode)
                return []
            row = table.read_row(rid)
            raw = access.residual
            if raw and not self._row_passes(
                row, resolve_residual(raw, params)
            ):
                return []
            return [(rid, row)]
        residual = resolve_residual(access.residual, params)
        key = None  # an index_eq lookup's
        if shape == "index_eq":
            index = table.index_for_name(access.index_name)
            if access.key_source is not None:
                is_param, payload = access.key_source
                key = params[payload] if is_param else payload
            else:
                key = tuple(
                    params[payload] if is_param else payload
                    for is_param, payload in access.key_sources
                )
            try:
                rids = index.lookup(key)
            except TypeError as exc:
                raise SqlError(f"key lookup failed: {exc}") from None
            read = table.read_row
            pairs = [(rid, read(rid)) for rid in rids]
        elif shape == "index_range":
            low, incl_low, high, incl_high = self._resolve_bounds(access, params)
            index = table.index_for_name(access.index_name)
            read = table.read_row
            try:
                pairs = [
                    (rid, read(rid))
                    for _key, rid in index.range(low, high, incl_low, incl_high)
                ]
            except TypeError as exc:
                # A bound the indexed column cannot be ordered against
                # fails inside the index's bisect; like the same
                # predicate on an unindexed column, a statement error.
                raise SqlError(f"predicate comparison failed: {exc}") from None
        else:
            pairs = list(table.scan())
        self._meet_deleters(table, access, key, residual, txn, mode)
        return self._filter_batch(pairs, residual)

    def _meet_deleters(self, table: Table, access, key, residual, txn, mode) -> None:
        """Meet, in ``mode``, each key another transaction X-locks but the
        heap lacks where the row it removed -- the before-image in its log
        chain -- matches the access path (``key``: an ``index_eq``
        lookup's) and ``residual``."""
        db, name = self._db, table.name
        pk = table.schema.primary_key_index
        for gone, holder in db.locks.exclusive_elsewhere(name, txn.txn_id):
            if table.find_by_key(gone) is not None:
                continue
            # a locked key the heap lacks was removed by a record in its holder's chain
            chain = db.wal.transaction_chain(holder, db.txns.active[holder].last_lsn)
            image = next(record.before for record in chain if record.table == name
                         and record.before and record.before[pk] == gone)
            if access.shape == "index_eq" and table._index_key(
                    table.index_for_name(access.index_name).columns, image) != key:
                continue
            if self._row_passes(image, residual):
                db._lock_row(txn, name, gone, mode)

    def _match_rows_snapshot(
        self,
        table: Table,
        access,
        params: Sequence[Any],
        txn: Transaction,
    ) -> List[Tuple[Any, Tuple[Any, ...]]]:
        """Visibility-checked (rid, row) pairs for an MVCC read: no locks.

        Point lookups resolve through the key's version chain; every
        other plan goes through a visibility-checked scan, because
        secondary indexes track only the current heap and may miss rows
        the snapshot still sees (updated or deleted after it was taken).
        """
        if access.shape == "pk_point":
            is_param, payload = access.key_source
            key = params[payload] if is_param else payload
            try:
                row = table.visible_by_key(key, txn.snapshot_lsn, txn.txn_id)
            except TypeError as exc:
                raise SqlError(f"key lookup failed: {exc}") from None
            if row is None:
                return []
            raw = access.residual
            if raw and not self._row_passes(
                row, resolve_residual(raw, params)
            ):
                return []
            return [(None, row)]
        residual = resolve_residual(access.residual, params)
        pairs = list(table.snapshot_scan(txn.snapshot_lsn, txn.txn_id))
        return self._filter_batch(pairs, residual)

    # -- SELECT ----------------------------------------------------------------

    def _select(
        self,
        prepared: Prepared,
        compiled: CompiledStatement,
        params: Sequence[Any],
        txn: Transaction,
    ) -> ResultSet:
        table = prepared.table
        pk_index = compiled.pk_index
        shared_keys: List[Any] = []
        snapshot_read = txn.uses_mvcc and not compiled.for_update
        if snapshot_read:
            # Snapshot read: resolve versions, take no locks at all.
            matches = self._match_rows_snapshot(
                table, compiled.access, params, txn
            )
            if self._db._c_mvcc is not None:
                self._db._c_mvcc["snapshot_reads"].value += 1.0
        else:
            # Current read (lock-based levels, or FOR UPDATE under any
            # level, which needs the latest committed image plus a lock).
            matches = self._match_rows(
                table, compiled.access, params, txn,
                EXCLUSIVE if compiled.for_update else SHARED,
            )
            if compiled.for_update:
                # FOR UPDATE declares write intent over the whole
                # candidate set, before ordering -- the rows that lose
                # the LIMIT cut must not change under the winner.
                for _rid, row in matches:
                    self._db._lock_row(
                        txn, table.name, row[pk_index], EXCLUSIVE,
                    )
        # Row-level ORDER BY / LIMIT only apply to ungrouped selects;
        # grouped output is ordered by the group key.  Both run before
        # the shared locks are taken: a plain LIMIT-1 range read must
        # lock one row, not the whole candidate set.
        if not compiled.has_group:
            if compiled.order_index is not None:
                matches = self._order_matches(
                    matches, compiled.order_index, compiled.order_desc
                )
            if compiled.limit is not None:
                matches = matches[: compiled.limit]
        if not snapshot_read and not compiled.for_update:
            db = self._db
            name = table.name
            # READ COMMITTED drops each S lock when the statement ends:
            # past the deadline's cancellation point, where taking and
            # dropping it changes nothing, skip both
            transient = txn.isolation is READ_COMMITTED
            elide = db.locks.elide
            for _rid, row in matches:
                key = row[pk_index]
                if transient:
                    if txn.deadline is not None:
                        db._deadline_guard(txn, f"lock wait on {name}[{key!r}]")
                    if elide((name, key)):
                        continue
                    shared_keys.append(key)
                db._lock_row(txn, name, key, SHARED)
        rows = [row for _rid, row in matches]
        txn.reads += len(rows)
        if compiled.has_group:
            result = self._grouped(table.schema, prepared.statement, rows)
        elif compiled.has_aggregate:
            result = self._aggregate(table.schema, prepared.statement, rows)
        elif compiled.star_columns is not None:
            result = ResultSet(compiled.star_columns, rows, len(rows))
        else:
            projected = list(map(compiled.project, rows))
            result = ResultSet(compiled.proj_columns, projected, len(projected))
        for key in shared_keys:
            self._db._unlock_row(txn, table.name, key)
        return result

    @staticmethod
    def _order_matches(matches, order_index: int, desc: bool):
        """ORDER BY with NULLS LAST semantics, either direction.

        SQL sorts NULLs apart from values; Python would raise comparing
        ``None`` against them, so the absent rows are split out and
        appended after the sorted present ones (stable within each part).
        """
        present = [m for m in matches if m[1][order_index] is not None]
        absent = [m for m in matches if m[1][order_index] is None]
        present.sort(key=lambda m: m[1][order_index], reverse=desc)
        return present + absent

    @staticmethod
    def _aggregate_cell(schema, item: SelectItem, rows):
        """Evaluate one aggregate select-item over ``rows``."""
        if item.aggregate == "COUNT" and item.column is None:
            return len(rows), "COUNT(*)"
        index = schema.column_index(item.column)
        cells = [row[index] for row in rows if row[index] is not None]
        if item.aggregate == "COUNT":
            value = len(set(cells)) if item.distinct else len(cells)
        elif item.aggregate == "SUM":
            value = sum(cells) if cells else None
        elif item.aggregate == "AVG":
            value = sum(cells) / len(cells) if cells else None
        elif item.aggregate == "MIN":
            value = min(cells) if cells else None
        elif item.aggregate == "MAX":
            value = max(cells) if cells else None
        else:  # pragma: no cover - parser rejects others
            raise SqlError(f"unknown aggregate {item.aggregate}")
        label = "DISTINCT " + item.column if item.distinct else item.column
        return value, f"{item.aggregate}({label})"

    @classmethod
    def _aggregate(cls, schema, statement: SelectStatement, rows) -> ResultSet:
        outputs = []
        names = []
        for item in statement.items:
            if not item.is_aggregate:
                raise SqlError("cannot mix aggregates and plain columns")
            value, name = cls._aggregate_cell(schema, item, rows)
            outputs.append(value)
            names.append(name)
        return ResultSet(tuple(names), [tuple(outputs)], 1)

    @classmethod
    def _grouped(cls, schema, statement: SelectStatement, rows) -> ResultSet:
        """GROUP BY one column; plain select items must be that column."""
        if statement.star:
            raise SqlError("SELECT * is not valid with GROUP BY")
        group_index = schema.column_index(statement.group_by)
        for item in statement.items:
            if not item.is_aggregate and item.column != statement.group_by:
                raise SqlError(
                    f"column {item.column} must appear in GROUP BY or an aggregate"
                )
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[group_index], []).append(row)
        names = []
        out_rows = []
        for key in sorted(groups, key=lambda value: (value is None, value)):
            cells = []
            names = []
            for item in statement.items:
                if item.is_aggregate:
                    value, name = cls._aggregate_cell(schema, item, groups[key])
                else:
                    value, name = key, item.column
                cells.append(value)
                names.append(name)
            out_rows.append(tuple(cells))
        return ResultSet(tuple(names), out_rows, len(out_rows))

    # -- INSERT ----------------------------------------------------------------

    def _insert(
        self,
        prepared: Prepared,
        compiled: CompiledStatement,
        params: Sequence[Any],
        txn: Transaction,
    ) -> ResultSet:
        provided = [
            params[payload] if is_param else payload
            for is_param, payload in compiled.row_sources
        ]
        self._db._insert(txn, prepared.table, provided)
        return ResultSet((), [], 1)

    # -- UPDATE ----------------------------------------------------------------

    def _update(
        self,
        prepared: Prepared,
        compiled: CompiledStatement,
        params: Sequence[Any],
        txn: Transaction,
    ) -> ResultSet:
        table = prepared.table
        matches = self._match_rows(table, compiled.access, params, txn, EXCLUSIVE)
        program = compiled.set_program
        db_update = self._db._update
        # Narrow updates (no SET target is the primary key or any
        # indexed column) coerce just the assigned cells here and skip
        # the full-row re-validation, uniqueness checks and index
        # maintenance downstream -- the unchanged cells came out of the
        # table already coerced.
        fast = not compiled.set_touches_keys
        schema_name = table.schema.table
        updated = 0
        for rid, row in matches:
            new_row = list(row)
            for target, (is_param, payload), delta_idx, sign, delta_col, column in program:
                operand = params[payload] if is_param else payload
                if delta_idx is not None:
                    base = row[delta_idx]
                    if base is None:
                        raise SchemaError(
                            f"{table.name}.{delta_col} is NULL in arithmetic"
                        )
                    try:
                        operand = base + sign * operand
                    except TypeError as exc:
                        raise SqlError(
                            f"{table.name}.{delta_col} arithmetic failed: {exc}"
                        ) from None
                if fast:
                    operand = column.type.coerce(operand)
                    if operand is None and not column.nullable:
                        raise SchemaError(
                            f"column {schema_name}.{column.name} is NOT NULL"
                        )
                new_row[target] = operand
            db_update(txn, table, rid, row, tuple(new_row), fast)
            updated += 1
        return ResultSet((), [], updated)

    # -- DELETE ----------------------------------------------------------------

    def _delete(
        self,
        prepared: Prepared,
        compiled: CompiledStatement,
        params: Sequence[Any],
        txn: Transaction,
    ) -> ResultSet:
        table = prepared.table
        matches = self._match_rows(table, compiled.access, params, txn, EXCLUSIVE)
        for rid, row in matches:
            self._db._delete(txn, table, rid, row)
        return ResultSet((), [], len(matches))
