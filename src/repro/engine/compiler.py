"""Prepare-time statement compilation.

The executor used to re-derive everything per execution: re-pick the
access path, re-resolve every predicate value, and look up column
positions by name for every condition of every row.  For the OLTP hot
path (point UPDATE / point SELECT, thousands per second) that work is
identical on every call.

This module hoists it to prepare time.  A :class:`CompiledStatement`
is built once per :class:`~repro.engine.executor.Prepared` and holds:

* the access-path **shape** (``pk_point`` / ``index_eq`` /
  ``index_range`` / ``table_scan``) -- chosen from the statement shape
  alone, never from parameter values, so one compiled plan serves
  every execution of the SQL text;
* **value sources** ``(is_param, payload)`` for keys, range bounds,
  residual predicates, SET clauses and INSERT rows -- resolving one is
  a single indexed load at run time;
* **residual predicates** with column *indexes* (not names) and the
  operator function pre-fetched, so the row loop never touches the
  schema;
* a C-level projection getter and precomputed order/pk column
  indexes for SELECT.

What deliberately stays run-time: parameter values, the transaction's
isolation behaviour (``txn.uses_mvcc`` is checked per execution -- the
plan cache keys on SQL text only, and one compiled plan must serve
SERIALIZABLE and SNAPSHOT callers alike), and index *objects* (looked
up by name per execution so restores that rebuild tables don't leave
stale bindings).

Plans can go stale one way: ``CREATE INDEX`` after prepare.  Tables
carry a ``plan_epoch`` counter bumped on index creation; the executor
recompiles a statement whose epoch no longer matches.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.errors import SqlError
from repro.engine.index import OrderedIndex
from repro.engine.sql import (
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    UpdateStatement,
    Value,
)
from repro.engine.types import DEFAULT

#: A value source: ``(is_param, payload)``.  Resolution is
#: ``params[payload] if is_param else payload`` -- inlined at every
#: use site rather than routed through a helper call.
Source = Tuple[bool, Any]


def _source(value: Value) -> Source:
    if value.kind == "literal":
        return (False, value.literal)
    if value.kind == "default":
        return (False, DEFAULT)
    return (True, value.param_index)


class CompiledAccess:
    """The compiled WHERE clause: shape, key/bound sources, residual."""

    __slots__ = ("shape", "index_name", "key_source", "key_sources",
                 "range_column", "range_ops", "residual")

    def __init__(self, shape: str, index_name: Optional[str]):
        self.shape = shape
        self.index_name = index_name
        #: source of a single-column key (pk_point, single-column index_eq)
        self.key_source: Optional[Source] = None
        #: sources of a composite index_eq key
        self.key_sources: Optional[Tuple[Source, ...]] = None
        self.range_column: Optional[str] = None
        #: ``(op, source)`` pairs on the range column
        self.range_ops: Optional[List[Tuple[str, Source]]] = None
        #: ``(col_idx, op, op_fn, source)`` for *every* WHERE condition --
        #: the residual re-checks the key predicates too (duplicate
        #: conditions must all hold).
        self.residual: Tuple[Tuple[int, str, Any, Source], ...] = ()


def compile_access(table, where) -> CompiledAccess:
    """Choose the access path from the statement shape -- the one
    planner: the executor runs it, ``Database.explain`` describes it.

    Priority: primary-key point lookup, a secondary index fully covered
    by equalities (the last one on a column wins the key), a range scan
    on the primary key or a single-column ordered index, a full scan.
    No parameter value is resolved: which column is bound decides the
    shape; *what* it is bound to stays a run-time source.
    """
    from repro.engine.executor import _OPS  # late: executor imports us too

    schema = table.schema
    residual = tuple(
        (schema.column_index(c.column), c.op, _OPS[c.op], _source(c.value))
        for c in where
    )
    eq_sources = {}
    for c in where:
        if c.op == "=":
            eq_sources[c.column] = _source(c.value)

    def _post_lookup(key_columns) -> tuple:
        """Residual minus the equality predicates the index lookup
        already enforces: a row returned for key value *v* has cell
        ``== v`` by the index's own hash/eq semantics, so re-checking
        ``col = <same source>`` is provably redundant.  Conditions
        bound to a *different* source (``pk = ? AND pk = 5``) stay."""
        return tuple(
            entry
            for entry, c in zip(residual, where)
            if not (
                c.op == "="
                and c.column in key_columns
                and _source(c.value) == eq_sources[c.column]
            )
        )

    if schema.primary_key in eq_sources:
        access = CompiledAccess("pk_point", table.primary_index.name)
        access.key_source = eq_sources[schema.primary_key]
        access.residual = _post_lookup((schema.primary_key,))
        return access
    for index in table.secondary_indexes.values():
        if all(column in eq_sources for column in index.columns):
            access = CompiledAccess("index_eq", index.name)
            if len(index.columns) == 1:
                access.key_source = eq_sources[index.columns[0]]
            else:
                access.key_sources = tuple(
                    eq_sources[column] for column in index.columns
                )
            access.residual = _post_lookup(index.columns)
            return access
    candidates = [(schema.primary_key, table.primary_index)]
    candidates += [
        (index.columns[0], index)
        for index in table.secondary_indexes.values()
        if isinstance(index, OrderedIndex) and len(index.columns) == 1
    ]
    for column, index in candidates:
        range_ops = [
            (c.op, _source(c.value))
            for c in where
            if c.column == column and c.op not in ("=", "<>")
        ]
        if range_ops:
            access = CompiledAccess("index_range", index.name)
            access.range_column = column
            access.range_ops = range_ops
            access.residual = residual
            return access
    access = CompiledAccess("table_scan", None)
    access.residual = residual
    return access


class CompiledStatement:
    """Everything about one statement that does not depend on params
    or transaction state, resolved once at prepare time."""

    __slots__ = (
        "kind", "access", "epoch", "pk_index",
        # select
        "star_columns", "project", "proj_columns", "order_index",
        "has_group", "has_aggregate", "for_update", "order_by", "order_desc",
        "limit",
        # insert
        "row_sources",
        # update
        "set_program", "set_touches_keys",
    )

    def __init__(self, kind: str, epoch: int):
        self.kind = kind
        self.epoch = epoch
        self.access: Optional[CompiledAccess] = None
        self.pk_index = 0
        self.star_columns: Optional[Tuple[str, ...]] = None
        #: row -> projected row tuple, a C-level ``itemgetter``
        self.project: Optional[Callable[[Tuple[Any, ...]], Tuple[Any, ...]]] = None
        self.proj_columns: Optional[Tuple[str, ...]] = None
        self.order_index: Optional[int] = None
        self.has_group = False
        self.has_aggregate = False
        self.for_update = False
        self.order_by = None
        self.order_desc = False
        self.limit: Optional[int] = None
        self.row_sources: Optional[Tuple[Source, ...]] = None
        #: ``(target_idx, source, delta_idx, delta_sign, delta_column, column)``
        self.set_program: Optional[
            Tuple[Tuple[int, Source, Optional[int], int, Optional[str], Any], ...]
        ] = None
        #: True when a SET target is the primary key or any indexed
        #: column -- the executor then takes the slow path that
        #: re-validates uniqueness and maintains indexes.
        self.set_touches_keys = True


def compile_statement(table, statement) -> CompiledStatement:
    """Build the compiled form of a parsed statement against ``table``."""
    schema = table.schema
    epoch = table.plan_epoch

    if isinstance(statement, SelectStatement):
        compiled = CompiledStatement("select", epoch)
        compiled.access = compile_access(table, statement.where)
        compiled.pk_index = schema.primary_key_index
        compiled.for_update = statement.for_update
        compiled.has_group = statement.group_by is not None
        compiled.has_aggregate = bool(
            statement.items and statement.items[0].is_aggregate
        )
        compiled.order_by = statement.order_by
        compiled.order_desc = statement.order_desc
        compiled.limit = statement.limit
        if statement.order_by:
            compiled.order_index = schema.column_index(statement.order_by)
        if statement.star:
            compiled.star_columns = schema.column_names
        elif not compiled.has_group and not compiled.has_aggregate:
            indexes = [schema.column_index(item.column) for item in statement.items]
            # itemgetter of one index returns the bare cell, so a single
            # column slices instead: on a row tuple, the 1-tuple it needs
            compiled.project = (
                itemgetter(slice(indexes[0], indexes[0] + 1)) if len(indexes) == 1
                else itemgetter(*indexes)
            )
            compiled.proj_columns = tuple(
                item.column for item in statement.items
            )
        return compiled

    if isinstance(statement, InsertStatement):
        compiled = CompiledStatement("insert", epoch)
        if statement.columns:
            by_name = dict(zip(statement.columns, statement.values))
            sources: List[Source] = []
            for column in schema.columns:
                value = by_name.get(column.name)
                if value is not None:
                    sources.append(_source(value))
                elif column.autoincrement:
                    sources.append((False, DEFAULT))
                else:
                    sources.append((False, column.default))
            compiled.row_sources = tuple(sources)
        else:
            compiled.row_sources = tuple(
                _source(value) for value in statement.values
            )
        return compiled

    if isinstance(statement, UpdateStatement):
        compiled = CompiledStatement("update", epoch)
        compiled.access = compile_access(table, statement.where)
        compiled.set_program = tuple(
            (
                schema.column_index(clause.column),
                _source(clause.value),
                (schema.column_index(clause.delta_column)
                 if clause.delta_column is not None else None),
                clause.delta_sign,
                clause.delta_column,
                schema.columns[schema.column_index(clause.column)],
            )
            for clause in statement.sets
        )
        # An UPDATE whose SET targets miss every indexed column cannot
        # change a key, so the executor may skip uniqueness checks and
        # index maintenance.  CREATE INDEX after prepare bumps the
        # table's plan_epoch, forcing a recompile of this decision.
        # A DEFAULT source forces the slow path: its substitution rules
        # live in Schema.coerce_row.
        indexed = {schema.primary_key_index}
        for index in table.secondary_indexes.values():
            for column in index.columns:
                indexed.add(schema.column_index(column))
        compiled.set_touches_keys = any(
            target in indexed or (not source[0] and source[1] is DEFAULT)
            for target, source, *_rest in compiled.set_program
        )
        return compiled

    if isinstance(statement, DeleteStatement):
        compiled = CompiledStatement("delete", epoch)
        compiled.access = compile_access(table, statement.where)
        return compiled

    raise SqlError(f"unsupported statement type {type(statement).__name__}")


def resolve_residual(
    residual: Tuple[Tuple[int, str, Any, Source], ...],
    params: Sequence[Any],
) -> List[Tuple[int, Any, Any]]:
    """Bind parameter values into a compiled residual: ``(col_idx,
    op_fn, value)`` triples ready for the batched row filter."""
    return [
        (idx, fn, params[payload] if is_param else payload)
        for idx, _op, fn, (is_param, payload) in residual
    ]
