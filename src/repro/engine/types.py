"""Column, schema and row model for the storage engine.

Rows are stored as tuples in schema column order.  The schema coerces
and validates values on the way in so that the rest of the engine can
assume well-typed tuples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.engine.errors import SchemaError

#: Sentinel used in INSERT statements for auto-increment columns
#: (the paper's T1 uses ``INSERT INTO orderline VALUES (DEFAULT, ...)``).
DEFAULT = object()


class ColumnType(enum.Enum):
    """Supported column types and their byte-size estimates."""

    INT = "int"
    BIGINT = "bigint"
    DECIMAL = "decimal"
    VARCHAR = "varchar"
    TIMESTAMP = "timestamp"

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` into the Python representation of this type:
        ``None`` and a value already of the stored type come back as
        they are (what ``int``/``float``/``str`` return for them)."""
        stored = self._stored
        if type(value) is stored or value is None:
            return value
        if stored is int and isinstance(value, bool):
            raise SchemaError(f"boolean is not valid for {self.value}")
        try:
            return stored(value)
        except (TypeError, ValueError, OverflowError):
            # "abc" for a DECIMAL, nan/inf/{}/[] for an INT: bad input
            # from a client, not an engine fault.
            raise SchemaError(
                f"{value!r} is not valid for {self.value}"
            ) from None


#: the Python type :meth:`ColumnType.coerce` stores for each column type
STORED_TYPE = {
    ColumnType.INT: int,
    ColumnType.BIGINT: int,
    ColumnType.DECIMAL: float,
    ColumnType.VARCHAR: str,
    ColumnType.TIMESTAMP: float,
}

# ``column_type._stored``, attached once per member: ``coerce`` runs per
# written cell and dispatches on it instead of on members loaded through
# the class (see ``wal.py``).
for _type, _stored in STORED_TYPE.items():
    _type._stored = _stored
del _type, _stored


@dataclass(frozen=True)
class Column:
    """A single column definition."""

    name: str
    type: ColumnType
    nullable: bool = True
    autoincrement: bool = False
    default: Any = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name {self.name!r}")
        if self.autoincrement and self.type not in (ColumnType.INT, ColumnType.BIGINT):
            raise SchemaError(f"autoincrement column {self.name!r} must be integer")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns plus the primary key."""

    table: str
    columns: Tuple[Column, ...]
    primary_key: str
    _index: Dict[str, int] = field(init=False, repr=False, compare=False, hash=False, default=None)
    _pk_index: int = field(init=False, repr=False, compare=False, hash=False, default=0)
    _stored_types: Tuple[type, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.table or not self.table.isidentifier():
            raise SchemaError(f"invalid table name {self.table!r}")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate columns in table {self.table!r}: {names}")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.table!r}"
            )
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        object.__setattr__(self, "_pk_index", names.index(self.primary_key))
        object.__setattr__(
            self, "_stored_types", tuple(column.type._stored for column in self.columns)
        )

    # -- lookup helpers ----------------------------------------------------

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"table {self.table!r} has no column {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    @property
    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    @property
    def primary_key_index(self) -> int:
        return self._pk_index

    # -- row validation ----------------------------------------------------

    def coerce_row(
        self, values: Sequence[Any], next_auto: Optional[int] = None
    ) -> Tuple[Any, ...]:
        """Validate and coerce a full row in column order.

        ``DEFAULT`` placeholders are replaced by ``next_auto`` for
        auto-increment columns or by the column default otherwise.  A
        value already of its column's stored type is kept as it is.
        """
        if len(values) != len(self.columns):
            raise SchemaError(
                f"table {self.table!r} expects {len(self.columns)} values, "
                f"got {len(values)}"
            )
        row = []
        for column, stored, value in zip(self.columns, self._stored_types, values):
            if type(value) is not stored:
                if value is DEFAULT:
                    if column.autoincrement:
                        if next_auto is None:
                            raise SchemaError(
                                f"DEFAULT for {column.name!r} needs an autoincrement value"
                            )
                        value = next_auto
                    else:
                        value = column.default
                value = column.type.coerce(value)
                if value is None and not column.nullable:
                    raise SchemaError(
                        f"column {self.table}.{column.name} is NOT NULL"
                    )
            row.append(value)
        return tuple(row)
