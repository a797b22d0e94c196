"""Tests for columns, schemas and row coercion."""

import enum

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.errors import SchemaError
from repro.engine.types import DEFAULT, Column, ColumnType, Schema


def make_schema():
    return Schema(
        "T",
        (
            Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("NAME", ColumnType.VARCHAR, nullable=False),
            Column("AMOUNT", ColumnType.DECIMAL, default=0.0),
            Column("WHEN", ColumnType.TIMESTAMP),
        ),
        primary_key="ID",
    )


def test_coerce_row_types():
    schema = make_schema()
    row = schema.coerce_row(("3", 42, "7", None))
    assert row == (3, "42", 7.0, None)
    assert isinstance(row[0], int)
    assert isinstance(row[2], float)


def test_default_placeholder_uses_autoincrement():
    schema = make_schema()
    row = schema.coerce_row((DEFAULT, "x", DEFAULT, None), next_auto=9)
    assert row[0] == 9
    assert row[2] == 0.0  # column default


def test_default_without_autoincrement_value_raises():
    schema = make_schema()
    with pytest.raises(SchemaError):
        schema.coerce_row((DEFAULT, "x", 1.0, None))


def test_not_null_enforced():
    schema = make_schema()
    with pytest.raises(SchemaError):
        schema.coerce_row((1, None, 1.0, None))


def test_wrong_arity_rejected():
    schema = make_schema()
    with pytest.raises(SchemaError):
        schema.coerce_row((1, "x"))


def test_unknown_column_rejected():
    schema = make_schema()
    with pytest.raises(SchemaError):
        schema.column_index("NOPE")


def test_duplicate_column_names_rejected():
    with pytest.raises(SchemaError):
        Schema(
            "T",
            (Column("A", ColumnType.INT), Column("A", ColumnType.INT)),
            primary_key="A",
        )


def test_primary_key_must_exist():
    with pytest.raises(SchemaError):
        Schema("T", (Column("A", ColumnType.INT),), primary_key="B")


def test_invalid_names_rejected():
    with pytest.raises(SchemaError):
        Column("1bad", ColumnType.INT)
    with pytest.raises(SchemaError):
        Schema("bad name", (Column("A", ColumnType.INT),), primary_key="A")


def test_autoincrement_must_be_integer():
    with pytest.raises(SchemaError):
        Column("X", ColumnType.VARCHAR, autoincrement=True)


def test_boolean_is_not_an_int():
    with pytest.raises(SchemaError):
        ColumnType.INT.coerce(True)


@pytest.mark.parametrize("column_type, value", [
    (ColumnType.DECIMAL, "abc"),
    (ColumnType.TIMESTAMP, [1.0]),
    (ColumnType.INT, float("nan")),
    (ColumnType.INT, float("inf")),
    (ColumnType.INT, {"a": 1}),
    (ColumnType.BIGINT, [1]),
])
def test_uncoercible_value_is_a_schema_error(column_type, value):
    # used to leak ValueError / OverflowError / TypeError from int()/float()
    with pytest.raises(SchemaError, match=column_type.value) as exc_info:
        column_type.coerce(value)
    assert repr(value) in str(exc_info.value)


# -- parity with the coercion that validated every cell ------------------------


def _oracle_coerce(column_type, value):
    """``ColumnType.coerce`` before the stored-type fast path: every
    value went through ``int``/``float``/``str``."""
    if value is None:
        return None
    try:
        if column_type in (ColumnType.INT, ColumnType.BIGINT):
            if isinstance(value, bool):
                raise SchemaError(f"boolean is not valid for {column_type.value}")
            return int(value)
        if column_type is ColumnType.DECIMAL:
            return float(value)
        if column_type is ColumnType.VARCHAR:
            return str(value)
        if column_type is ColumnType.TIMESTAMP:
            return float(value)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"{value!r} is not valid for {column_type.value}") from None
    raise AssertionError(column_type)


def _oracle_coerce_row(schema, values, next_auto=None):
    """``Schema.coerce_row`` before the fast path, over the oracle coerce."""
    if len(values) != len(schema.columns):
        raise SchemaError(
            f"table {schema.table!r} expects {len(schema.columns)} values, "
            f"got {len(values)}"
        )
    row = []
    for column, value in zip(schema.columns, values):
        if value is DEFAULT:
            if column.autoincrement:
                if next_auto is None:
                    raise SchemaError(
                        f"DEFAULT for {column.name!r} needs an autoincrement value"
                    )
                value = next_auto
            else:
                value = column.default
        value = _oracle_coerce(column.type, value)
        if value is None and not column.nullable:
            raise SchemaError(f"column {schema.table}.{column.name} is NOT NULL")
        row.append(value)
    return tuple(row)


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _Level(enum.IntEnum):
    LOW = 1


_VALUES = [
    True, False, 0, 7, -3, 2 ** 70, _Int(5), _Level.LOW,
    2.0, 2.5, -0.0, float("nan"), float("inf"), float("-inf"), _Float(1.5),
    "12", " -4 ", "2.5", "1e3", "nan", "-inf", "abc", "", _Str("8"), _Str("x"),
    b"3", [1], {}, None, DEFAULT,
]


def _outcome(call, *args):
    """A result as type and repr per value (nan == nan here), or the
    error's class and text."""
    try:
        result = call(*args)
    except SchemaError as error:
        return "error", type(error), str(error)
    cells = result if isinstance(result, tuple) else (result,)
    return "ok", [(type(cell), repr(cell)) for cell in cells]


@pytest.mark.parametrize("column_type", list(ColumnType))
@pytest.mark.parametrize(
    "value", _VALUES,
    # DEFAULT is a bare object(): its repr names an address that moves
    # from run to run, so it gets a fixed id.
    ids=lambda value: "DEFAULT" if value is DEFAULT else repr(value),
)
def test_coerce_matches_the_validate_everything_oracle(column_type, value):
    assert _outcome(column_type.coerce, value) == \
        _outcome(_oracle_coerce, column_type, value)


_PARITY_SCHEMA = Schema(
    "P",
    (
        Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("B", ColumnType.BIGINT, nullable=False, default=0),
        Column("D", ColumnType.DECIMAL, default=1),  # an int default
        Column("V", ColumnType.VARCHAR, nullable=False, default=""),
        Column("T", ColumnType.TIMESTAMP),
    ),
    primary_key="ID",
)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(st.sampled_from(_VALUES), min_size=4, max_size=6),
    next_auto=st.sampled_from([None, 7]),
)
def test_coerce_row_matches_the_validate_everything_oracle(values, next_auto):
    assert _outcome(_PARITY_SCHEMA.coerce_row, values, next_auto) == \
        _outcome(_oracle_coerce_row, _PARITY_SCHEMA, values, next_auto)
