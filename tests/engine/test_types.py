"""Tests for columns, schemas and row coercion."""

import pytest

from repro.engine.errors import SchemaError
from repro.engine.types import DEFAULT, Column, ColumnType, Schema


def make_schema():
    return Schema(
        "T",
        (
            Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("NAME", ColumnType.VARCHAR, length=20, nullable=False),
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


def test_row_byte_size_positive_and_stable():
    schema = make_schema()
    assert schema.row_byte_size() == schema.row_byte_size()
    assert schema.row_byte_size() >= 8 * 3 + 20
