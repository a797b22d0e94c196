"""Tests for the sales schema and data generation."""

import random

import pytest

from repro.core.datagen import (
    DataGenerator,
    GeneratedData,
    load_sales_database,
    nominal_bytes,
)
from repro.core.schema import (
    ALL_SCHEMAS,
    BASE_ROWS,
    ORDERLINE_MULTIPLIER,
    create_sales_schema,
    rows_at_scale,
)
from repro.engine.database import Database

GIB = 2**30
MIB = 2**20


def test_three_tables_exist():
    assert [schema.table for schema in ALL_SCHEMAS] == [
        "CUSTOMER", "ORDERS", "ORDERLINE",
    ]


def test_scaling_model_orderline_order_of_magnitude_larger():
    rows = rows_at_scale(1)
    assert rows["CUSTOMER"] == rows["ORDERS"] == BASE_ROWS == 300_000
    assert rows["ORDERLINE"] == BASE_ROWS * ORDERLINE_MULTIPLIER


def test_scale_factor_multiplies_rows():
    assert rows_at_scale(10)["CUSTOMER"] == 3_000_000
    with pytest.raises(ValueError):
        rows_at_scale(0)


def test_nominal_bytes_match_paper():
    assert nominal_bytes(1) == 194 * MIB
    assert nominal_bytes(10) == pytest.approx(1.99 * GIB)
    assert nominal_bytes(100) == pytest.approx(20.8 * GIB)
    assert nominal_bytes(5) == 5 * 200 * MIB  # interpolation rule


def test_create_schema_adds_indexes():
    db = Database("s")
    create_sales_schema(db)
    assert "orderline_o_id" in db.table("ORDERLINE").secondary_indexes
    assert "orders_c_id" in db.table("ORDERS").secondary_indexes


def test_populate_row_counts_and_keys():
    db, data = load_sales_database(row_scale=0.001)
    assert isinstance(data, GeneratedData)
    assert data.rows["CUSTOMER"] == 300
    assert data.rows["ORDERS"] == 300
    assert data.rows["ORDERLINE"] == 3000
    assert db.table("CUSTOMER").row_count == 300
    assert db.table("ORDERLINE").row_count == 3000
    # keys are dense 1..N
    assert db.query("SELECT MIN(C_ID), MAX(C_ID) FROM customer").rows == [(1, 300)]


def test_orderlines_reference_orders():
    db, data = load_sales_database(row_scale=0.001)
    o_ids = {row[0] for row in db.query("SELECT O_ID FROM orders").rows}
    sample = db.query("SELECT OL_O_ID FROM orderline WHERE OL_ID = ?", [1]).scalar()
    assert sample in o_ids


def test_row_scale_floor_is_100():
    generator = DataGenerator(scale_factor=1, row_scale=0.000001)
    counts = generator.materialised_rows()
    assert min(counts.values()) == 100


def test_generation_is_deterministic():
    db1, _ = load_sales_database(seed=7, row_scale=0.001)
    db2, _ = load_sales_database(seed=7, row_scale=0.001)
    assert (db1.query("SELECT C_CREDIT FROM customer WHERE C_ID = ?", [5]).rows
            == db2.query("SELECT C_CREDIT FROM customer WHERE C_ID = ?", [5]).rows)


def test_different_seeds_differ():
    db1, _ = load_sales_database(seed=1, row_scale=0.001)
    db2, _ = load_sales_database(seed=2, row_scale=0.001)
    assert (db1.query("SELECT C_CREDIT FROM customer WHERE C_ID = ?", [5]).rows
            != db2.query("SELECT C_CREDIT FROM customer WHERE C_ID = ?", [5]).rows)


def test_invalid_row_scale_rejected():
    with pytest.raises(ValueError):
        DataGenerator(row_scale=0.0)
    with pytest.raises(ValueError):
        DataGenerator(row_scale=1.5)


# -- the row stream against the stdlib calls it replaced ---------------------


def stdlib_rows(generator):
    """``(table_name, row)`` as ``DataGenerator`` drew them with
    ``random.Random.randint`` / ``choice`` / ``uniform``, kept as the
    oracle of the inlined draws."""
    rng = random.Random(generator.seed)
    counts = generator.materialised_rows()
    now = 1_700_000_000.0
    regions = ("NORTH", "SOUTH", "EAST", "WEST", "CENTRAL")
    statuses = ("NEW", "PAID", "SHIPPED", "DONE")

    for c_id in range(1, counts["CUSTOMER"] + 1):
        yield "CUSTOMER", (
            c_id,
            f"Customer#{c_id:09d}",
            round(rng.uniform(0, 5000), 2),
            rng.choice(regions),
            now - rng.uniform(0, 86_400 * 30),
        )

    for o_id in range(1, counts["ORDERS"] + 1):
        yield "ORDERS", (
            o_id,
            rng.randint(1, counts["CUSTOMER"]),
            now - rng.uniform(0, 86_400 * 30),
            rng.choice(statuses),
            round(rng.uniform(5, 500), 2),
            now - rng.uniform(0, 86_400 * 30),
        )

    per_order = ORDERLINE_MULTIPLIER
    ol_id = 0
    for o_id in range(1, counts["ORDERS"] + 1):
        for _ in range(per_order):
            ol_id += 1
            if ol_id > counts["ORDERLINE"]:
                break
            yield "ORDERLINE", (
                ol_id,
                o_id,
                rng.randint(1, 100_000),
                rng.randint(1, 10),
                round(rng.uniform(1, 100), 2),
            )
        if ol_id > counts["ORDERLINE"]:
            break
    while ol_id < counts["ORDERLINE"]:
        ol_id += 1
        yield "ORDERLINE", (
            ol_id,
            rng.randint(1, counts["ORDERS"]),
            rng.randint(1, 100_000),
            rng.randint(1, 10),
            round(rng.uniform(1, 100), 2),
        )


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("row_scale", [0.002, 0.0003351, 0.000001])
def test_rows_match_the_stdlib_draws(seed, row_scale):
    generator = DataGenerator(1, row_scale, seed)
    rows = [
        (table_name, row)
        for table_name, table_rows in generator.iter_tables()
        for row in table_rows
    ]
    # repr, not ==: the same floats to the last bit, the same types
    assert repr(rows) == repr(list(stdlib_rows(generator)))


def test_fractional_row_scale_reaches_the_orderline_top_up():
    counts = DataGenerator(1, 0.0003351).materialised_rows()
    assert counts["ORDERLINE"] > counts["ORDERS"] * ORDERLINE_MULTIPLIER


def test_an_undrained_table_does_not_shift_the_next():
    generator = DataGenerator(1, 0.0003351, 3)
    drawn = []
    for table_name, rows in generator.iter_tables():
        if table_name != "CUSTOMER":  # left undrawn: iter_tables draws it
            drawn.extend((table_name, row) for row in rows)
    assert drawn == [pair for pair in stdlib_rows(generator) if pair[0] != "CUSTOMER"]
