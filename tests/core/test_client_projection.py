"""Result-row shape of a projection, through both in-process clients.

A projected row is always a tuple with one cell per select item: a
one-column SELECT yields 1-tuples (not bare cells), a repeated column
repeats its cell, and ``SELECT *`` yields the stored row.
"""

import pytest

from repro.core.client import EngineClient, FleetClient
from repro.core.datagen import load_sales_database
from repro.core.schema import ORDERS
from repro.shard import load_sales_fleet


def _engine():
    db, _data = load_sales_database(row_scale=0.001)
    return EngineClient(db)


def _fleet():
    fleet, _data = load_sales_fleet(2, row_scale=0.001, seed=42)
    return FleetClient(fleet)


@pytest.fixture(params=[_engine, _fleet], ids=["engine", "fleet"])
def client(request):
    return request.param()


def test_one_column_select_returns_one_tuples(client):
    assert client.query("SELECT O_ID FROM ORDERS WHERE O_ID = ?", [2]).rows == [(2,)]
    rows = client.query("SELECT O_ID FROM ORDERS WHERE O_ID <= ?", [5]).rows
    assert sorted(rows) == [(k,) for k in range(1, 6)]
    assert all(type(row) is tuple for row in rows)


def test_repeated_column_returns_two_tuples(client):
    result = client.query("SELECT O_ID, O_ID FROM ORDERS WHERE O_ID = ?", [3])
    assert result.columns == ("O_ID", "O_ID")
    assert result.rows == [(3, 3)]


def test_star_returns_the_stored_row(client):
    result = client.query("SELECT * FROM ORDERS WHERE O_ID = ?", [4])
    assert result.columns == ORDERS.column_names
    [row] = result.rows
    assert type(row) is tuple and len(row) == len(ORDERS.columns) and row[0] == 4
    picked = client.query(
        f"SELECT {', '.join(reversed(ORDERS.column_names))} FROM ORDERS WHERE O_ID = ?", [4]
    ).rows
    assert picked == [row[::-1]]
