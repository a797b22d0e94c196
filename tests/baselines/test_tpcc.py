"""Tests for the TPC-C baseline."""

import pytest

from repro.baselines.tpcc import (
    DISTRICTS_PER_WAREHOUSE,
    STANDARD_MIX,
    TPCC_CLASSES,
    TpccWorkload,
    load_tpcc,
    tpcc_mix,
)
from repro.engine.database import Database


@pytest.fixture(scope="module")
def loaded():
    db = Database("tpcc")
    scale = load_tpcc(db, warehouses=1, customer_scale=0.003, item_scale=0.003)
    return db, scale


def test_schema_and_scaling(loaded):
    db, scale = loaded
    assert db.table("WAREHOUSE").row_count == 1
    assert db.table("DISTRICT").row_count == DISTRICTS_PER_WAREHOUSE
    assert db.table("CUSTOMER").row_count == scale.customers_per_district * 10
    assert db.table("ITEM").row_count == scale.items
    assert db.table("STOCK").row_count == scale.items


def test_new_order_inserts_order_and_lines(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    orders_before = db.table("ORDERS").row_count
    lines_before = db.table("ORDER_LINE").row_count
    assert workload.new_order()
    assert db.table("ORDERS").row_count == orders_before + 1
    assert db.table("ORDER_LINE").row_count - lines_before >= 5


def test_new_order_advances_district_counter(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    before = db.query(
        "SELECT SUM(D_NEXT_O_ID) FROM district"
    ).scalar()
    succeeded = sum(1 for _ in range(5) if workload.new_order())
    after = db.query("SELECT SUM(D_NEXT_O_ID) FROM district").scalar()
    # rolled-back new_orders also restore D_NEXT_O_ID
    assert after == before + succeeded


def test_payment_moves_money(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    ytd_before = db.query("SELECT W_YTD FROM warehouse WHERE W_ID = ?", [1]).scalar()
    hist_before = db.table("HISTORY").row_count
    assert workload.payment()
    assert db.query("SELECT W_YTD FROM warehouse WHERE W_ID = ?", [1]).scalar() > ytd_before
    assert db.table("HISTORY").row_count == hist_before + 1


def test_order_status_returns_latest_order(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    latest = workload.order_status()
    assert latest is not None


def test_delivery_consumes_new_orders(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    # make sure there is something to deliver
    for _ in range(3):
        workload.new_order()
    pending_before = db.table("NEW_ORDER").row_count
    delivered = workload.delivery()
    assert delivered > 0
    assert db.table("NEW_ORDER").row_count == pending_before - delivered


def test_stock_level_counts(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    workload.new_order()
    low = workload.stock_level()
    assert low >= 0


def test_mixed_run_matches_standard_weights(loaded):
    db, scale = loaded
    workload = TpccWorkload(db, scale)
    workload.run_many(200)
    counts = workload.executed
    assert counts["new_order"] > counts["order_status"]
    assert counts["payment"] > counts["delivery"]
    # every attempt is counted once; intentional rollbacks are tracked
    # separately and stay a small minority
    assert sum(counts.values()) == 200
    assert workload.aborted <= counts["new_order"] * 0.1


def test_one_percent_rollback_rate():
    db = Database("tpcc-abort")
    scale = load_tpcc(db, warehouses=1, customer_scale=0.002, item_scale=0.002)
    workload = TpccWorkload(db, scale)
    for _ in range(300):
        workload.new_order()
    assert 0 < workload.aborted < 20  # ~1% of 300, with slack


def test_mix_model_constants():
    mix = tpcc_mix()
    assert set(STANDARD_MIX.values()) == {45, 43, 4, 4, 4}
    assert mix.write_fraction > 0.8  # new_order+payment+delivery write
    assert TPCC_CLASSES["stock_level"].page_writes == 0
    assert mix.hot_fraction > 0      # warehouse-local traffic is hot
    bigger = tpcc_mix(warehouses=10)
    assert bigger.working_set_bytes == pytest.approx(10 * mix.working_set_bytes)
