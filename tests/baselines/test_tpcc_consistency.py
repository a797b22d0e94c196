"""TPC-C consistency conditions (clause 3.3.2 of the spec, adapted).

After any mix of transactions the schema must satisfy:

* **C1** -- W_YTD equals the sum of its districts' D_YTD (plus the
  initial load offsets), since Payment adds the same amount to both.
* **C2** -- every district's D_NEXT_O_ID is one greater than the
  largest O_ID of its orders.
* **C3** -- every order has exactly O_OL_CNT order lines.
* **C4** -- every NEW_ORDER row references an existing order.
"""

import pytest

from repro.baselines.tpcc import TpccWorkload, load_tpcc
from repro.engine.database import Database


@pytest.fixture(scope="module")
def exercised():
    db = Database("tpcc-consistency")
    scale = load_tpcc(db, warehouses=1, customer_scale=0.003, item_scale=0.003)
    workload = TpccWorkload(db, scale)
    # capture initial offsets before running the mix
    initial_w = db.query("SELECT W_YTD FROM warehouse WHERE W_ID = ?", [1]).scalar()
    initial_d = db.query("SELECT SUM(D_YTD) FROM district").scalar()
    workload.run_many(250)
    return db, scale, initial_w, initial_d


def test_c1_warehouse_ytd_tracks_districts(exercised):
    db, _scale, initial_w, initial_d = exercised
    w_ytd = db.query("SELECT W_YTD FROM warehouse WHERE W_ID = ?", [1]).scalar()
    d_ytd = db.query("SELECT SUM(D_YTD) FROM district").scalar()
    # Payment adds the same amount to both, so the deltas are equal.
    assert w_ytd - initial_w == pytest.approx(d_ytd - initial_d, abs=0.01)


def test_c2_next_order_id_is_max_plus_one(exercised):
    db, scale, _w, _d = exercised
    for d_id in range(1, scale.districts + 1):
        next_o_id = db.query(
            "SELECT D_NEXT_O_ID FROM district WHERE D_W_ID = ? AND D_ID = ?",
            [1, d_id],
        ).scalar()
        max_o_id = db.query(
            "SELECT MAX(O_ID) FROM orders WHERE O_W_ID = ? AND O_D_ID = ?",
            [1, d_id],
        ).scalar()
        assert next_o_id == (max_o_id or 0) + 1


def test_c3_order_line_counts(exercised):
    db, scale, _w, _d = exercised
    orders = db.query(
        "SELECT O_ID, O_D_ID, O_OL_CNT FROM orders WHERE O_W_ID = ?", [1]
    ).rows
    # sample a bounded number to keep the check fast
    for o_id, d_id, ol_cnt in orders[-80:]:
        lines = db.query(
            "SELECT COUNT(*) FROM order_line"
            " WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID = ?",
            [1, d_id, o_id],
        ).scalar()
        assert lines == ol_cnt


def test_c4_new_orders_reference_existing_orders(exercised):
    db, _scale, _w, _d = exercised
    pending = db.query(
        "SELECT NO_O_ID, NO_D_ID FROM new_order WHERE NO_W_ID = ?", [1]
    ).rows
    for no_o_id, d_id in pending:
        order = db.query(
            "SELECT O_ID FROM orders WHERE O_W_ID = ? AND O_D_ID = ? AND O_ID = ?",
            [1, d_id, no_o_id],
        ).first()
        assert order is not None


def test_invariants_survive_crash_recovery(exercised):
    db, _scale, _w, _d = exercised
    before = db.content_hash()
    db.checkpoint()
    db.crash()
    db.recover()
    assert db.content_hash() == before
