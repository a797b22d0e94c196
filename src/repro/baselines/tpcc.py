"""TPC-C baseline: the five standard transactions over nine tables.

The paper contrasts TPC-C (via OLTP-Bench, scale factor 1, constant 44
threads) with CloudyBench's elastic patterns in Figure 9.  This module
implements a faithful subset: the full nine-table schema with the
standard scaling ratios, the NewOrder / Payment / OrderStatus /
Delivery / StockLevel transactions with the 45/43/4/4/4 mix, and the
1% intentional NewOrder abort.

Composite TPC-C keys are mapped onto surrogate integer primary keys
plus unique secondary indexes, since the engine keys rows by a single
column.  ``item_scale``/``customer_scale`` shrink the loaded rows for
functional runs while preserving key relationships.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cloud.workload_model import TxnClass, WorkloadMix
from repro.core.workload import MixWorkload
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema

#: standard TPC-C scaling ratios (per warehouse)
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 3000
ITEMS = 100_000
#: nominal on-disk footprint of one warehouse (~100 MB)
BYTES_PER_WAREHOUSE = 100 * 2**20
#: the seed of every TPC-C draw
SEED = 42

#: the standard transaction mix (percent)
STANDARD_MIX = {
    "new_order": 45,
    "payment": 43,
    "order_status": 4,
    "delivery": 4,
    "stock_level": 4,
}

#: model footprints of the five transactions
TPCC_CLASSES: Dict[str, TxnClass] = {
    "new_order": TxnClass(
        "tpcc_new_order", cpu_s=4.2e-3, page_reads=23, page_writes=12,
        log_bytes=2200, rows_written=12, rows_updated=10, statements=26,
    ),
    "payment": TxnClass(
        "tpcc_payment", cpu_s=1.6e-3, page_reads=4, page_writes=4,
        log_bytes=500, rows_written=4, rows_updated=3, statements=6,
    ),
    "order_status": TxnClass(
        "tpcc_order_status", cpu_s=0.9e-3, page_reads=13, page_writes=0,
        log_bytes=0, statements=4,
    ),
    "delivery": TxnClass(
        "tpcc_delivery", cpu_s=5.0e-3, page_reads=40, page_writes=30,
        log_bytes=1800, rows_written=30, rows_updated=30, statements=34,
    ),
    "stock_level": TxnClass(
        "tpcc_stock_level", cpu_s=2.4e-3, page_reads=200, page_writes=0,
        log_bytes=0, statements=3,
    ),
}


def tpcc_mix(warehouses: int = 1) -> WorkloadMix:
    """The cloud-model view of a TPC-C run at ``warehouses`` scale."""
    classes = tuple(
        (TPCC_CLASSES[name], float(weight)) for name, weight in STANDARD_MIX.items()
    )
    return WorkloadMix(
        name=f"tpcc/W{warehouses}",
        classes=classes,
        working_set_bytes=float(BYTES_PER_WAREHOUSE * warehouses),
        # TPC-C confines most traffic to each warehouse's districts,
        # which behave like a hot set of ~15% of the data.
        hot_fraction=0.75,
        hot_set_bytes=float(BYTES_PER_WAREHOUSE * warehouses) * 0.15,
    )


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def _schemas() -> List[Schema]:
    i, dec, vc, ts = ColumnType.INT, ColumnType.DECIMAL, ColumnType.VARCHAR, ColumnType.TIMESTAMP
    return [
        Schema("WAREHOUSE", (
            Column("W_ID", i, nullable=False),
            Column("W_NAME", vc),
            Column("W_TAX", dec, default=0.1),
            Column("W_YTD", dec, default=0.0),
        ), primary_key="W_ID"),
        Schema("DISTRICT", (
            Column("D_KEY", i, nullable=False, autoincrement=True),
            Column("D_ID", i, nullable=False),
            Column("D_W_ID", i, nullable=False),
            Column("D_TAX", dec, default=0.1),
            Column("D_YTD", dec, default=0.0),
            Column("D_NEXT_O_ID", i, nullable=False, default=1),
        ), primary_key="D_KEY"),
        Schema("CUSTOMER", (
            Column("C_KEY", i, nullable=False, autoincrement=True),
            Column("C_ID", i, nullable=False),
            Column("C_D_ID", i, nullable=False),
            Column("C_W_ID", i, nullable=False),
            Column("C_LAST", vc),
            Column("C_BALANCE", dec, default=-10.0),
            Column("C_YTD_PAYMENT", dec, default=10.0),
            Column("C_PAYMENT_CNT", i, default=1),
            Column("C_DELIVERY_CNT", i, default=0),
        ), primary_key="C_KEY"),
        Schema("HISTORY", (
            Column("H_ID", i, nullable=False, autoincrement=True),
            Column("H_C_KEY", i, nullable=False),
            Column("H_D_ID", i, nullable=False),
            Column("H_W_ID", i, nullable=False),
            Column("H_AMOUNT", dec, default=0.0),
            Column("H_DATE", ts),
        ), primary_key="H_ID"),
        Schema("NEW_ORDER", (
            Column("NO_KEY", i, nullable=False, autoincrement=True),
            Column("NO_O_ID", i, nullable=False),
            Column("NO_D_ID", i, nullable=False),
            Column("NO_W_ID", i, nullable=False),
        ), primary_key="NO_KEY"),
        Schema("ORDERS", (
            Column("O_KEY", i, nullable=False, autoincrement=True),
            Column("O_ID", i, nullable=False),
            Column("O_D_ID", i, nullable=False),
            Column("O_W_ID", i, nullable=False),
            Column("O_C_ID", i, nullable=False),
            Column("O_CARRIER_ID", i),
            Column("O_OL_CNT", i, default=0),
            Column("O_ENTRY_D", ts),
        ), primary_key="O_KEY"),
        Schema("ORDER_LINE", (
            Column("OL_KEY", i, nullable=False, autoincrement=True),
            Column("OL_O_ID", i, nullable=False),
            Column("OL_D_ID", i, nullable=False),
            Column("OL_W_ID", i, nullable=False),
            Column("OL_NUMBER", i, nullable=False),
            Column("OL_I_ID", i, nullable=False),
            Column("OL_QUANTITY", i, default=5),
            Column("OL_AMOUNT", dec, default=0.0),
        ), primary_key="OL_KEY"),
        Schema("ITEM", (
            Column("I_ID", i, nullable=False),
            Column("I_NAME", vc),
            Column("I_PRICE", dec, default=1.0),
        ), primary_key="I_ID"),
        Schema("STOCK", (
            Column("S_KEY", i, nullable=False, autoincrement=True),
            Column("S_I_ID", i, nullable=False),
            Column("S_W_ID", i, nullable=False),
            Column("S_QUANTITY", i, default=50),
            Column("S_YTD", i, default=0),
            Column("S_ORDER_CNT", i, default=0),
        ), primary_key="S_KEY"),
    ]


def create_tpcc_schema(db: Database) -> None:
    for schema in _schemas():
        db.create_table(schema)
    db.create_index("DISTRICT", "district_wd", ("D_W_ID", "D_ID"), unique=True)
    db.create_index("CUSTOMER", "customer_wdc", ("C_W_ID", "C_D_ID", "C_ID"), unique=True)
    db.create_index("NEW_ORDER", "new_order_wdo", ("NO_W_ID", "NO_D_ID", "NO_O_ID"), unique=True)
    db.create_index("NEW_ORDER", "new_order_wd", ("NO_W_ID", "NO_D_ID"))
    db.create_index("ORDERS", "orders_wdo", ("O_W_ID", "O_D_ID", "O_ID"), unique=True)
    db.create_index("ORDERS", "orders_wdc", ("O_W_ID", "O_D_ID", "O_C_ID"))
    db.create_index("ORDER_LINE", "order_line_wdo", ("OL_W_ID", "OL_D_ID", "OL_O_ID"))
    db.create_index("STOCK", "stock_wi", ("S_W_ID", "S_I_ID"), unique=True)


@dataclass
class TpccScale:
    """Loaded sizes (possibly shrunk for functional runs)."""

    warehouses: int
    districts: int
    customers_per_district: int
    items: int


def load_tpcc(
    db: Database,
    warehouses: int = 1,
    customer_scale: float = 0.01,
    item_scale: float = 0.01,
) -> TpccScale:
    """Create and populate the TPC-C tables (scaled-down row counts)."""
    create_tpcc_schema(db)
    rng = random.Random(SEED)
    customers = max(3, int(CUSTOMERS_PER_DISTRICT * customer_scale))
    items = max(10, int(ITEMS * item_scale))
    now = 1_700_000_000.0

    db.table("ITEM").load(
        (i_id, f"item-{i_id:06d}", round(rng.uniform(1, 100), 2))
        for i_id in range(1, items + 1)
    )
    # Rows are drawn in the order the random stream expects and collected
    # per table; surrogate keys count up from 1 as on a fresh table.
    warehouse, stock, district, customer, orders, order_line = ([] for _ in range(6))
    for w_id in range(1, warehouses + 1):
        warehouse.append((w_id, f"W{w_id}", 0.08, 300_000.0))
        for i_id in range(1, items + 1):
            stock.append((len(stock) + 1, i_id, w_id, rng.randint(10, 100), 0, 0))
        for d_id in range(1, DISTRICTS_PER_WAREHOUSE + 1):
            district.append(
                (len(district) + 1, d_id, w_id, 0.09, 30_000.0, customers + 1)
            )
            for c_id in range(1, customers + 1):
                customer.append(
                    (len(customer) + 1, c_id, d_id, w_id, f"LAST{c_id:04d}",
                     -10.0, 10.0, 1, 0)
                )
                # one initial order per customer, already delivered
                orders.append(
                    (len(orders) + 1, c_id, d_id, w_id, c_id, rng.randint(1, 10), 5, now)
                )
                for number in range(1, 6):
                    order_line.append(
                        (len(order_line) + 1, c_id, d_id, w_id, number,
                         rng.randint(1, items), 5, round(rng.uniform(1, 100), 2))
                    )
    for name, rows in (
        ("WAREHOUSE", warehouse), ("STOCK", stock), ("DISTRICT", district),
        ("CUSTOMER", customer), ("ORDERS", orders), ("ORDER_LINE", order_line),
    ):
        db.table(name).load(rows)
    return TpccScale(
        warehouses=warehouses,
        districts=DISTRICTS_PER_WAREHOUSE,
        customers_per_district=customers,
        items=items,
    )


class TpccAbort(Exception):
    """The intentional 1% NewOrder rollback of the TPC-C spec."""


class TpccWorkload(MixWorkload):
    """Functional TPC-C transactions over a loaded engine database.

    The shared driver replays a transaction on retryable aborts (lock
    conflict, write conflict), never on semantic failures: the spec's
    intentional 1% NewOrder rollback is handled inside
    :meth:`new_order` and is not retried.
    """

    def __init__(self, db: Database, scale: TpccScale):
        super().__init__(random.Random(SEED), {
            "new_order": self.new_order, "payment": self.payment,
            "order_status": self.order_status, "delivery": self.delivery,
            "stock_level": self.stock_level,
        }, STANDARD_MIX.items())
        self.db = db
        self.scale = scale

    # -- helpers ------------------------------------------------------------

    def _wdc(self) -> Tuple[int, int, int]:
        return (
            self._rng.randint(1, self.scale.warehouses),
            self._rng.randint(1, self.scale.districts),
            self._rng.randint(1, self.scale.customers_per_district),
        )

    def _district_row(self, txn, w_id: int, d_id: int):
        return self.db.execute(
            "SELECT D_KEY, D_NEXT_O_ID, D_TAX FROM district WHERE D_W_ID = ? AND D_ID = ?",
            [w_id, d_id], txn=txn,
        ).first()

    # -- transactions ----------------------------------------------------------

    def new_order(self) -> bool:
        """Insert an order with 5-15 lines; 1% roll back intentionally."""
        w_id, d_id, c_id = self._wdc()
        n_lines = self._rng.randint(5, 15)
        rollback = self._rng.random() < 0.01
        try:
            with self.db.begin() as txn:
                district = self._district_row(txn, w_id, d_id)
                if district is None:
                    return False
                d_key, next_o_id, _d_tax = district
                self.db.execute(
                    "UPDATE district SET D_NEXT_O_ID = D_NEXT_O_ID + ? WHERE D_KEY = ?",
                    [1, d_key], txn=txn,
                )
                self.db.execute(
                    "INSERT INTO orders (O_ID, O_D_ID, O_W_ID, O_C_ID, O_OL_CNT, O_ENTRY_D)"
                    " VALUES (?, ?, ?, ?, ?, ?)",
                    [next_o_id, d_id, w_id, c_id, n_lines, 1_700_000_000.0], txn=txn,
                )
                self.db.execute(
                    "INSERT INTO new_order (NO_O_ID, NO_D_ID, NO_W_ID) VALUES (?, ?, ?)",
                    [next_o_id, d_id, w_id], txn=txn,
                )
                for number in range(1, n_lines + 1):
                    i_id = self._rng.randint(1, self.scale.items)
                    item = self.db.execute(
                        "SELECT I_PRICE FROM item WHERE I_ID = ?", [i_id], txn=txn
                    ).first()
                    if item is None:
                        raise TpccAbort()
                    quantity = self._rng.randint(1, 10)
                    self.db.execute(
                        "UPDATE stock SET S_QUANTITY = S_QUANTITY - ?, S_YTD = S_YTD + ?,"
                        " S_ORDER_CNT = S_ORDER_CNT + ? WHERE S_W_ID = ? AND S_I_ID = ?",
                        [quantity, quantity, 1, w_id, i_id], txn=txn,
                    )
                    self.db.execute(
                        "INSERT INTO order_line (OL_O_ID, OL_D_ID, OL_W_ID, OL_NUMBER,"
                        " OL_I_ID, OL_QUANTITY, OL_AMOUNT) VALUES (?, ?, ?, ?, ?, ?, ?)",
                        [next_o_id, d_id, w_id, number, i_id, quantity,
                         round(item[0] * quantity, 2)], txn=txn,
                    )
                if rollback:
                    raise TpccAbort()
        except TpccAbort:
            self.aborted += 1
            return False
        return True

    def payment(self) -> bool:
        w_id, d_id, c_id = self._wdc()
        amount = round(self._rng.uniform(1, 5000), 2)
        with self.db.begin() as txn:
            self.db.execute(
                "UPDATE warehouse SET W_YTD = W_YTD + ? WHERE W_ID = ?",
                [amount, w_id], txn=txn,
            )
            district = self._district_row(txn, w_id, d_id)
            if district is None:
                return False
            self.db.execute(
                "UPDATE district SET D_YTD = D_YTD + ? WHERE D_KEY = ?",
                [amount, district[0]], txn=txn,
            )
            customer = self.db.execute(
                "SELECT C_KEY FROM customer WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?",
                [w_id, d_id, c_id], txn=txn,
            ).first()
            if customer is None:
                return False
            self.db.execute(
                "UPDATE customer SET C_BALANCE = C_BALANCE - ?,"
                " C_YTD_PAYMENT = C_YTD_PAYMENT + ?, C_PAYMENT_CNT = C_PAYMENT_CNT + ?"
                " WHERE C_KEY = ?",
                [amount, amount, 1, customer[0]], txn=txn,
            )
            self.db.execute(
                "INSERT INTO history (H_C_KEY, H_D_ID, H_W_ID, H_AMOUNT, H_DATE)"
                " VALUES (?, ?, ?, ?, ?)",
                [customer[0], d_id, w_id, amount, 1_700_000_000.0], txn=txn,
            )
        return True

    def order_status(self) -> Optional[Tuple]:
        w_id, d_id, c_id = self._wdc()
        latest = self.db.query(
            "SELECT O_ID, O_CARRIER_ID FROM orders"
            " WHERE O_W_ID = ? AND O_D_ID = ? AND O_C_ID = ?"
            " ORDER BY O_ID DESC LIMIT 1",
            [w_id, d_id, c_id],
        ).first()
        if latest is None:
            return None
        self.db.query(
            "SELECT OL_I_ID, OL_QUANTITY, OL_AMOUNT FROM order_line"
            " WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID = ?",
            [w_id, d_id, latest[0]],
        )
        return latest

    def delivery(self) -> int:
        """Deliver the oldest new order of each district; returns count."""
        w_id = self._rng.randint(1, self.scale.warehouses)
        delivered = 0
        with self.db.begin() as txn:
            for d_id in range(1, self.scale.districts + 1):
                oldest = self.db.execute(
                    "SELECT NO_KEY, NO_O_ID FROM new_order"
                    " WHERE NO_W_ID = ? AND NO_D_ID = ? ORDER BY NO_O_ID LIMIT 1",
                    [w_id, d_id], txn=txn,
                ).first()
                if oldest is None:
                    continue
                no_key, o_id = oldest
                self.db.execute(
                    "DELETE FROM new_order WHERE NO_KEY = ?", [no_key], txn=txn
                )
                order = self.db.execute(
                    "SELECT O_KEY, O_C_ID FROM orders"
                    " WHERE O_W_ID = ? AND O_D_ID = ? AND O_ID = ?",
                    [w_id, d_id, o_id], txn=txn,
                ).first()
                if order is None:
                    continue
                self.db.execute(
                    "UPDATE orders SET O_CARRIER_ID = ? WHERE O_KEY = ?",
                    [self._rng.randint(1, 10), order[0]], txn=txn,
                )
                total = self.db.execute(
                    "SELECT SUM(OL_AMOUNT) FROM order_line"
                    " WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID = ?",
                    [w_id, d_id, o_id], txn=txn,
                ).scalar() or 0.0
                customer = self.db.execute(
                    "SELECT C_KEY FROM customer"
                    " WHERE C_W_ID = ? AND C_D_ID = ? AND C_ID = ?",
                    [w_id, d_id, order[1]], txn=txn,
                ).first()
                if customer is not None:
                    self.db.execute(
                        "UPDATE customer SET C_BALANCE = C_BALANCE + ?,"
                        " C_DELIVERY_CNT = C_DELIVERY_CNT + ? WHERE C_KEY = ?",
                        [total, 1, customer[0]], txn=txn,
                    )
                delivered += 1
        return delivered

    def stock_level(self) -> int:
        """Count distinct recent items below a stock threshold."""
        w_id = self._rng.randint(1, self.scale.warehouses)
        d_id = self._rng.randint(1, self.scale.districts)
        threshold = self._rng.randint(10, 20)
        district = self.db.query(
            "SELECT D_NEXT_O_ID FROM district WHERE D_W_ID = ? AND D_ID = ?",
            [w_id, d_id],
        ).first()
        if district is None:
            return 0
        next_o_id = district[0]
        lines = self.db.query(
            "SELECT OL_I_ID FROM order_line"
            " WHERE OL_W_ID = ? AND OL_D_ID = ? AND OL_O_ID >= ? AND OL_O_ID < ?",
            [w_id, d_id, max(1, next_o_id - 20), next_o_id],
        ).rows
        low = 0
        for (i_id,) in set(lines):
            stock = self.db.query(
                "SELECT S_QUANTITY FROM stock WHERE S_W_ID = ? AND S_I_ID = ?",
                [w_id, i_id],
            ).first()
            if stock is not None and stock[0] < threshold:
                low += 1
        return low
