"""Sales-microservice schema (paper Section II-A).

Three tables -- CUSTOMER, ORDERS, ORDERLINE -- model the sales service
of a SaaS ERP application.  The scaling model makes ORDERLINE an order
of magnitude larger than CUSTOMER and ORDERS, which share a size of
300 000 rows at scale factor 1.
"""

from __future__ import annotations

from typing import List

from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema

#: rows in CUSTOMER and ORDERS at scale factor 1
BASE_ROWS = 300_000
#: ORDERLINE is an order of magnitude larger
ORDERLINE_MULTIPLIER = 10

CUSTOMER = Schema(
    "CUSTOMER",
    (
        Column("C_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("C_NAME", ColumnType.VARCHAR, nullable=False),
        Column("C_CREDIT", ColumnType.DECIMAL, nullable=False, default=0.0),
        Column("C_REGION", ColumnType.VARCHAR),
        Column("C_UPDATEDDATE", ColumnType.TIMESTAMP),
    ),
    primary_key="C_ID",
)

ORDERS = Schema(
    "ORDERS",
    (
        Column("O_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("O_C_ID", ColumnType.INT, nullable=False),
        Column("O_DATE", ColumnType.TIMESTAMP),
        Column("O_STATUS", ColumnType.VARCHAR, default="NEW"),
        Column("O_TOTALAMOUNT", ColumnType.DECIMAL, default=0.0),
        Column("O_UPDATEDDATE", ColumnType.TIMESTAMP),
    ),
    primary_key="O_ID",
)

ORDERLINE = Schema(
    "ORDERLINE",
    (
        Column("OL_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("OL_O_ID", ColumnType.INT, nullable=False),
        Column("OL_I_ID", ColumnType.INT, nullable=False),
        Column("OL_QUANTITY", ColumnType.INT, default=1),
        Column("OL_AMOUNT", ColumnType.DECIMAL, default=0.0),
    ),
    primary_key="OL_ID",
)

ALL_SCHEMAS: List[Schema] = [CUSTOMER, ORDERS, ORDERLINE]


def create_sales_schema(db: Database) -> None:
    """Create the three sales tables and their secondary indexes."""
    for schema in ALL_SCHEMAS:
        db.create_table(schema)
    # Orderlines are fetched by order id when orders are assembled.
    db.create_index("ORDERLINE", "orderline_o_id", ("OL_O_ID",))
    # Orders are scanned by customer in the order-history flows.
    db.create_index("ORDERS", "orders_c_id", ("O_C_ID",))


def rows_at_scale(scale_factor: int) -> dict:
    """Row counts per table at ``scale_factor``."""
    if scale_factor < 1:
        raise ValueError("scale factor must be >= 1")
    base = BASE_ROWS * scale_factor
    return {
        "CUSTOMER": base,
        "ORDERS": base,
        "ORDERLINE": base * ORDERLINE_MULTIPLIER,
    }
