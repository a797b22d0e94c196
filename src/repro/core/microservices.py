"""The Inventory and Manufacturing microservices (paper Figure 2).

Section II-A describes a SaaS ERP of three microservices sharing
schema/database/server: Sales (the paper's focus, T1-T4), plus
Manufacturing and Inventory named as future additions.  This module
implements those two, completing Figure 2:

* **Inventory service** -- PRODUCT, INVENTORY and RESTOCK_EVENT tables,
  with T5 (Restock: read-modify-write of a stock level plus an event
  insert) and T6 (Inventory Check: point read).
* **Manufacturing service** -- BOM (bill of materials) and WORKORDER
  tables, with T7 (Schedule Work Order: explode the BOM, reserve
  components, insert a work order) and T8 (Complete Work Order: finish
  the order and return the produced quantity to inventory).

The statements live in ``stmt_db_extended.toml`` and flow through the
same :class:`~repro.core.sqlreader.SqlStmts` mechanism as T1-T4, and
the mix runs on the same driver (:class:`~repro.core.workload.
MixWorkload`), so the workload manager and the cloud model need no
changes -- the extension is data plus these transaction bodies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cloud.workload_model import TxnClass, WorkloadMix
from repro.core.datagen import nominal_bytes
from repro.core.sqlreader import SqlStmts
from repro.core.workload import MixWorkload, WeightedMix
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema

#: the extended statement file shipped with the benchmark
EXTENDED_STMT_FILE = Path(__file__).with_name("stmt_db_extended.toml")

#: base row counts at scale factor 1 (inventory mirrors the sales scale)
PRODUCTS = 30_000
WAREHOUSES = 10
COMPONENTS_PER_PRODUCT = 3

PRODUCT = Schema(
    "PRODUCT",
    (
        Column("P_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("P_NAME", ColumnType.VARCHAR, nullable=False),
        Column("P_PRICE", ColumnType.DECIMAL, default=1.0),
    ),
    primary_key="P_ID",
)

INVENTORY = Schema(
    "INVENTORY",
    (
        Column("I_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("I_P_ID", ColumnType.INT, nullable=False),
        Column("I_WAREHOUSE", ColumnType.INT, nullable=False),
        Column("I_QUANTITY", ColumnType.INT, nullable=False, default=0),
        Column("I_UPDATEDDATE", ColumnType.TIMESTAMP),
    ),
    primary_key="I_ID",
)

RESTOCK_EVENT = Schema(
    "RESTOCK_EVENT",
    (
        Column("RE_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("RE_I_ID", ColumnType.INT, nullable=False),
        Column("RE_QUANTITY", ColumnType.INT, default=0),
        Column("RE_DATE", ColumnType.TIMESTAMP),
    ),
    primary_key="RE_ID",
)

BOM = Schema(
    "BOM",
    (
        Column("B_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("B_P_ID", ColumnType.INT, nullable=False),
        Column("B_COMPONENT_ID", ColumnType.INT, nullable=False),
        Column("B_COUNT", ColumnType.INT, default=1),
    ),
    primary_key="B_ID",
)

WORKORDER = Schema(
    "WORKORDER",
    (
        Column("W_ID", ColumnType.INT, nullable=False, autoincrement=True),
        Column("W_P_ID", ColumnType.INT, nullable=False),
        Column("W_QUANTITY", ColumnType.INT, default=1),
        Column("W_STATUS", ColumnType.VARCHAR, default="SCHEDULED"),
        Column("W_DUE", ColumnType.TIMESTAMP),
    ),
    primary_key="W_ID",
)

EXTENDED_SCHEMAS = [PRODUCT, INVENTORY, RESTOCK_EVENT, BOM, WORKORDER]

#: resource footprints of the extended transactions (same calibration
#: scale as T1-T4; T7 explodes a three-component BOM)
EXTENDED_TXN_CLASSES: Dict[str, TxnClass] = {
    "T5": TxnClass("T5", cpu_s=0.9e-3, page_reads=2, page_writes=2,
                   log_bytes=350, rows_written=2, rows_updated=1, statements=3),
    "T6": TxnClass("T6", cpu_s=0.17e-3, page_reads=2, page_writes=0,
                   log_bytes=0, statements=1),
    "T7": TxnClass("T7", cpu_s=2.4e-3, page_reads=6, page_writes=4,
                   log_bytes=900, rows_written=4, rows_updated=3, statements=5),
    "T8": TxnClass("T8", cpu_s=1.3e-3, page_reads=3, page_writes=2,
                   log_bytes=400, rows_written=2, rows_updated=2, statements=3),
}


def create_extended_schema(db: Database) -> None:
    """Create the inventory + manufacturing tables and their indexes."""
    for schema in EXTENDED_SCHEMAS:
        db.create_table(schema)
    db.create_index("INVENTORY", "inventory_pw", ("I_P_ID", "I_WAREHOUSE"), unique=True)
    db.create_index("BOM", "bom_p", ("B_P_ID",))
    db.create_index("WORKORDER", "workorder_p", ("W_P_ID",))


@dataclass
class ExtendedScale:
    products: int
    warehouses: int


def load_extended(
    db: Database,
    row_scale: float = 0.01,
) -> ExtendedScale:
    """Create and populate the extended services' tables at scale factor
    1 (``db`` may be the sales database: the paper's tenants share
    schema/database/server among services)."""
    create_extended_schema(db)
    rng = random.Random(42)
    products = max(30, int(PRODUCTS * row_scale))
    now = 1_700_000_000.0

    db.table("PRODUCT").load(
        (p_id, f"Product#{p_id:06d}", round(rng.uniform(1, 500), 2))
        for p_id in range(1, products + 1)
    )
    db.table("INVENTORY").load(
        ((p_id - 1) * WAREHOUSES + warehouse, p_id, warehouse, rng.randint(0, 500), now)
        for p_id in range(1, products + 1)
        for warehouse in range(1, WAREHOUSES + 1)
    )
    db.table("BOM").load(
        ((p_id - 1) * COMPONENTS_PER_PRODUCT + part, p_id,
         rng.randint(1, products), rng.randint(1, 4))
        for p_id in range(1, products + 1)
        for part in range(1, COMPONENTS_PER_PRODUCT + 1)
    )
    return ExtendedScale(products=products, warehouses=WAREHOUSES)


@dataclass(frozen=True)
class ExtendedMix(WeightedMix):
    """Weights over T5-T8 (the extended services' transaction mix)."""

    t5: float = 0.0
    t6: float = 0.0
    t7: float = 0.0
    t8: float = 0.0

    def to_workload_mix(self, scale_factor: int = 1) -> WorkloadMix:
        classes = tuple(
            (EXTENDED_TXN_CLASSES[task], weight) for task, weight in self.weights
        )
        return WorkloadMix(
            name=f"erp-extended/SF{scale_factor}",
            classes=classes,
            working_set_bytes=nominal_bytes(scale_factor) * 0.4,
        )


#: the inventory-heavy default mix: mostly checks, some restocks and orders
INVENTORY_MIX = ExtendedMix(t5=10, t6=70, t7=12, t8=8)


class ExtendedWorkload(MixWorkload):
    """Functional executor of T5-T8 against a loaded engine database.

    The shared driver replays a body on a retryable abort; one thread
    drives this workload, so none arises and the retry changes no count.
    """

    def __init__(self, db: Database, scale: ExtendedScale,
                 mix: ExtendedMix = INVENTORY_MIX, seed: int = 42):
        super().__init__(
            random.Random(seed),
            {"T5": self.run_t5, "T6": self.run_t6, "T7": self.run_t7, "T8": self.run_t8},
            mix.weights,
        )
        self.db = db
        self.scale = scale
        self.stmts = SqlStmts.from_file(EXTENDED_STMT_FILE)
        self._clock = 1_700_000_000.0
        self._workorder_high = db.table("WORKORDER").row_count

    def _now(self) -> float:
        self._clock += 0.001
        return self._clock

    def _pick_pw(self) -> Tuple[int, int]:
        return (
            self._rng.randint(1, self.scale.products),
            self._rng.randint(1, self.scale.warehouses),
        )

    # -- transactions ----------------------------------------------------------

    def run_t5(self) -> bool:
        """Restock: bump one stock level and record the event."""
        select, update, insert = self.stmts.statements("T5")
        p_id, warehouse = self._pick_pw()
        amount = self._rng.randint(10, 200)
        with self.db.begin() as txn:
            row = self.db.execute(select, [p_id, warehouse], txn=txn).first()
            if row is None:
                return False
            i_id, _quantity = row
            now = self._now()
            self.db.execute(update, [amount, now, i_id], txn=txn)
            self.db.execute(insert, [i_id, amount, now], txn=txn)
        return True

    def run_t6(self) -> Optional[Tuple]:
        (select,) = self.stmts.statements("T6")
        p_id, warehouse = self._pick_pw()
        return self.db.query(select, [p_id, warehouse]).first()

    def run_t7(self) -> Optional[int]:
        """Schedule a work order: explode the BOM, reserve components."""
        bom_select, reserve, insert = self.stmts.statements("T7")
        p_id, warehouse = self._pick_pw()
        quantity = self._rng.randint(1, 5)
        with self.db.begin() as txn:
            components = self.db.execute(bom_select, [p_id], txn=txn).rows
            if not components:
                return None
            now = self._now()
            for component_id, count in components:
                self.db.execute(
                    reserve, [count * quantity, now, component_id, warehouse],
                    txn=txn,
                )
            self.db.execute(insert, [p_id, quantity, now + 86_400], txn=txn)
        self._workorder_high += 1
        return self._workorder_high

    def run_t8(self) -> bool:
        """Complete a work order and return the yield to inventory."""
        select, finish, credit = self.stmts.statements("T8")
        if self._workorder_high == 0:
            return False
        w_id = self._rng.randint(1, self._workorder_high)
        with self.db.begin() as txn:
            row = self.db.execute(select, [w_id], txn=txn).first()
            if row is None:
                return False
            _w_id, p_id, quantity = row
            self.db.execute(finish, [w_id], txn=txn)
            self.db.execute(
                credit,
                [quantity, self._now(), p_id, self._rng.randint(1, self.scale.warehouses)],
                txn=txn,
            )
        return True
