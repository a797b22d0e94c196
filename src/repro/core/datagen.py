"""Deterministic data generation for the sales microservice.

Two views of the data exist side by side:

* **materialised rows** for functional runs (the engine-backed lag-time
  and OLTP evaluations, examples, tests).  ``row_scale`` shrinks the
  materialised row counts -- loading 300 000 x SF real rows into a pure
  Python engine is possible but pointless for functional checks -- while
  keeping key distributions intact.
* **nominal byte sizes** for the analytical model: the paper's raw
  dataset sizes (194 MB / 1.99 GB / 20.8 GB for SF1/SF10/SF100) are used
  as working-set inputs, so buffer-versus-working-set effects match the
  paper's scale factors regardless of ``row_scale``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, Iterator, Tuple

from repro.core.schema import (
    ORDERLINE_MULTIPLIER,
    create_sales_schema,
    rows_at_scale,
)
from repro.engine.database import Database

GIB = 2**30
MIB = 2**20

#: raw dataset sizes reported in the paper's benchmark configuration
NOMINAL_BYTES: Dict[int, float] = {
    1: 194 * MIB,
    10: 1.99 * GIB,
    100: 20.8 * GIB,
}

_REGIONS = ("NORTH", "SOUTH", "EAST", "WEST", "CENTRAL")
_STATUSES = ("NEW", "PAID", "SHIPPED", "DONE")


def nominal_bytes(scale_factor: int) -> float:
    """Raw data bytes at ``scale_factor`` (paper values for SF1/10/100)."""
    if scale_factor in NOMINAL_BYTES:
        return NOMINAL_BYTES[scale_factor]
    if scale_factor < 1:
        raise ValueError("scale factor must be >= 1")
    return 200 * MIB * scale_factor


@dataclass
class GeneratedData:
    """Summary of a data-generation run."""

    scale_factor: int
    row_scale: float
    rows: Dict[str, int] = field(default_factory=dict)
    nominal_bytes: float = 0.0

    @property
    def total_rows(self) -> int:
        return sum(self.rows.values())


class DataGenerator:
    """Loads the sales schema and rows into an engine database."""

    def __init__(self, scale_factor: int = 1, row_scale: float = 0.01, seed: int = 42):
        if not 0 < row_scale <= 1:
            raise ValueError("row_scale must be in (0, 1]")
        self.scale_factor = scale_factor
        self.row_scale = row_scale
        self.seed = seed

    def materialised_rows(self) -> Dict[str, int]:
        """Row counts actually loaded (>= 100 per table)."""
        return {
            table: max(100, int(count * self.row_scale))
            for table, count in rows_at_scale(self.scale_factor).items()
        }

    def iter_tables(self) -> Iterator[Tuple[str, Iterator[tuple]]]:
        """Yield ``(table_name, rows)`` per table, in generation order.

        The single stream serves both the whole-database loader below
        and the sharded fleet loader, which routes each row to the shard
        owning its partition key -- every consumer sees byte-identical
        rows for a given seed.  Each ``rows`` is valid until the next
        table is drawn.
        """
        for table_name, pairs in groupby(self._iter_rows(), key=itemgetter(0)):
            yield table_name, map(itemgetter(1), pairs)

    def _iter_rows(self) -> Iterator[tuple]:
        """``(table_name, row)`` in deterministic generation order: each
        table's rows contiguous, so :meth:`iter_tables` can group them."""
        rng = random.Random(self.seed)
        counts = self.materialised_rows()
        now = 1_700_000_000.0  # fixed epoch base keeps runs reproducible

        for c_id in range(1, counts["CUSTOMER"] + 1):
            yield "CUSTOMER", (
                c_id,
                f"Customer#{c_id:09d}",
                round(rng.uniform(0, 5000), 2),
                rng.choice(_REGIONS),
                now - rng.uniform(0, 86_400 * 30),
            )

        for o_id in range(1, counts["ORDERS"] + 1):
            yield "ORDERS", (
                o_id,
                rng.randint(1, counts["CUSTOMER"]),
                now - rng.uniform(0, 86_400 * 30),
                rng.choice(_STATUSES),
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
        # Top up if the per-order loop undershot (row_scale rounding).
        while ol_id < counts["ORDERLINE"]:
            ol_id += 1
            yield "ORDERLINE", (
                ol_id,
                rng.randint(1, counts["ORDERS"]),
                rng.randint(1, 100_000),
                rng.randint(1, 10),
                round(rng.uniform(1, 100), 2),
            )

    def populate(self, db: Database, create_schema: bool = True) -> GeneratedData:
        """Generate and load all rows; returns a summary."""
        if create_schema:
            create_sales_schema(db)
        for table_name, rows in self.iter_tables():
            db.table(table_name).load(rows)
        return GeneratedData(
            scale_factor=self.scale_factor,
            row_scale=self.row_scale,
            rows=self.materialised_rows(),
            nominal_bytes=nominal_bytes(self.scale_factor),
        )


def load_sales_database(
    name: str = "primary",
    scale_factor: int = 1,
    row_scale: float = 0.01,
    seed: int = 42,
    observer=None,
) -> tuple[Database, GeneratedData]:
    """One-call helper: new engine database with the sales data loaded."""
    db = Database(name, observer=observer)
    data = DataGenerator(scale_factor, row_scale, seed).populate(db)
    return db, data
