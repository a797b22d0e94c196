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

import gc
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
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
_ITEMS = 100_000
_QUANTITIES = 10
_NOW = 1_700_000_000.0  # fixed epoch base keeps runs reproducible
_MONTH = 86_400 * 30

# The row draws below are ``random.Random``'s own, without its three
# Python frames per call (CPython 3.11, ``_randbelow_with_getrandbits``):
#
# * ``randint(1, n)`` is ``1 + r`` and ``choice(seq)`` is ``seq[r]``
#   (``n = len(seq)``), where ``r = getrandbits(n.bit_length())`` is
#   redrawn while ``r >= n``;
# * ``uniform(a, b)`` is ``a + (b - a) * random()``, kept in that form.
#
# Each row draws in the order the stdlib calls did, so every seed gives
# the rows it always gave (``tests/core/test_schema_datagen.py`` keeps
# the stdlib-call generator as the oracle).


def _customers(rng: random.Random, counts: Dict[str, int]) -> Iterator[tuple]:
    bits, uniform01 = rng.getrandbits, rng.random
    n_regions = len(_REGIONS)
    region_bits = n_regions.bit_length()
    for c_id in range(1, counts["CUSTOMER"] + 1):
        balance = round(0 + (5000 - 0) * uniform01(), 2)
        while (region := bits(region_bits)) >= n_regions:
            pass
        yield (c_id, f"Customer#{c_id:09d}", balance, _REGIONS[region],
               _NOW - (0 + (_MONTH - 0) * uniform01()))


def _orders(rng: random.Random, counts: Dict[str, int]) -> Iterator[tuple]:
    bits, uniform01 = rng.getrandbits, rng.random
    n_customers = counts["CUSTOMER"]
    customer_bits = n_customers.bit_length()
    n_statuses = len(_STATUSES)
    status_bits = n_statuses.bit_length()
    for o_id in range(1, counts["ORDERS"] + 1):
        while (customer := bits(customer_bits)) >= n_customers:
            pass
        entered = _NOW - (0 + (_MONTH - 0) * uniform01())
        while (status := bits(status_bits)) >= n_statuses:
            pass
        yield (o_id, 1 + customer, entered, _STATUSES[status],
               round(5 + (500 - 5) * uniform01(), 2), _NOW - (0 + (_MONTH - 0) * uniform01()))


def _orderlines(rng: random.Random, counts: Dict[str, int]) -> Iterator[tuple]:
    """``ORDERLINE_MULTIPLIER`` lines per order while both last, then a
    top-up of lines on random orders if ``row_scale`` rounding left the
    orders too few for the line count."""
    bits, uniform01 = rng.getrandbits, rng.random
    n_lines, n_orders = counts["ORDERLINE"], counts["ORDERS"]
    per_order = ORDERLINE_MULTIPLIER
    item_bits, quantity_bits = _ITEMS.bit_length(), _QUANTITIES.bit_length()
    order_bits = n_orders.bit_length()
    placed = min(n_lines, n_orders * per_order)
    for ol_id in range(1, n_lines + 1):
        if ol_id <= placed:
            o_id = (ol_id - 1) // per_order + 1
        else:
            while (o_id := bits(order_bits)) >= n_orders:
                pass
            o_id += 1
        while (item := bits(item_bits)) >= _ITEMS:
            pass
        while (quantity := bits(quantity_bits)) >= _QUANTITIES:
            pass
        yield (ol_id, o_id, 1 + item, 1 + quantity, round(1 + (100 - 1) * uniform01(), 2))


@contextmanager
def gc_paused() -> Iterator[None]:
    """No cyclic collection inside the block; the caller's GC state after.

    A load builds tens of thousands of row tuples that hold only ints,
    floats and strings, so they can never form a cycle -- yet each 700
    of them start a young collection, and the surviving mass triggers
    full ones.  Those full collections also freed the cycles the caller
    had dropped (a previous database), so one runs on entry instead,
    over the smaller heap: the pause must not raise a load's peak
    memory.  The young collection owed runs once, at the first
    allocation after the block.  A caller that had GC off keeps it off,
    uncollected; an exception, or the context manager being dropped
    mid-block (generator close), re-enables it all the same.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


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
        rows for a given seed.  The tables share one RNG, so each
        ``rows`` is drained before the next table is drawn.
        """
        rng = random.Random(self.seed)
        counts = self.materialised_rows()
        for table_name, rows in (
            ("CUSTOMER", _customers(rng, counts)),
            ("ORDERS", _orders(rng, counts)),
            ("ORDERLINE", _orderlines(rng, counts)),
        ):
            yield table_name, rows
            deque(rows, maxlen=0)

    def populate(self, db: Database) -> GeneratedData:
        """Create the schema, generate and load all rows; returns a summary."""
        create_sales_schema(db)
        with gc_paused():
            for table_name, rows in self.iter_tables():
                db.table(table_name).load(rows)
        return GeneratedData(
            scale_factor=self.scale_factor,
            row_scale=self.row_scale,
            rows=self.materialised_rows(),
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
