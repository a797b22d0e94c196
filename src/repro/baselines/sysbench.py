"""SysBench OLTP baseline.

Reproduces the classic ``oltp_*`` workloads over ``sbtest<N>`` tables
(``id`` PK, integer ``k``, char payloads ``c`` and ``pad``).  The paper
runs SysBench with 3 tables of 300 000 rows (~226 MB) at a constant 11
threads to contrast its flat resource profile against CloudyBench's
elastic patterns (Figure 9).

Two entry points:

* :class:`SysbenchWorkload` -- functional executor against the engine.
* :func:`sysbench_mix` -- the analytical mix for the cloud model.
"""

from __future__ import annotations

import random

from repro.cloud.workload_model import TxnClass, WorkloadMix
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema

#: paper configuration: 3 tables x 300 000 rows ~= 226 MB
DEFAULT_TABLES = 3
DEFAULT_ROWS = 300_000
DATASET_BYTES = 226 * 2**20
#: the seed of every sysbench draw
SEED = 42

#: model footprints: sysbench statements are single-row primary-key ops
_POINT_SELECT = TxnClass(
    "sb_point_select", cpu_s=0.10e-3, page_reads=1, page_writes=0,
    log_bytes=0, statements=1,
)
_INDEX_UPDATE = TxnClass(
    "sb_index_update", cpu_s=0.16e-3, page_reads=1, page_writes=1,
    log_bytes=120, rows_written=1, rows_updated=1, statements=1,
)
_OLTP_RW = TxnClass(
    # the classic oltp read/write transaction: 10 selects + 4 writes
    "sb_oltp_rw", cpu_s=1.9e-3, page_reads=12, page_writes=4,
    log_bytes=600, rows_written=4, rows_updated=2, statements=14,
)


def table_schema(index: int) -> Schema:
    return Schema(
        f"SBTEST{index}",
        (
            Column("ID", ColumnType.INT, nullable=False, autoincrement=True),
            Column("K", ColumnType.INT, nullable=False, default=0),
            Column("C", ColumnType.VARCHAR, default=""),
            Column("PAD", ColumnType.VARCHAR, default=""),
        ),
        primary_key="ID",
    )


def create_sysbench_schema(db: Database, tables: int = DEFAULT_TABLES) -> None:
    for index in range(1, tables + 1):
        db.create_table(table_schema(index))
        db.create_index(f"SBTEST{index}", f"sbtest{index}_k", ("K",))


def load_sysbench(
    db: Database,
    tables: int = DEFAULT_TABLES,
    rows: int = DEFAULT_ROWS,
) -> int:
    """Create and populate the sbtest tables; returns rows loaded."""
    create_sysbench_schema(db, tables)
    rng = random.Random(SEED)
    for index in range(1, tables + 1):
        db.table(f"SBTEST{index}").load(
            (
                row_id,
                rng.randint(1, rows),
                f"c-{row_id:012d}-{rng.randint(0, 999999):06d}",
                f"pad-{row_id:08d}",
            )
            for row_id in range(1, rows + 1)
        )
    return tables * rows


def sysbench_mix(kind: str = "oltp_read_write") -> WorkloadMix:
    """The cloud-model view of the paper's sysbench run (``DEFAULT_TABLES``
    tables of ``DEFAULT_ROWS`` rows each).

    ``kind``: ``oltp_point_select``, ``oltp_read_write`` or
    ``oltp_write_only``.
    """
    working_set = float(DATASET_BYTES)
    if kind == "oltp_point_select":
        classes = ((_POINT_SELECT, 1.0),)
    elif kind == "oltp_read_write":
        classes = ((_OLTP_RW, 1.0),)
    elif kind == "oltp_write_only":
        classes = ((_INDEX_UPDATE, 1.0),)
    else:
        raise ValueError(f"unknown sysbench workload {kind!r}")
    return WorkloadMix(
        name=f"sysbench/{kind}",
        classes=classes,
        working_set_bytes=working_set,
    )


class SysbenchWorkload:
    """Functional sysbench driver over a loaded engine database.

    Not a :class:`~repro.core.workload.MixWorkload`: each instance runs
    one statement shape (``kind``), so it has no mix to draw.
    """

    def __init__(
        self,
        db: Database,
        kind: str = "oltp_read_write",
    ):
        if kind not in ("oltp_point_select", "oltp_read_write", "oltp_write_only"):
            raise ValueError(f"unknown sysbench workload {kind!r}")
        self.db = db
        self.kind = kind
        self.tables = DEFAULT_TABLES
        self._rng = random.Random(SEED)
        self._rows = {
            index: db.table(f"SBTEST{index}").row_count
            for index in range(1, DEFAULT_TABLES + 1)
        }
        self.executed = 0

    def _pick(self) -> tuple[str, int]:
        index = self._rng.randint(1, self.tables)
        row_id = self._rng.randint(1, max(1, self._rows[index]))
        return f"SBTEST{index}", row_id

    def _point_select(self) -> None:
        table, row_id = self._pick()
        self.db.query(f"SELECT C FROM {table} WHERE ID = ?", [row_id])

    def _index_update(self) -> None:
        table, row_id = self._pick()
        self.db.execute(f"UPDATE {table} SET K = K + ? WHERE ID = ?", [1, row_id])

    def _oltp_read_write(self) -> None:
        """The classic transaction: 10 point selects, 1 range sum,
        2 updates, 1 delete+insert pair, in one transaction."""
        table, _ = self._pick()
        with self.db.begin() as txn:
            for _ in range(10):
                _, row_id = self._pick()
                self.db.execute(
                    f"SELECT C FROM {table} WHERE ID = ?", [row_id], txn=txn
                )
            _, low = self._pick()
            self.db.execute(
                f"SELECT SUM(K) FROM {table} WHERE ID >= ? AND ID <= ?",
                [low, low + 99], txn=txn,
            )
            _, upd = self._pick()
            self.db.execute(
                f"UPDATE {table} SET K = K + ? WHERE ID = ?", [1, upd], txn=txn
            )
            _, upd2 = self._pick()
            self.db.execute(
                f"UPDATE {table} SET C = ? WHERE ID = ?",
                [f"rw-{self.executed:010d}", upd2], txn=txn,
            )
            _, victim = self._pick()
            deleted = self.db.execute(
                f"DELETE FROM {table} WHERE ID = ?", [victim], txn=txn
            ).rowcount
            if deleted:
                self.db.execute(
                    f"INSERT INTO {table} (ID, K, C, PAD) VALUES (?, ?, ?, ?)",
                    [victim, 1, f"re-{victim}", f"pad-{victim}"], txn=txn,
                )

    def run_one(self) -> None:
        if self.kind == "oltp_point_select":
            self._point_select()
        elif self.kind == "oltp_write_only":
            self._index_update()
        else:
            self._oltp_read_write()
        self.executed += 1

    def run_many(self, count: int) -> int:
        for _ in range(count):
            self.run_one()
        return self.executed
