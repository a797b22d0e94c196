"""YCSB baseline: core workloads A-F over a key-value usertable.

YCSB (Cooper et al., SoCC'10) is the classic cloud-serving benchmark
the paper lists in Table I: simple reads/updates/inserts/scans on one
table, no transactions, request keys drawn from zipfian / latest /
uniform distributions.  Implementing it here lets the test suite and
the Table I bench demonstrate concretely which cloud-native features
YCSB does *not* exercise.

Core workloads:

====  =========================  ==================
name  operations                 request distribution
====  =========================  ==================
A     50% read / 50% update      zipfian
B     95% read / 5% update       zipfian
C     100% read                  zipfian
D     95% read / 5% insert       latest
E     95% scan / 5% insert       zipfian
F     50% read / 50% r-m-w       zipfian
====  =========================  ==================
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.cloud.workload_model import TxnClass, WorkloadMix
from repro.core.workload import MixWorkload
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema

DEFAULT_RECORDS = 1000
FIELD_COUNT = 10
FIELD_BYTES = 100
#: YCSB's request-distribution skew
ZIPFIAN_THETA = 0.99
#: longest scan a workload-E SCAN draws, in records
MAX_SCAN = 10
#: nominal bytes per record (10 fields x 100 B + key overhead)
RECORD_BYTES = FIELD_COUNT * FIELD_BYTES + 24
#: the seed of every YCSB draw
SEED = 42

WORKLOADS: Dict[str, Dict[str, float]] = {
    "A": {"read": 0.5, "update": 0.5},
    "B": {"read": 0.95, "update": 0.05},
    "C": {"read": 1.0},
    "D": {"read": 0.95, "insert": 0.05},
    "E": {"scan": 0.95, "insert": 0.05},
    "F": {"read": 0.5, "rmw": 0.5},
}

_OP_CLASSES: Dict[str, TxnClass] = {
    "read": TxnClass("ycsb_read", cpu_s=0.09e-3, page_reads=1, page_writes=0,
                     log_bytes=0, statements=1),
    "update": TxnClass("ycsb_update", cpu_s=0.14e-3, page_reads=1, page_writes=1,
                       log_bytes=FIELD_BYTES + 40, rows_written=1, rows_updated=1,
                       statements=1),
    "insert": TxnClass("ycsb_insert", cpu_s=0.16e-3, page_reads=1, page_writes=1,
                       log_bytes=RECORD_BYTES, rows_written=1, statements=1),
    "scan": TxnClass("ycsb_scan", cpu_s=0.60e-3, page_reads=12, page_writes=0,
                     log_bytes=0, statements=1),
    "rmw": TxnClass("ycsb_rmw", cpu_s=0.24e-3, page_reads=1, page_writes=1,
                    log_bytes=FIELD_BYTES + 40, rows_written=1, rows_updated=1,
                    statements=2),
}


class ZipfianGenerator:
    """Zipf-distributed integers in ``[1, n]`` (YCSB's constant 0.99).

    Uses the Gray et al. rejection-inversion-free formulation that YCSB
    itself uses: draw via the transformed inverse CDF with precomputed
    zeta values.
    """

    def __init__(self, n: int, rng: Optional[random.Random] = None):
        if n < 1:
            raise ValueError("zipfian needs n >= 1")
        theta = ZIPFIAN_THETA
        self.n = n
        self._rng = rng or random.Random(0)
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        self._zeta2 = 1.0 + 2.0 ** -theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - self._zeta2 / self._zetan)

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 1
        if uz < self._zeta2:
            return 2
        return 1 + int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)


USERTABLE = Schema(
    "USERTABLE",
    (
        Column("Y_ID", ColumnType.INT, nullable=False, autoincrement=True),
        *(
            Column(f"FIELD{i}", ColumnType.VARCHAR, default="")
            for i in range(FIELD_COUNT)
        ),
    ),
    primary_key="Y_ID",
)


def load_ycsb(db: Database, records: int = DEFAULT_RECORDS) -> int:
    """Create and populate the usertable; returns records loaded."""
    db.create_table(USERTABLE)
    rng = random.Random(SEED)
    db.table("USERTABLE").load(
        (
            key,
            *(f"f{field}-{key}-{rng.randint(0, 999999):06d}"
              for field in range(FIELD_COUNT)),
        )
        for key in range(1, records + 1)
    )
    return records


def ycsb_mix(workload: str = "A") -> WorkloadMix:
    """The cloud-model view of one YCSB core workload over
    ``DEFAULT_RECORDS`` records."""
    ops = WORKLOADS.get(workload.upper())
    if ops is None:
        raise ValueError(f"unknown YCSB workload {workload!r} (A-F)")
    classes = tuple((_OP_CLASSES[op], weight) for op, weight in ops.items())
    working_set = float(DEFAULT_RECORDS * RECORD_BYTES)
    # zipfian(0.99): ~75% of accesses hit ~20% of the keys; latest is
    # even tighter.
    if workload.upper() == "D":
        hot_fraction, hot_share = 0.9, 0.05
    else:
        hot_fraction, hot_share = 0.75, 0.2
    return WorkloadMix(
        name=f"ycsb/{workload.upper()}",
        classes=classes,
        working_set_bytes=working_set,
        hot_fraction=hot_fraction,
        hot_set_bytes=working_set * hot_share,
    )


class YcsbWorkload(MixWorkload):
    """Functional YCSB operations over a loaded engine database.

    The shared driver replays an operation on a retryable abort; one
    thread drives this workload, so none arises and the retry changes
    no count.
    """

    def __init__(
        self,
        db: Database,
        workload: str = "A",
        records: int = DEFAULT_RECORDS,
    ):
        ops = WORKLOADS.get(workload.upper())
        if ops is None:
            raise ValueError(f"unknown YCSB workload {workload!r} (A-F)")
        bodies = {"read": self._read, "update": self._update, "insert": self._insert,
                  "scan": self._scan, "rmw": self._rmw}
        super().__init__(random.Random(SEED), {op: bodies[op] for op in ops}, ops.items())
        self.db = db
        self.workload = workload.upper()
        self._records = records
        self._zipf = ZipfianGenerator(records, rng=self._rng)

    def _next_key(self) -> int:
        if self.workload == "D":
            # latest: prefer recently inserted keys
            offset = min(self._records - 1, int(self._rng.expovariate(1 / 20.0)))
            return max(1, self._records - offset)
        return self._zipf.next()

    def _read(self) -> None:
        self.db.query("SELECT FIELD0 FROM usertable WHERE Y_ID = ?", [self._next_key()])

    def _update(self) -> None:
        field = self._rng.randint(0, FIELD_COUNT - 1)
        self.db.execute(
            f"UPDATE usertable SET FIELD{field} = ? WHERE Y_ID = ?",
            [f"upd-{self._rng.randint(0, 999999):06d}", self._next_key()],
        )

    def _insert(self) -> None:
        self._records += 1
        self.db.execute(
            "INSERT INTO usertable (Y_ID, FIELD0) VALUES (?, ?)",
            [self._records, f"new-{self._records}"],
        )

    def _scan(self) -> None:
        start = self._next_key()
        length = self._rng.randint(1, MAX_SCAN)
        self.db.query(
            "SELECT Y_ID, FIELD0 FROM usertable WHERE Y_ID >= ? AND Y_ID < ?",
            [start, start + length],
        )

    def _rmw(self) -> None:
        key = self._next_key()
        with self.db.begin() as txn:
            self.db.execute(
                "SELECT FIELD0 FROM usertable WHERE Y_ID = ?", [key], txn=txn
            )
            self.db.execute(
                "UPDATE usertable SET FIELD0 = ? WHERE Y_ID = ?",
                [f"rmw-{self._rng.randint(0, 999999):06d}", key], txn=txn,
            )
