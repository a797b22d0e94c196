"""The CloudyBench OLTP workload (paper Table II).

Four transactions against the sales microservice:

* **T1 New Orderline** (write-only): insert one orderline.
* **T2 Order Payment** (read-write): read an order, mark it paid,
  credit the customer.
* **T3 Order Status** (read-only): point-read an order.
* **T4 Orderline Deletion**: delete one orderline.

Each transaction exists in two forms that must stay in sync:

* a **functional executor** that runs the real SQL from
  ``stmt_db.toml`` against the engine (used by the lag-time and chaos
  evaluators, the examples, and the tests), and
* a **resource footprint** (:class:`~repro.cloud.workload_model.
  TxnClass`) feeding the analytical throughput model (used by the
  modelled evaluations: Figures 5/6/8, Tables V-IX).

The footprint constants were calibrated once against the per-pattern
average TPS implied by the paper's Table V (P-Score x cost); see
EXPERIMENTS.md.

:class:`MixWorkload` is the one driver of every transaction-mix
workload -- T1-T4 here, T5-T8 (:mod:`repro.core.microservices`), TPC-C
and YCSB (:mod:`repro.baselines`): a workload supplies its transaction
bodies and its weights, the driver draws, runs and counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.cloud.workload_model import TxnClass, WorkloadMix
from repro.core.client import Client, EngineClient, quiet_rollback
from repro.core.datagen import nominal_bytes
from repro.core.distributions import UniformDistribution, make_distribution
from repro.core.schema import BASE_ROWS
from repro.core.resilience import retry_transaction
from repro.core.sqlreader import SqlStmts
from repro.engine.database import Database

#: calibrated resource footprints of the four transactions
TXN_CLASSES: Dict[str, TxnClass] = {
    "T1": TxnClass(
        "T1", cpu_s=0.215e-3, page_reads=1, page_writes=1,
        log_bytes=200, rows_written=1, statements=1,
    ),
    "T2": TxnClass(
        "T2", cpu_s=1.6e-3, page_reads=3, page_writes=2,
        log_bytes=400, rows_written=2, rows_updated=2, statements=3,
    ),
    "T3": TxnClass(
        "T3", cpu_s=0.18e-3, page_reads=2, page_writes=0,
        log_bytes=0, statements=1,
    ),
    "T4": TxnClass(
        "T4", cpu_s=0.19e-3, page_reads=1, page_writes=1,
        log_bytes=150, rows_written=1, statements=1,
    ),
}


class WeightedMix:
    """Validation and weights of a frozen mix dataclass whose field
    ``tN`` weighs transaction ``TN`` (weights need not sum to 100)."""

    def __post_init__(self) -> None:
        weights = tuple(getattr(self, field.name) for field in fields(self))
        if min(weights) < 0 or sum(weights) <= 0:
            raise ValueError(f"invalid transaction mix {weights}")

    @property
    def weights(self) -> Tuple[Tuple[str, float], ...]:
        """``(task, weight)`` of every task with a positive weight."""
        return tuple(
            (field.name.upper(), weight)
            for field in fields(self)
            if (weight := getattr(self, field.name)) > 0
        )


@dataclass(frozen=True)
class TransactionMix(WeightedMix):
    """Percentages of T1:T2:T3:T4."""

    t1: float = 0.0
    t2: float = 0.0
    t3: float = 0.0
    t4: float = 0.0

    @property
    def label(self) -> str:
        return f"({self.t1:g}:{self.t2:g}:{self.t3:g})" + (
            f"+d{self.t4:g}" if self.t4 else ""
        )

    def to_workload_mix(
        self,
        scale_factor: int = 1,
        distribution: str = "uniform",
        latest_k: int = 10,
        mvcc: bool = False,
    ) -> WorkloadMix:
        """Map this mix onto the analytical model's workload abstraction."""
        working_set = nominal_bytes(scale_factor)
        if distribution == "uniform":
            hot_fraction, hot_bytes = 0.0, 0.0
        else:
            probe = make_distribution(
                distribution, BASE_ROWS * scale_factor, random.Random(0), latest_k
            )
            hot_fraction = probe.hot_fraction
            rows = BASE_ROWS * scale_factor
            hot_bytes = max(1.0, probe.hot_keys / rows * working_set)
        classes = tuple(
            (TXN_CLASSES[task], weight) for task, weight in self.weights
        )
        return WorkloadMix(
            name=f"sales{self.label}/{distribution}/SF{scale_factor}",
            classes=classes,
            working_set_bytes=working_set,
            hot_fraction=hot_fraction,
            hot_set_bytes=hot_bytes,
            mvcc=mvcc,
        )


#: the paper's three throughput patterns, (t1:t2:t3)
READ_ONLY = TransactionMix(t3=100)
READ_WRITE = TransactionMix(t1=15, t2=5, t3=80)
WRITE_ONLY = TransactionMix(t1=100)
THROUGHPUT_PATTERNS: Dict[str, TransactionMix] = {
    "RO": READ_ONLY,
    "RW": READ_WRITE,
    "WO": WRITE_ONLY,
}


def iud_mix(insert: float, update: float, delete: float) -> TransactionMix:
    """Lag-time mixes: insert -> T1, update -> T2, delete -> T4."""
    return TransactionMix(t1=insert, t2=update, t4=delete)


#: Section III-F lag-time patterns
LAG_PATTERNS: Dict[str, TransactionMix] = {
    "mixed": iud_mix(60, 30, 10),
    "insert": iud_mix(100, 0, 0),
    "update": iud_mix(0, 100, 0),
    "delete": iud_mix(0, 0, 100),
}


#: tries of one drawn transaction while retryable aborts (lock or write
#: conflict) replay it
RETRY_ATTEMPTS = 3


class MixWorkload:
    """The one driver of a weighted transaction mix: draws each task from
    ``rng`` by its ``(task, weight)`` pairs, runs its body from ``bodies``
    through :func:`~repro.core.resilience.retry_transaction` (non-retryable
    engine errors propagate) and counts ``executed[task]`` per committed
    body and ``aborted`` per retryable abort."""

    def __init__(self, rng: random.Random, bodies: Dict[str, Callable[[], object]],
                 weights: Iterable[Tuple[str, float]]):
        self._rng = rng
        self.bodies = bodies
        self._tasks, self._weights = zip(*weights)
        self.executed: Dict[str, int] = dict.fromkeys(bodies, 0)
        self.aborted = 0

    def next_task(self) -> str:
        return self._rng.choices(self._tasks, weights=self._weights, k=1)[0]

    def run_one(self, task: Optional[str] = None) -> str:
        """Execute one transaction (a drawn task unless given); returns it."""
        chosen = task or self.next_task()
        outcome = retry_transaction(self.bodies[chosen], attempts=RETRY_ATTEMPTS)
        self.aborted += outcome.aborts
        if outcome.committed:
            self.executed[chosen] += 1
        return chosen

    def run_many(self, count: int) -> Dict[str, int]:
        for _ in range(count):
            self.run_one()
        return dict(self.executed)


class SalesWorkload(MixWorkload):
    """Functional executor of T1-T4 against a real engine database.

    All statement traffic goes through an in-process
    :class:`~repro.core.client.EngineClient` over ``db``, behind the
    transport-agnostic :class:`~repro.core.client.Client` interface.
    """

    def __init__(self, db: Database, mix: TransactionMix, seed: int = 42):
        super().__init__(
            random.Random(seed),
            {"T1": self.run_t1, "T2": self.run_t2, "T3": self.run_t3, "T4": self.run_t4},
            mix.weights,
        )
        self.db = db
        self.client: Client = EngineClient(db)
        self.client.connect()
        self.stmts = SqlStmts()
        self._order_keys = UniformDistribution(max(1, db.table("ORDERS").row_count), self._rng)
        self._orderline_high = db.table("ORDERLINE").row_count
        self._clock = 1_700_000_000.0

    def _now(self) -> float:
        self._clock += 0.001
        return self._clock

    def run_t1(self) -> Optional[int]:
        """Insert a new orderline; returns nothing observable (autocommit)."""
        (statement,) = self.stmts.statements("T1")
        o_id = self._order_keys.next_key()
        self.client.execute(
            statement,
            [o_id, self._rng.randint(1, 100_000), self._rng.randint(1, 10),
             round(self._rng.uniform(1, 100), 2)],
        )
        self._orderline_high += 1
        return self._orderline_high

    def run_t2(self) -> Optional[Tuple[int, float]]:
        """Order payment; returns ``(o_id, stamp)`` or ``None`` if the
        target order vanished.  The stamp is the unique timestamp written
        to ``O_UPDATEDDATE`` -- the lag prober matches on it.
        """
        select, update_order, update_customer = self.stmts.statements("T2")
        o_id = self._order_keys.next_key()
        client = self.client
        client.begin()
        try:
            rows = client.execute(select, [o_id]).rows
            if not rows:
                client.commit()
                return None
            _o_id, c_id, _total, _updated = rows[0]
            now = self._now()
            client.execute(update_order, [now, o_id])
            client.execute(
                update_customer,
                [round(self._rng.uniform(1, 50), 2), now, c_id],
            )
            client.commit()
        except BaseException:
            quiet_rollback(client)
            raise
        return o_id, now

    def run_t3(self, db: Optional[Database] = None) -> Optional[Tuple]:
        """Point-read an order through this workload's client, or
        straight from ``db`` (a replica a reader was routed to)."""
        (statement,) = self.stmts.statements("T3")
        o_id = self._order_keys.next_key()
        return (self.client if db is None else db).query(statement, [o_id]).first()

    def run_t4(self) -> Optional[int]:
        """Delete an orderline; returns its ``OL_ID``, or ``None`` when
        it was already gone."""
        (statement,) = self.stmts.statements("T4")
        ol_id = self._rng.randint(1, max(1, self._orderline_high))
        return ol_id if self.client.execute(statement, [ol_id]).rowcount else None
