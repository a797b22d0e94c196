"""Workload manager: spawns workers and drives functional OLTP runs.

This is the testbed's *functional* execution path: real transactions
against the real engine, used by the examples and the tests (the
``oltp`` evaluator drives its clients through
:class:`~repro.chaos.availability.AvailabilityEvaluator` instead).
Workers are cooperative (one OS thread): each worker is a
round-robin slot executing its next transaction, which measures engine
throughput honestly without GIL games.

The *modelled* path (the paper's cloud-scale numbers) goes through
:class:`repro.core.runner.CloudyBench` instead.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.core.workload import SalesWorkload, TransactionMix
from repro.engine.database import Database
from repro.obs.metrics import Histogram
from repro.sim.rng import derive_seed


@dataclass
class OltpResult:
    """Outcome of one functional OLTP run."""

    transactions: int
    elapsed_s: float
    counts: Dict[str, int] = field(default_factory=dict)
    aborted: int = 0
    #: per-transaction latencies in seconds (``record_latencies`` runs)
    histogram: Histogram = field(
        default_factory=lambda: Histogram("oltp.latency_s")
    )

    @property
    def tps(self) -> float:
        return self.transactions / self.elapsed_s if self.elapsed_s > 0 else 0.0

    def latency_percentile(self, percentile: float) -> float:
        return self.histogram.percentile(percentile)


class WorkloadManager:
    """Spawns ``concurrency`` workers over one database."""

    def __init__(
        self,
        db: Database,
        mix: TransactionMix,
        concurrency: int = 4,
        record_latencies: bool = False,
    ):
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.db = db
        self.concurrency = concurrency
        self.record_latencies = record_latencies
        # One workload state per worker: separate RNG streams keep the
        # run deterministic regardless of interleaving.  Worker seeds
        # are derived by name -- ``seed + worker_id`` made worker i of a
        # run seeded S draw the exact stream of worker 0 seeded S+i.
        self.workers = [
            SalesWorkload(db, mix, seed=derive_seed(42, f"worker.{worker_id}"))
            for worker_id in range(concurrency)
        ]

    def run_transactions(self, total: int) -> OltpResult:
        """Execute ``total`` transactions round-robin across workers."""
        if total < 1:
            raise ValueError("total must be >= 1")
        histogram = Histogram("oltp.latency_s")
        started = time.perf_counter()
        for index in range(total):
            worker = self.workers[index % self.concurrency]
            if self.record_latencies:
                txn_start = time.perf_counter()
                worker.run_one()
                histogram.observe(time.perf_counter() - txn_start)
            else:
                worker.run_one()
        elapsed = time.perf_counter() - started
        counts: Dict[str, int] = {}
        aborted = 0
        for worker in self.workers:
            aborted += worker.aborted
            for task, count in worker.executed.items():
                counts[task] = counts.get(task, 0) + count
        return OltpResult(
            transactions=total,
            elapsed_s=elapsed,
            counts=counts,
            aborted=aborted,
            histogram=histogram,
        )
