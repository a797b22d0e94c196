"""OLTP evaluator (the throughput box of paper Figure 1).

Two complementary measurements:

* :meth:`OltpEvaluator.run_functional` -- real transactions against the
  real engine, sweeping concurrency, reporting wall-clock TPS, latency
  percentiles, the per-task mix and abort counts.  This is what CI and
  the examples run; it validates the *benchmark machinery*.
* :meth:`OltpEvaluator.run_modelled` -- the same sweep through the
  cloud architecture model, reporting the paper-scale TPS of Figure 5.

Both paths consume the same :class:`~repro.core.workload.TransactionMix`
and access-distribution settings, so a workload definition is written
once and measured twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import estimate_throughput
from repro.core.datagen import load_sales_database
from repro.core.manager import OltpResult, WorkloadManager
from repro.core.workload import TransactionMix
from repro.engine.txn import MVCC_LEVELS, IsolationLevel
from repro.sim.rng import derive_seed


@dataclass
class FunctionalPoint:
    """One functional measurement at a given concurrency."""

    concurrency: int
    result: OltpResult

    @property
    def tps(self) -> float:
        return self.result.tps


@dataclass
class ModelledPoint:
    """One modelled measurement at a given concurrency."""

    concurrency: int
    tps: float
    latency_s: float
    bottleneck: str


@dataclass
class OltpReport:
    """Outcome of one evaluator run."""

    mix_label: str
    distribution: str
    functional: List[FunctionalPoint] = field(default_factory=list)
    modelled: List[ModelledPoint] = field(default_factory=list)


class OltpEvaluator:
    """Sweeps a transaction mix across concurrency levels."""

    def __init__(
        self,
        mix: TransactionMix,
        scale_factor: int = 1,
        distribution: str = "uniform",
        latest_k: int = 10,
        row_scale: float = 0.002,
        seed: int = 42,
        isolation: Optional[IsolationLevel] = None,
    ):
        self.mix = mix
        self.scale_factor = scale_factor
        self.distribution = distribution
        self.latest_k = latest_k
        self.row_scale = row_scale
        self.seed = seed
        #: engine isolation for the functional runs (None = engine default);
        #: MVCC levels also flip the analytic model's contention discount
        self.isolation = isolation

    def _uses_mvcc(self) -> bool:
        return self.isolation in MVCC_LEVELS

    def run_functional(
        self,
        concurrencies: Optional[List[int]] = None,
        transactions_per_level: int = 2000,
    ) -> OltpReport:
        """Real engine, real SQL; one fresh database per concurrency."""
        report = OltpReport(self.mix.label, self.distribution)
        # Sub-seeds, not the master seed: seeding the data generator and
        # the workload workers with the same value made their access
        # streams correlated (the datagen RNG was identical to worker
        # 0's).  Named derivation keeps each stream independent while
        # the whole run stays a pure function of ``self.seed``.
        datagen_seed = derive_seed(self.seed, "oltp.datagen")
        workload_seed = derive_seed(self.seed, "oltp.workload")
        for concurrency in concurrencies or [1, 4, 16]:
            db, _data = load_sales_database(
                scale_factor=self.scale_factor,
                row_scale=self.row_scale,
                seed=datagen_seed,
            )
            if self.isolation is not None:
                db.default_isolation = self.isolation
            manager = WorkloadManager(
                db,
                self.mix,
                concurrency=concurrency,
                distribution=self.distribution,
                latest_k=self.latest_k,
                seed=workload_seed,
                record_latencies=True,
            )
            result = manager.run_transactions(transactions_per_level)
            report.functional.append(FunctionalPoint(concurrency, result))
        return report

    def run_modelled(
        self,
        arch: Architecture,
        concurrencies: Optional[List[int]] = None,
    ) -> OltpReport:
        """The cloud model's view of the same mix on one architecture."""
        workload = self.mix.to_workload_mix(
            self.scale_factor,
            distribution=self.distribution,
            latest_k=self.latest_k,
            mvcc=self._uses_mvcc(),
        )
        report = OltpReport(self.mix.label, self.distribution)
        for concurrency in concurrencies or [50, 100, 150, 200]:
            estimate = estimate_throughput(arch, workload, concurrency)
            report.modelled.append(
                ModelledPoint(
                    concurrency=concurrency,
                    tps=estimate.tps,
                    latency_s=estimate.latency_s,
                    bottleneck=estimate.bottleneck,
                )
            )
        return report
