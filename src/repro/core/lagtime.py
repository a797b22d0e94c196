"""Replication lag-time evaluator (paper Sections II-B2 and III-F).

The only evaluator that is *functional end to end*: real transactions
run against a real primary engine database; the committed WAL batches
travel through the simulated replication pipeline of the architecture;
a prober polls the real replica with real queries until the change is
visible.  Lag is the virtual time from commit to visibility.

Three patterns per the paper -- insert lag (T1), update lag (T2) and
delete lag (T4) -- plus arbitrary IUD mixes.  The C-Score is

    C = (avg_insert + avg_update + avg_delete) / n_replicas        (6)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import estimate_throughput
from repro.cloud.replication import ReplicationPipeline
from repro.core.datagen import load_sales_database
from repro.core.workload import SalesWorkload, TransactionMix
from repro.sim.events import Environment

#: probe polling cadence (virtual seconds)
PROBE_INTERVAL_S = 0.0002


@dataclass
class LagSample:
    kind: str          # insert | update | delete
    commit_s: float
    visible_s: float

    @property
    def lag_s(self) -> float:
        return self.visible_s - self.commit_s


@dataclass
class LagResult:
    """Lag statistics of one IUD mix on one architecture."""

    arch_name: str
    n_replicas: int
    samples: List[LagSample] = field(default_factory=list)

    def _avg(self, kind: str) -> float:
        lags = [sample.lag_s for sample in self.samples if sample.kind == kind]
        return sum(lags) / len(lags) if lags else 0.0

    @property
    def insert_lag_s(self) -> float:
        return self._avg("insert")

    @property
    def update_lag_s(self) -> float:
        return self._avg("update")

    @property
    def delete_lag_s(self) -> float:
        return self._avg("delete")

    @property
    def avg_lag_s(self) -> float:
        if not self.samples:
            return 0.0
        return sum(sample.lag_s for sample in self.samples) / len(self.samples)

    @property
    def c_score_s(self) -> float:
        """(insert + update + delete averages) / replicas, Equation (6)."""
        present = [
            self._avg(kind)
            for kind in ("insert", "update", "delete")
            if any(sample.kind == kind for sample in self.samples)
        ]
        if not present:
            return 0.0
        return sum(present) / self.n_replicas


_KIND_BY_TASK = {"T1": "insert", "T2": "update", "T4": "delete"}


class LagTimeEvaluator:
    """Engine-backed DES measurement of replication lag."""

    def __init__(
        self,
        arch: Architecture,
        scale_factor: int = 1,
        row_scale: float = 0.002,
        concurrency: int = 8,
        n_replicas: int = 1,
        transactions: int = 240,
        seed: int = 42,
        isolation=None,
    ):
        self.arch = arch
        self.scale_factor = scale_factor
        self.row_scale = row_scale
        self.concurrency = concurrency
        self.n_replicas = n_replicas
        self.transactions = transactions
        self.seed = seed
        #: engine isolation the writer transactions run under (None =
        #: engine default); MVCC levels also discount the model's
        #: contention center when pacing workers
        self.isolation = isolation

    def run(self, mix: TransactionMix) -> LagResult:
        env = Environment()
        primary, _data = load_sales_database(
            "primary",
            scale_factor=self.scale_factor,
            row_scale=self.row_scale,
            seed=self.seed,
        )
        if self.isolation is not None:
            primary.default_isolation = self.isolation
        pipeline = ReplicationPipeline(env, self.arch, primary, self.n_replicas)
        workload = SalesWorkload(primary, mix, seed=self.seed)
        result = LagResult(arch_name=self.arch.name, n_replicas=self.n_replicas)

        # Pace workers at the modelled per-transaction latency so the
        # write rate matches what this architecture would sustain.
        from repro.engine.txn import MVCC_LEVELS

        model_mix = mix.to_workload_mix(
            self.scale_factor, mvcc=self.isolation in MVCC_LEVELS,
        )
        estimate = estimate_throughput(self.arch, model_mix, self.concurrency)
        cycle_s = max(1e-4, estimate.latency_s)
        per_worker = max(1, self.transactions // self.concurrency)

        def prober(kind: str, commit_s: float, predicate) -> object:
            def _probe():
                # Adaptive back-off keeps long lags (sequential replayers)
                # from costing millions of poll events.
                for replica_index in range(self.n_replicas):
                    interval = PROBE_INTERVAL_S
                    while not predicate(pipeline.replicas[replica_index]):
                        yield env.timeout(interval)
                        interval = min(0.02, interval * 1.5)
                result.samples.append(
                    LagSample(kind=kind, commit_s=commit_s, visible_s=env.now)
                )
                return None
            return env.process(_probe())

        def worker(worker_id: int):
            yield env.timeout(cycle_s * worker_id / self.concurrency)
            for _ in range(per_worker):
                yield env.timeout(cycle_s)
                task = workload.next_task()
                commit_s = None
                if task == "T1":
                    ol_id = workload.run_t1()
                    commit_s = env.now
                    prober(
                        "insert",
                        commit_s,
                        lambda replica, key=ol_id: bool(
                            replica.query(
                                "SELECT OL_ID FROM orderline WHERE OL_ID = ?", [key]
                            ).rows
                        ),
                    )
                elif task == "T2":
                    outcome = workload.run_t2()
                    if outcome is None:
                        continue
                    o_id, stamp = outcome
                    commit_s = env.now
                    prober(
                        "update",
                        commit_s,
                        lambda replica, key=o_id, value=stamp: any(
                            row[0] == value
                            for row in replica.query(
                                "SELECT O_UPDATEDDATE FROM orders WHERE O_ID = ?",
                                [key],
                            ).rows
                        ),
                    )
                elif task == "T4":
                    ol_id = workload.run_t4()
                    if ol_id is None:
                        continue
                    commit_s = env.now
                    prober(
                        "delete",
                        commit_s,
                        lambda replica, key=ol_id: not replica.query(
                            "SELECT OL_ID FROM orderline WHERE OL_ID = ?", [key]
                        ).rows,
                    )
                else:  # T3 never appears in IUD mixes
                    workload.run_one(task)

        for worker_id in range(self.concurrency):
            env.process(worker(worker_id))
        env.run(until=600.0)
        return result

    def run_patterns(
        self, patterns: Dict[str, TransactionMix]
    ) -> Dict[str, LagResult]:
        return {
            name: self.run(mix) for name, mix in patterns.items()
        }
