"""The CloudyBench testbed orchestrator (paper Figure 1).

``CloudyBench`` wires data generation, the workload manager, and the
five evaluators together, and computes the PERFECT metrics.  Every
benchmark in ``benchmarks/`` is a thin wrapper over one method here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.availability import AScore, AvailabilityEvaluator
from repro.chaos.plan import FaultPlan
from repro.cloud.architectures import Architecture, get as get_architecture
from repro.cloud.mva_model import estimate_throughput
from repro.cloud.replication import ReplicationPipeline
from repro.cloud.workload_model import WorkloadMix
from repro.core.config import BenchConfig
from repro.core.evalapi import EvalOutcome, get_evaluator
from repro.core.elasticity import (
    ELASTIC_PATTERNS,
    ElasticityEvaluator,
    ElasticityResult,
    custom_pattern,
)
from repro.core.failover import FailOverEvaluator, FailoverScores
from repro.core.lagtime import LagResult, LagTimeEvaluator
from repro.core.metrics import PerfectScores, e2_score, p_score_actual
from repro.core.multitenancy import MultiTenancyEvaluator, TenancyResult
from repro.core.pricing import (
    actual_cost,
    package_cost_breakdown_per_minute,
    package_cost_per_minute,
)
from repro.core.workload import LAG_PATTERNS, THROUGHPUT_PATTERNS, TransactionMix
from repro.obs import Observer
from repro.qos.overload import OverloadEvaluator, OverloadResult

#: key of one throughput measurement: (arch, scale factor, mode, concurrency)
ThroughputKey = Tuple[str, int, str, int]


@dataclass
class PScoreRow:
    """One row of Table V."""

    arch_name: str
    cost_breakdown: Dict[str, float]
    total_cost_per_minute: float
    tps_by_mode: Dict[str, float]
    p_by_mode: Dict[str, float]

    @property
    def p_avg(self) -> float:
        values = list(self.p_by_mode.values())
        return sum(values) / len(values) if values else 0.0


class CloudyBench:
    """End-to-end testbed over the configured architectures."""

    def __init__(
        self,
        config: Optional[BenchConfig] = None,
        observer: Optional[Observer] = None,
    ):
        self.config = config or BenchConfig()
        #: one observer spans the whole bench run: engine, DES and client
        #: events land in a single timeline/metrics registry, and
        #: :meth:`snapshot` / the CLI exporters read it back out.
        self.observer = observer if observer is not None else Observer()
        self.architectures: List[Architecture] = [
            get_architecture(name) for name in self.config.architectures
        ]
        self._throughput: Optional[Dict[ThroughputKey, float]] = None
        self._elasticity: Optional[Dict[str, Dict[str, Dict[str, ElasticityResult]]]] = None
        self._tenancy: Optional[Dict[str, Dict[str, TenancyResult]]] = None
        self._failover: Optional[Dict[str, FailoverScores]] = None
        self._lag: Optional[Dict[str, Dict[str, LagResult]]] = None
        self._chaos: Optional[Dict[str, AScore]] = None
        self._oltp: Optional[Dict[str, AScore]] = None
        self._oltp_arrival: str = "closed"
        #: overload sweeps, cached per (qos flag, arrival spec)
        self._overload: Dict[Tuple, Dict[str, OverloadResult]] = {}
        #: HA availability runs, cached per "ack_mode/arrival"
        self._ha: Dict[str, "HAResult"] = {}
        #: DR (backup/restore) runs, cached per archive mode
        self._dr: Dict[str, "DRResult"] = {}
        #: real scale-out runs, cached per (counts, cross, txns, driver)
        self._scaleout: Dict[Tuple, Dict[int, object]] = {}
        #: serve sweeps, cached per (counts, txns, qos, workers, ...)
        self._serve: Dict[Tuple, Dict[int, object]] = {}
        #: perf trajectory runs, cached per (workloads, arrival, txns)
        self._perf: Dict[Tuple, Dict[str, object]] = {}

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time observability snapshot (metrics + trace stats)."""
        return self.observer.snapshot()

    # -- the unified evaluator entry point ---------------------------------------

    def run(self, eval_name: str, **opts) -> EvalOutcome:
        """Run one registered evaluator and return its :class:`EvalOutcome`.

        ``eval_name`` is any name from the evaluator registry
        (:func:`repro.core.evalapi.evaluator_names`); ``opts`` are
        validated against the evaluator's declared option schema.
        Results are cached per underlying computation, so repeated runs
        return identical payloads.
        """
        spec = get_evaluator(eval_name)
        return spec.runner(self, **spec.validate(opts))

    # -- workload plumbing -------------------------------------------------------

    def mix_for(self, mode: str) -> TransactionMix:
        try:
            return THROUGHPUT_PATTERNS[mode]
        except KeyError:
            raise KeyError(f"unknown mode {mode!r}; use RO/RW/WO") from None

    def workload_mix(self, mode: str, scale_factor: int) -> WorkloadMix:
        return self.mix_for(mode).to_workload_mix(
            scale_factor,
            distribution=self.config.distribution,
            latest_k=self.config.latest_k,
            mvcc=self.config.uses_mvcc,
        )

    # -- throughput (Figure 5) -----------------------------------------------------

    def _compute_throughput(self) -> Dict[ThroughputKey, float]:
        if self._throughput is not None:
            return self._throughput
        results: Dict[ThroughputKey, float] = {}
        for arch in self.architectures:
            for sf in self.config.scale_factors:
                for mode in self.config.modes:
                    workload = self.workload_mix(mode, sf)
                    for con in self.config.concurrencies:
                        estimate = estimate_throughput(arch, workload, con)
                        results[(arch.name, sf, mode, con)] = estimate.tps
        self._throughput = results
        return results

    def average_tps(self, arch_name: str, mode: str) -> float:
        """Average TPS of one mode over all SFs and concurrencies."""
        data = self._compute_throughput()
        values = [
            tps for (name, _sf, m, _con), tps in data.items()
            if name == arch_name and m == mode
        ]
        return sum(values) / len(values) if values else 0.0

    # -- P-Score (Table V) ------------------------------------------------------------

    def _compute_pscore(self, n_ro_nodes: int = 1) -> List[PScoreRow]:
        """Table V rows.

        The paper deploys one RW plus one RO node per SUT, so the total
        cost charges compute (CPU + memory) once per node while storage,
        IOPS and network are shared -- that is how Table V's total of
        $0.0437/min for RDS reconciles with its per-resource breakdown.
        """
        rows = []
        for arch in self.architectures:
            package = arch.provisioned
            breakdown = package_cost_breakdown_per_minute(package)
            total = package_cost_per_minute(package) + n_ro_nodes * (
                breakdown["cpu"] + breakdown["memory"]
            )
            tps_by_mode = {
                mode: self.average_tps(arch.name, mode) for mode in self.config.modes
            }
            p_by_mode = {
                mode: tps / total if total > 0 else 0.0
                for mode, tps in tps_by_mode.items()
            }
            rows.append(
                PScoreRow(
                    arch_name=arch.name,
                    cost_breakdown=breakdown,
                    total_cost_per_minute=total,
                    tps_by_mode=tps_by_mode,
                    p_by_mode=p_by_mode,
                )
            )
        return rows

    # -- saturation probe (the tau of Sections II-C/II-D) ------------------------------

    def saturation_concurrency(self, arch: Architecture, mode: str = "RW") -> int:
        workload = self.workload_mix(mode, min(self.config.scale_factors))
        evaluator = ElasticityEvaluator(arch, workload)
        return evaluator.saturation_concurrency()

    def elastic_tau(self, mode: str = "RW") -> int:
        """The paper's tau: maximum saturation concurrency across SUTs.

        Computed per workload mode -- read-only mixes saturate far later
        than write-heavy ones.
        """
        if self.config.elastic_tau is not None:
            return self.config.elastic_tau
        return max(
            self.saturation_concurrency(arch, mode) for arch in self.architectures
        )

    # -- elasticity (Figure 6, Table VI) --------------------------------------------------

    def _compute_elasticity(
        self,
    ) -> Dict[str, Dict[str, Dict[str, ElasticityResult]]]:
        if self._elasticity is not None:
            return self._elasticity
        sf = min(self.config.scale_factors)
        taus = {mode: self.elastic_tau(mode) for mode in self.config.elastic_modes}
        patterns = dict(ELASTIC_PATTERNS)
        for key, proportions in self.config.custom_patterns.items():
            patterns[key] = custom_pattern(key, proportions)
        results: Dict[str, Dict[str, Dict[str, ElasticityResult]]] = {}
        for arch in self.architectures:
            results[arch.name] = {}
            for pattern_key, pattern in patterns.items():
                results[arch.name][pattern_key] = {}
                for mode in self.config.elastic_modes:
                    workload = self.workload_mix(mode, sf)
                    evaluator = ElasticityEvaluator(
                        arch,
                        workload,
                        slot_seconds=self.config.slot_seconds,
                        measure_window_s=self.config.measure_window_s,
                    )
                    results[arch.name][pattern_key][mode] = evaluator.run(
                        pattern, taus[mode]
                    )
        self._elasticity = results
        return results

    # -- multi-tenancy (Table VII) ----------------------------------------------------------

    def tenancy_taus(self) -> Tuple[int, int]:
        """(tau_high, tau_low) for the contention patterns.

        The deployment spans ``tenants`` instances, so the high-contention
        tau is the per-instance saturation times the tenant count (the
        paper's tau=330 for three tenants at tau~110), while the low
        patterns use the weakest SUT's single-instance saturation.
        """
        high = self.config.tenancy_tau_high
        low = self.config.tenancy_tau_low
        if high is None or low is None:
            saturations = [
                self.saturation_concurrency(arch, "RW") for arch in self.architectures
            ]
            high = high or max(saturations) * self.config.tenants
            low = low or min(saturations)
        return high, low

    def _compute_multitenancy(self) -> Dict[str, Dict[str, TenancyResult]]:
        if self._tenancy is not None:
            return self._tenancy
        tau_high, tau_low = self.tenancy_taus()
        sf = min(self.config.scale_factors)
        results: Dict[str, Dict[str, TenancyResult]] = {}
        for arch in self.architectures:
            workload = self.workload_mix("RW", sf)
            evaluator = MultiTenancyEvaluator(
                arch,
                workload,
                n_tenants=self.config.tenants,
                n_slots=self.config.tenant_slots,
                slot_seconds=self.config.slot_seconds,
            )
            results[arch.name] = evaluator.run_all(tau_high, tau_low)
        self._tenancy = results
        return results

    # -- fail-over (Table VIII, Figure 7) ------------------------------------------------------

    def _compute_failover(self) -> Dict[str, FailoverScores]:
        if self._failover is not None:
            return self._failover
        sf = min(self.config.scale_factors)
        results = {}
        for arch in self.architectures:
            workload = self.workload_mix("RW", sf)
            evaluator = FailOverEvaluator(
                arch,
                workload,
                concurrency=self.config.failover_concurrency,
                recovery_threshold=self.config.recovery_threshold,
            )
            results[arch.name] = evaluator.run()
        self._failover = results
        return results

    # -- chaos / availability -----------------------------------------------------------------

    def chaos_plan(self) -> FaultPlan:
        """The seeded fault plan every SUT is scored against.

        One plan for all architectures: A-Scores are only comparable
        when every SUT survives the *same* fault schedule, and the
        config seed pins that schedule exactly.
        """
        targets = ["primary"] + [
            ReplicationPipeline.replica_target(index)
            for index in range(self.config.chaos_replicas)
        ]
        return FaultPlan.generate(
            seed=self.config.seed,
            duration_s=self.config.chaos_duration_s,
            targets=targets,
            n_faults=self.config.chaos_faults,
            name="bench",
        )

    def _compute_chaos(self) -> Dict[str, AScore]:
        if self._chaos is not None:
            return self._chaos
        plan = self.chaos_plan()
        results: Dict[str, AScore] = {}
        for arch in self.architectures:
            evaluator = AvailabilityEvaluator(
                arch,
                plan,
                slo=self.config.chaos_slo,
                n_clients=self.config.chaos_clients,
                n_replicas=self.config.chaos_replicas,
                row_scale=self.config.row_scale,
                observer=self.observer,
            )
            results[arch.name] = evaluator.run()
        self._chaos = results
        return results

    # -- instrumented OLTP run (observability timeline) -------------------------

    def _compute_oltp(self, arrival: Optional[str] = None) -> Dict[str, AScore]:
        """A fault-free end-to-end run that exercises every layer.

        Reuses the availability machinery with an *empty* fault plan, so
        real transactions hit the engine, WAL records ship through the
        replication DES, and every request crosses the client resilience
        stack -- one run produces engine, replication and client spans on
        the shared observer.  Only the first configured architecture runs:
        the point is one clean timeline, not a cross-SUT comparison.
        """
        spec = "closed" if arrival is None else arrival
        if self._oltp is not None and self._oltp_arrival == spec:
            return self._oltp
        plan = FaultPlan((), seed=self.config.seed, name="healthy")
        arch = self.architectures[0]
        evaluator = AvailabilityEvaluator(
            arch,
            plan,
            slo=self.config.chaos_slo,
            n_clients=self.config.chaos_clients,
            n_replicas=self.config.chaos_replicas,
            duration_s=self.config.chaos_duration_s,
            row_scale=self.config.row_scale,
            observer=self.observer,
            arrival=spec,
        )
        self._oltp = {arch.name: evaluator.run()}
        self._oltp_arrival = spec
        return self._oltp

    # -- replication lag (Section III-F) ----------------------------------------------------------

    def _compute_lagtime(self) -> Dict[str, Dict[str, LagResult]]:
        if self._lag is not None:
            return self._lag
        results: Dict[str, Dict[str, LagResult]] = {}
        for arch in self.architectures:
            evaluator = LagTimeEvaluator(
                arch,
                scale_factor=min(self.config.scale_factors),
                row_scale=self.config.row_scale,
                concurrency=self.config.lag_concurrency,
                n_replicas=self.config.lag_replicas,
                transactions=self.config.lag_transactions,
                seed=self.config.seed,
                isolation=self.config.isolation_level(),
            )
            results[arch.name] = evaluator.run_patterns(LAG_PATTERNS)
        self._lag = results
        return results

    # -- overload / graceful degradation (qos) -----------------------------------

    def _compute_overload(
        self,
        qos: Optional[bool] = None,
        arrival: Optional[str] = None,
    ) -> Dict[str, OverloadResult]:
        """Goodput-vs-offered-load sweep past saturation, per SUT.

        ``qos=None`` follows the config's ``qos_enabled`` knob.  Each
        (qos, arrival) pair caches independently so a comparison run
        (the knee bench) pays for each sweep once.
        """
        if qos is None:
            qos = self.config.qos_enabled
        spec = "poisson" if arrival is None else arrival
        key = (qos, spec)
        cached = self._overload.get(key)
        if cached is not None:
            return cached
        results: Dict[str, OverloadResult] = {}
        for arch in self.architectures:
            evaluator = OverloadEvaluator(
                arch,
                qos=qos,
                capacity_rps=self.config.overload_capacity_rps,
                deadline_s=self.config.overload_deadline_s,
                duration_s=self.config.overload_duration_s,
                seed=self.config.seed,
                observer=self.observer,
                arrival=spec,
            )
            results[arch.name] = evaluator.run(list(self.config.overload_multiples))
        self._overload[key] = results
        return results

    # -- shard HA / replication (the R-Score) --------------------------------------

    def _compute_ha(
        self,
        ack_mode: Optional[str] = None,
        arrival: Optional[str] = None,
    ) -> "HAResult":
        """One HA fleet run through a mid-run primary kill, per ack mode.

        This is testbed-level, not per-SUT: it exercises the engine's
        own replication/failover stack (:mod:`repro.ha`), so a single
        run covers every architecture row.  Cached per (ack mode,
        arrival process).
        """
        from repro.ha.evaluator import HAEvaluator
        from repro.ha.lease import LeaseConfig

        mode = ack_mode or self.config.ha_ack_mode
        spec = "closed" if arrival is None else arrival
        key = f"{mode}/{spec}"
        cached = self._ha.get(key)
        if cached is not None:
            return cached
        evaluator = HAEvaluator(
            n_shards=self.config.ha_shards,
            txns=self.config.ha_txns,
            n_pairs=self.config.ha_pairs,
            ack_mode=mode,
            lease=LeaseConfig(
                lease_s=self.config.ha_lease_s,
                heartbeat_s=self.config.ha_heartbeat_s,
            ),
            seed=self.config.seed,
            observer=self.observer,
            arrival=spec,
        )
        result = evaluator.run()
        self._ha[key] = result
        return result

    # -- disaster recovery (the DR-Score) ------------------------------------------

    def _compute_dr(self, archive_mode: Optional[str] = None) -> "DRResult":
        """One backup-under-load, disaster, PITR-restore run.

        Testbed-level like the HA run: it exercises the engine's own
        archive/backup/restore stack (:mod:`repro.dr`), so a single run
        covers every architecture row.  Cached per archive mode.
        """
        from repro.dr.evaluator import DREvaluator

        mode = archive_mode or self.config.dr_archive_mode
        cached = self._dr.get(mode)
        if cached is not None:
            return cached
        evaluator = DREvaluator(
            n_shards=self.config.dr_shards,
            txns=self.config.dr_txns,
            n_pairs=self.config.dr_pairs,
            archive_mode=mode,
            seed=self.config.seed,
            observer=self.observer,
        )
        result = evaluator.run()
        self._dr[mode] = result
        return result

    # -- real scale-out (sharded fleet) -------------------------------------------

    def _compute_scaleout_real(
        self,
        shard_counts: Optional[List[int]] = None,
        cross_ratio: Optional[float] = None,
        transactions: Optional[int] = None,
        driver: Optional[str] = None,
        arrival: Optional[str] = None,
        transport: Optional[str] = None,
    ) -> Dict[int, object]:
        """Measured fleet throughput per shard count.

        Unlike the rest of the runner this is not a model: it loads one
        real sharded fleet per point and drives the payment workload
        through it (:mod:`repro.shard.driver`).  Returns ``{n_shards:
        ShardRunResult}``.  ``transport="socket"`` reruns the inline
        driver's workload through the serving tier's loopback socket.
        """
        from repro.shard.driver import run_scaleout

        counts = list(shard_counts or self.config.shard_counts)
        txns = self.config.shard_txns if transactions is None else transactions
        driver = driver or self.config.shard_driver
        wire = "inline" if transport is None else transport
        if cross_ratio is None:
            # the mp driver has no cross-process coordinator, so its
            # only valid ratio is 0; don't let the config default for
            # the inline driver reject an explicit ``driver=mp``
            cross = 0.0 if driver == "mp" else self.config.shard_cross_ratio
        else:
            cross = cross_ratio
        spec = "closed" if arrival is None else arrival
        key = (tuple(counts), cross, txns, driver, spec, wire)
        cached = self._scaleout.get(key)
        if cached is not None:
            return cached
        results = run_scaleout(
            counts, txns, cross_ratio=cross, seed=self.config.seed,
            row_scale=self.config.row_scale, driver=driver,
            observer=self.observer, arrival=spec, transport=wire,
        )
        data = {result.n_shards: result for result in results}
        self._scaleout[key] = data
        return data

    # -- serving tier (SQL over sockets) ------------------------------------------

    def _compute_serve(
        self,
        connections: Optional[List[int]] = None,
        txns_per_conn: Optional[int] = None,
        qos: Optional[bool] = None,
        workers: Optional[int] = None,
        arrival: Optional[str] = None,
        persona: Optional[str] = None,
        rate_tps: Optional[float] = None,
        deadline_s: Optional[float] = None,
        max_queue: Optional[int] = None,
        fault_plan=None,
    ) -> Dict[int, object]:
        """One serve sweep, ``{connections: ServeRunResult}``.

        Boots the real serving tier (:mod:`repro.serve`) per connection
        count and drives it with the async load generator -- measured
        end-to-end over a loopback socket, like the scale-out runs.
        Testbed-level (one run covers every architecture row).  Cached
        per fully-resolved parameter tuple; runs with a fault plan
        bypass the cache (plans are not hashable and rarely repeated).
        """
        from repro.serve.driver import run_sweep

        counts = list(connections or self.config.serve_connections)
        txns = (
            self.config.serve_txns_per_conn
            if txns_per_conn is None else txns_per_conn
        )
        qos_on = self.config.serve_qos if qos is None else qos
        n_workers = self.config.serve_workers if workers is None else workers
        spec = arrival or self.config.serve_arrival
        who = persona or self.config.serve_persona
        deadline = (
            self.config.serve_deadline_s if deadline_s is None else deadline_s
        )
        queue = self.config.serve_max_queue if max_queue is None else max_queue
        key = (
            tuple(counts), txns, qos_on, n_workers, spec, who,
            rate_tps, deadline, queue,
        )
        if fault_plan is None:
            cached = self._serve.get(key)
            if cached is not None:
                return cached
        results = run_sweep(
            counts, txns, n_shards=self.config.serve_shards,
            workers=n_workers, qos=qos_on, persona=who, arrival=spec,
            rate_tps=rate_tps, deadline_s=deadline, seed=self.config.seed,
            row_scale=self.config.row_scale,
            max_connections=self.config.serve_max_connections,
            max_queue=queue, observer=self.observer, fault_plan=fault_plan,
        )
        data = {result.connections: result for result in results}
        if fault_plan is None:
            self._serve[key] = data
        return data

    # -- perf trajectory (two-stage measured harness) -----------------------------

    def _compute_perf(
        self,
        workloads: Optional[List[str]] = None,
        arrival: Optional[str] = None,
        txns: Optional[int] = None,
        profile: Optional[bool] = None,
    ) -> Dict[str, object]:
        """Measured perf runs, ``{workload: MeasuredRun}``.

        Testbed-level, like the shard/HA evaluators: it measures the
        engine's own hot paths (single-shard payment loop, cross-shard
        2PC) through the two-stage harness, so one run covers every
        architecture row.  Cached per (workloads, arrival, txns).
        """
        from repro.perf.harness import TwoStageHarness, perf_workload_names

        names = list(workloads or perf_workload_names())
        spec = arrival or self.config.perf_arrival
        count = self.config.perf_txns if txns is None else txns
        key = (tuple(names), spec, count)
        cached = self._perf.get(key)
        if cached is not None:
            return cached
        harness = TwoStageHarness(
            seed=self.config.seed,
            row_scale=self.config.row_scale,
            pilot_txns=self.config.perf_pilot_txns,
            target_s=self.config.perf_target_s,
            txns=count,
            arrival=spec,
            profile=self.config.perf_profile if profile is None else profile,
            shard_cross_ratio=self.config.shard_cross_ratio,
            observer=self.observer,
        )
        runs = {name: harness.run(name) for name in names}
        self._perf[key] = runs
        return runs

    # -- the unified metric (Table IX) -----------------------------------------

    def _compute_overall(self, duration_s: float = 300.0) -> Dict[str, PerfectScores]:
        """Compute all seven scores plus O-Score for every SUT."""
        pscore_rows = {row.arch_name: row for row in self._compute_pscore()}
        elasticity = self._compute_elasticity()
        tenancy = self._compute_multitenancy()
        failover = self._compute_failover()
        lag = self._compute_lagtime()
        sf = min(self.config.scale_factors)

        scores: Dict[str, PerfectScores] = {}
        for arch in self.architectures:
            name = arch.name
            row = pscore_rows[name]
            avg_tps = sum(row.tps_by_mode.values()) / max(1, len(row.tps_by_mode))

            # E1: average over patterns and modes of the elasticity runs
            e1_values = [
                result.e1_score
                for by_mode in elasticity[name].values()
                for result in by_mode.values()
            ]
            e1 = sum(e1_values) / len(e1_values) if e1_values else 0.0
            # E1*: recompute the denominator with the vendor's prices
            e1_star_values = []
            for by_mode in elasticity[name].values():
                for result in by_mode.values():
                    billed = actual_cost(
                        arch.pricing, arch.provisioned, duration_s
                    )
                    window_minutes = duration_s / 60.0
                    denom = billed * (result.elastic_cost / max(result.total_cost, 1e-9))
                    e1_star_values.append(
                        result.avg_tps / denom if denom > 0 else 0.0
                    )
            e1_star = (
                sum(e1_star_values) / len(e1_star_values) if e1_star_values else 0.0
            )

            t_values = [result.t_score for result in tenancy[name].values()]
            t = sum(t_values) / len(t_values) if t_values else 0.0
            t_star_values = []
            for result in tenancy[name].values():
                billed = actual_cost(arch.pricing, result.package, duration_s)
                per_minute = billed / (duration_s / 60.0)
                t_star_values.append(
                    result.t_score * result.cost_per_minute / per_minute
                    if per_minute > 0
                    else 0.0
                )
            t_star = sum(t_star_values) / len(t_star_values) if t_star_values else 0.0

            fo = failover[name]
            lag_mixed = lag[name].get("mixed") or next(iter(lag[name].values()))

            # graceful degradation rides along when a sweep already ran:
            # the D-Score annotates Table IX without forcing every
            # ``overall`` caller to pay for the overload evaluation
            extras = {}
            overload = self._overload.get((self.config.qos_enabled, "poisson"))
            if overload is None and self._overload:
                overload = next(iter(self._overload.values()))
            if overload and name in overload:
                extras["d"] = overload[name].dscore
            # ...and so does the HA R-Score; it is testbed-level, so the
            # same availability-under-failover number annotates every row.
            # Prefer the configured ack mode, but any computed mode counts.
            ha = self._ha.get(f"{self.config.ha_ack_mode}/closed")
            if ha is None and self._ha:
                ha = next(iter(self._ha.values()))
            if ha is not None:
                extras["r"] = ha.r_score
            # ...and the DR-Score (RPO-discounted restore fidelity),
            # also testbed-level and shared by every row.
            dr = self._dr.get(self.config.dr_archive_mode)
            if dr is None and self._dr:
                dr = next(iter(self._dr.values()))
            if dr is not None:
                extras["dr"] = dr.dr_score

            scores[name] = PerfectScores(
                arch_name=name,
                p=row.p_avg,
                p_star=p_score_actual(avg_tps, arch, arch.provisioned, duration_s),
                e1=e1,
                e1_star=e1_star,
                e2=e2_score(arch, self.workload_mix("RW", sf)),
                r_s=fo.r_avg_s,
                f_s=fo.f_avg_s,
                # Table IX's C column is the average replication lag of
                # the mixed IUD pattern in milliseconds (Equation (6)'s
                # per-kind sum is reported by the lag bench itself).
                c_ms=lag_mixed.avg_lag_s * 1000.0,
                t=t,
                t_star=t_star,
                scale_factor=1.0,
                extras=extras,
            )
        return scores
