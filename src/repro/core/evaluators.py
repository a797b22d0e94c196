"""Registered evaluators: one function per evaluation the testbed supports.

An evaluator is declared once: its name, title, summary and option
schema sit in the ``@evaluator`` decorator, and its function receives
the :class:`~repro.core.runner.CloudyBench` plus the options as
:meth:`~repro.core.evalapi.EvaluatorSpec.validate` resolved them
(parsed, range-checked, missing ones filled from the config).  The
function computes the evaluator's native result and reshapes it into
the shared outcome form (paper-style table rows, flat scores, timeline
events); the native result rides along as ``payload``.
``CloudyBench.run`` memoises the outcome and stamps its name, title and
observer snapshot, so nothing here caches or names itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.chaos.availability import AvailabilityEvaluator
from repro.chaos.plan import FaultPlan
from repro.cloud.mva_model import estimate_throughput
from repro.core.config import spelled
from repro.core.elasticity import ELASTIC_PATTERNS, ElasticityEvaluator, custom_pattern
from repro.core.evalapi import EvalOption, EvalOutcome, evaluator, parse_bool
from repro.core.failover import FailOverEvaluator
from repro.core.lagtime import LagTimeEvaluator
from repro.core.metrics import (
    E2_CONCURRENCY, PerfectScores, e2_score, p_score_actual, scale_out_tps,
)
from repro.core.multitenancy import MultiTenancyEvaluator
from repro.core.pricing import (
    actual_cost,
    package_cost_breakdown_per_minute,
    package_cost_per_minute,
)
from repro.core.runner import PScoreRow
from repro.core.workload import LAG_PATTERNS
from repro.dr.archive import ARCHIVE_MODES
from repro.ha.replication import ACK_MODES
from repro.obs.metrics import MetricsRegistry
from repro.qos.overload import OverloadEvaluator
from repro.serve.loadgen import PERSONAS
from repro.shard.driver import DRIVERS, TRANSPORTS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import CloudyBench


def _outcome(headers, rows, title: str = "", **rest) -> EvalOutcome:
    """An outcome whose name (and title, unless given) ``run`` fills in."""
    return EvalOutcome(name="", title=title, headers=headers, rows=rows, **rest)


# Option parsers: a value the evaluator cannot run with raises ValueError
# here, which ``validate`` re-raises naming the option (a one-line usage
# error on the CLI) instead of a traceback from deep inside the run.

def _checked(convert, accept, rule):
    """An option parser: ``convert(value)``, rejected unless ``accept``."""

    def parse(value):
        number = convert(value)
        if not accept(number):
            raise ValueError(f"must be {rule}, got {value!r}")
        return number

    return parse


_positive_int = _checked(int, lambda n: n >= 1, ">= 1")
_non_negative_int = _checked(int, lambda n: n >= 0, ">= 0")
_positive_float = _checked(float, lambda x: x > 0, "> 0")
_parse_ratio = _checked(float, lambda x: 0.0 <= x <= 1.0, "in [0, 1]")


def _one_of(choices):
    """An option parser accepting exactly the spellings in ``choices``."""

    def parse(value) -> str:
        if str(value) not in choices:
            raise ValueError(f"must be {spelled(choices)}, got {str(value)!r}")
        return str(value)

    return parse


def _items(value) -> list:
    """The items of a list option: a sequence, or ``"a,b,c"`` text."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [item.strip() for item in str(value).split(",") if item.strip()]


def _parse_counts(value) -> tuple:
    """Parse a non-empty list of positive counts (``"1,2,4"`` or ``[1, 2, 4]``)."""
    counts = tuple(_positive_int(item) for item in _items(value))
    if not counts:
        raise ValueError(f"must list at least one count, got {value!r}")
    return counts


def _parse_arrival_opt(value) -> str:
    """Validate an arrival spec at option-parse time (clean CLI errors)."""
    from repro.perf.openloop import parse_arrival

    spec = str(value)
    parse_arrival(spec)  # raises ValueError on a malformed spec
    return spec


def _parse_open_arrival_opt(value) -> str:
    """An arrival spec for the overload sweep, which is open-loop only."""
    from repro.perf.openloop import parse_arrival

    spec = str(value)
    if not parse_arrival(spec).is_open:
        raise ValueError("the overload sweep is open-loop; use poisson or burst")
    return spec


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


@evaluator(
    "throughput",
    title="Transaction processing throughput (Figure 5)",
    summary="TPS over architectures x scale factors x modes x concurrencies",
)
def _throughput(bench: "CloudyBench") -> EvalOutcome:
    config = bench.config
    data: Dict[tuple, float] = {}
    for arch in bench.architectures:
        for sf in config.scale_factors:
            for mode in config.modes:
                workload = bench.workload_mix(mode, sf)
                for con in config.concurrencies:
                    estimate = estimate_throughput(arch, workload, con)
                    data[(arch.name, sf, mode, con)] = estimate.tps
    rows = [
        (arch, sf, mode, con, round(tps))
        for (arch, sf, mode, con), tps in data.items()
    ]
    # a mode's TPS averaged over all scale factors and concurrencies
    scores = {
        f"tps.{arch.name}.{mode}": _mean(
            tps for (name, _sf, m, _con), tps in data.items()
            if name == arch.name and m == mode
        )
        for arch in bench.architectures
        for mode in config.modes
    }
    return _outcome(
        ("arch", "SF", "mode", "concurrency", "TPS"), rows,
        scores=scores, payload=data,
    )


@evaluator(
    "pscore",
    title="P-Score (Table V)",
    summary="cost-normalised throughput per architecture",
    options=(
        EvalOption("n_ro_nodes", _non_negative_int, 1,
                   "read-only nodes charged per SUT"),
    ),
)
def _pscore(bench: "CloudyBench", n_ro_nodes: int) -> EvalOutcome:
    """Table V rows.

    The paper deploys one RW plus one RO node per SUT, so the total
    cost charges compute (CPU + memory) once per node while storage,
    IOPS and network are shared -- that is how Table V's total of
    $0.0437/min for RDS reconciles with its per-resource breakdown.
    """
    modes = bench.config.modes
    tps = bench.run("throughput").scores
    data = []
    for arch in bench.architectures:
        package = arch.provisioned
        breakdown = package_cost_breakdown_per_minute(package)
        total = package_cost_per_minute(package) + n_ro_nodes * (
            breakdown["cpu"] + breakdown["memory"]
        )
        tps_by_mode = {mode: tps[f"tps.{arch.name}.{mode}"] for mode in modes}
        data.append(PScoreRow(
            arch_name=arch.name,
            cost_breakdown=breakdown,
            total_cost_per_minute=total,
            tps_by_mode=tps_by_mode,
            p_by_mode={
                mode: mode_tps / total if total > 0 else 0.0
                for mode, mode_tps in tps_by_mode.items()
            },
        ))
    rows = [
        (
            row.arch_name,
            round(row.total_cost_per_minute, 4),
            *(round(row.p_by_mode[mode]) for mode in modes),
            round(row.p_avg),
        )
        for row in data
    ]
    return _outcome(
        ("arch", "cost/min", *modes, "AVG"), rows,
        scores={f"p.{row.arch_name}": row.p_avg for row in data},
        payload=data,
    )


@evaluator(
    "elasticity",
    title="Elasticity (Figure 6)",
    summary="E1 over scaling patterns and workload modes",
)
def _elasticity(bench: "CloudyBench") -> EvalOutcome:
    config = bench.config
    sf = min(config.scale_factors)
    taus = {mode: bench.elastic_tau(mode) for mode in config.elastic_modes}
    patterns = dict(ELASTIC_PATTERNS)
    for key, proportions in config.custom_patterns.items():
        patterns[key] = custom_pattern(key, proportions)
    data: Dict[str, dict] = {}
    for arch in bench.architectures:
        data[arch.name] = {key: {} for key in patterns}
        for pattern_key, pattern in patterns.items():
            for mode in config.elastic_modes:
                probe = ElasticityEvaluator(
                    arch,
                    bench.workload_mix(mode, sf),
                    slot_seconds=config.slot_seconds,
                    measure_window_s=config.measure_window_s,
                )
                data[arch.name][pattern_key][mode] = probe.run(pattern, taus[mode])
    rows = []
    events = []
    scores = {}
    for arch, by_pattern in data.items():
        for pattern, by_mode in by_pattern.items():
            for mode, result in by_mode.items():
                rows.append((
                    arch, pattern, mode, round(result.avg_tps),
                    round(result.total_cost, 4), round(result.e1_score),
                ))
        scores[f"e1.{arch}"] = _mean(
            result.e1_score
            for by_mode in by_pattern.values() for result in by_mode.values()
        )
        # one representative run's scaling decisions per architecture
        pattern, by_mode = next(iter(by_pattern.items()))
        _mode, result = next(iter(by_mode.items()))
        events.extend(
            (time_s, f"{arch}/{pattern}: {message}")
            for time_s, message in result.collector.events
        )
    return _outcome(
        ("arch", "pattern", "mode", "avg TPS", "total cost", "E1"), rows,
        scores=scores, events=events, payload=data,
    )


@evaluator(
    "multitenancy",
    title="Multi-tenancy (Table VII)",
    summary="T-Score under the contention patterns",
)
def _multitenancy(bench: "CloudyBench") -> EvalOutcome:
    config = bench.config
    tau_high, tau_low = bench.tenancy_taus()
    sf = min(config.scale_factors)
    data = {}
    for arch in bench.architectures:
        tenants = MultiTenancyEvaluator(
            arch,
            bench.workload_mix("RW", sf),
            n_tenants=config.tenants,
            n_slots=config.tenant_slots,
            slot_seconds=config.slot_seconds,
        )
        data[arch.name] = tenants.run_all(tau_high, tau_low)
    rows = []
    scores = {}
    for arch, by_pattern in data.items():
        for pattern, result in by_pattern.items():
            rows.append((
                arch, pattern, round(result.total_tps),
                round(result.cost_per_minute, 4), round(result.t_score),
            ))
        scores[f"t.{arch}"] = _mean(r.t_score for r in by_pattern.values())
    return _outcome(
        ("arch", "pattern", "total TPS", "cost/min", "T-Score"), rows,
        scores=scores, payload=data,
    )


@evaluator(
    "failover",
    title="Fail-over (Table VIII), seconds",
    summary="fault and recovery times for RW/RO interruption",
)
def _failover(bench: "CloudyBench") -> EvalOutcome:
    config = bench.config
    sf = min(config.scale_factors)
    data = {
        arch.name: FailOverEvaluator(
            arch,
            bench.workload_mix("RW", sf),
            concurrency=config.failover_concurrency,
            recovery_threshold=config.recovery_threshold,
        ).run()
        for arch in bench.architectures
    }
    rows = [
        (
            arch, round(scores.f_rw_s, 1), round(scores.f_ro_s, 1),
            round(scores.r_rw_s, 1), round(scores.r_ro_s, 1),
            round(scores.total_s, 1),
        )
        for arch, scores in data.items()
    ]
    flat = {}
    for arch, scores in data.items():
        flat[f"f_s.{arch}"] = scores.f_avg_s
        flat[f"r_s.{arch}"] = scores.r_avg_s
    return _outcome(
        ("arch", "F(RW)", "F(RO)", "R(RW)", "R(RO)", "total"), rows,
        scores=flat, payload=data,
    )


@evaluator(
    "lagtime",
    title="Replication lag (Section III-F)",
    summary="per-kind replication lag over the IUD patterns",
)
def _lagtime(bench: "CloudyBench") -> EvalOutcome:
    config = bench.config
    data = {
        arch.name: LagTimeEvaluator(
            arch,
            scale_factor=min(config.scale_factors),
            row_scale=config.row_scale,
            concurrency=config.lag_concurrency,
            n_replicas=config.lag_replicas,
            transactions=config.lag_transactions,
            seed=config.seed,
            isolation=config.isolation_level(),
        ).run_patterns(LAG_PATTERNS)
        for arch in bench.architectures
    }
    rows = []
    scores = {}
    for arch, by_pattern in data.items():
        for pattern, result in by_pattern.items():
            rows.append((
                arch, pattern,
                round(result.insert_lag_s * 1000, 2),
                round(result.update_lag_s * 1000, 2),
                round(result.delete_lag_s * 1000, 2),
                round(result.c_score_s * 1000, 2),
            ))
        # Table IX's C column is the average replication lag of the
        # mixed IUD pattern in milliseconds (Equation (6)'s per-kind sum
        # is the "C ms" column above)
        mixed = by_pattern.get("mixed") or next(iter(by_pattern.values()))
        scores[f"c_ms.{arch}"] = mixed.avg_lag_s * 1000.0
    return _outcome(
        ("arch", "pattern", "insert ms", "update ms", "delete ms", "C ms"), rows,
        scores=scores, payload=data,
    )


def _availability(bench: "CloudyBench", arch, plan: FaultPlan, **extra):
    """One SUT's A-Score under ``plan``, on the bench's shared observer."""
    config = bench.config
    return AvailabilityEvaluator(
        arch,
        plan,
        slo=config.chaos_slo,
        n_clients=config.chaos_clients,
        n_replicas=config.chaos_replicas,
        row_scale=config.row_scale,
        observer=bench.observer,
        **extra,
    ).run()


@evaluator(
    "chaos",
    title="Availability under chaos",
    summary="goodput and error-budget burn under the seeded fault plan",
)
def _chaos(bench: "CloudyBench") -> EvalOutcome:
    plan = bench.chaos_plan()
    data = {
        arch.name: _availability(bench, arch, plan) for arch in bench.architectures
    }
    rows = [
        (
            arch, score.requests, round(score.goodput, 4),
            round(score.error_budget_burn, 3),
            score.breaker_opened, score.breaker_reclosed,
        )
        for arch, score in data.items()
    ]
    notes = "\n".join(
        [
            f"fault plan {plan.name} (seed={plan.seed}, "
            f"fingerprint {plan.fingerprint()[:16]}):",
            *(f"  {line}" for line in plan.describe()),
        ]
    )
    events = [(spec.start_s, f"{spec.kind.value} @ {spec.target}")
              for spec in plan.specs]
    return _outcome(
        ("arch", "requests", "goodput", "budget burn", "opens", "recloses"), rows,
        title=f"Availability under chaos (SLO {bench.config.chaos_slo:g})",
        scores={f"goodput.{arch}": score.goodput for arch, score in data.items()},
        events=events, notes=notes, payload=data,
    )


@evaluator(
    "oltp",
    title="Instrumented OLTP run (fault-free)",
    summary="end-to-end run exercising engine, replication and clients",
    options=(
        EvalOption("arrival", _parse_arrival_opt, "closed",
                   "closed | poisson[:RATE] | burst[:RATE,N]; an open spec "
                   "replays the closed run for a CO-free p99"),
    ),
)
def _oltp(bench: "CloudyBench", arrival: str) -> EvalOutcome:
    """A fault-free end-to-end run that exercises every layer.

    Reuses the availability machinery with an *empty* fault plan, so
    real transactions hit the engine, WAL records ship through the
    replication DES, and every request crosses the client resilience
    stack -- one run produces engine, replication and client spans on
    the shared observer.  Only the first configured architecture runs:
    the point is one clean timeline, not a cross-SUT comparison.  The
    columns count this run only: it fills a registry of its own, folded
    into the shared observer's (which holds every earlier run) after.
    """
    arch = bench.architectures[0]
    plan = FaultPlan((), seed=bench.config.seed, name="healthy")
    observer = bench.observer
    shared, observer.metrics = observer.metrics, MetricsRegistry()
    try:
        data = {arch.name: _availability(
            bench, arch, plan, duration_s=bench.config.chaos_duration_s, arrival=arrival,
        )}
    finally:
        metrics, observer.metrics = observer.metrics, shared
        shared.merge(metrics)
    commits = metrics.counter("engine.txn.commit").value
    lag_p99 = metrics.histogram("repl.lag_s").percentile(99.0)
    call_p99 = metrics.histogram("client.call_s").percentile(99.0)
    rows = [
        (
            arch, score.requests, round(score.goodput, 4), int(commits),
            round(lag_p99 * 1000, 3), round(call_p99 * 1000, 3),
        )
        for arch, score in data.items()
    ]
    scores = {f"goodput.{arch}": score.goodput for arch, score in data.items()}
    for arch, score in data.items():
        if score.openloop_latency_ms:
            scores[f"oltp.openloop_p99_ms.{arch}"] = (
                score.openloop_latency_ms.get("p99", 0.0)
            )
    return _outcome(
        ("arch", "requests", "goodput", "commits", "lag p99 ms", "call p99 ms"),
        rows, scores=scores, payload=data,
    )


@evaluator(
    "overload",
    title="Overload protection (goodput past the knee)",
    summary="goodput-vs-offered-load sweep with the qos stack on or off",
    options=(
        EvalOption("qos", parse_bool, config="qos_enabled",
                   help="admission control / deadlines / retry budgets on"),
        EvalOption("arrival", _parse_open_arrival_opt, "poisson",
                   "arrival process: poisson | burst[:RATE,N]; RATE is a "
                   "multiple of capacity"),
    ),
)
def _overload(bench: "CloudyBench", qos: bool, arrival: str) -> EvalOutcome:
    """Goodput-vs-offered-load sweep past saturation, per SUT."""
    config = bench.config
    data = {
        arch.name: OverloadEvaluator(
            arch,
            qos=qos,
            capacity_rps=config.overload_capacity_rps,
            deadline_s=config.overload_deadline_s,
            duration_s=config.overload_duration_s,
            seed=config.seed,
            observer=bench.observer,
            arrival=arrival,
        ).run(list(config.overload_multiples))
        for arch in bench.architectures
    }
    rows = []
    scores = {}
    for arch, result in data.items():
        for point in result.points:
            rows.append((
                arch, f"x{point.multiple:g}",
                round(point.offered_rps), round(point.goodput_rps, 1),
                point.shed, point.expired, point.timeouts,
                round(point.p99_latency_s * 1000, 1), point.peak_queue_depth,
            ))
        scores[f"d.{arch}"] = result.dscore
    return _outcome(
        ("arch", "load", "offered rps", "goodput rps", "shed",
         "expired", "timeouts", "p99 ms", "queue max"),
        rows,
        title=f"Overload protection (qos {'on' if qos else 'off'})",
        scores=scores, payload=data,
    )


@evaluator(
    "ha",
    title="Shard HA (replication + automated failover)",
    summary="availability through a primary kill, zeroed by any history "
            "violation (the R-Score)",
    options=(
        EvalOption("ack_mode", _one_of(ACK_MODES),
                   config="ha_ack_mode", help="replication ack mode"),
        EvalOption("arrival", _parse_arrival_opt, "closed",
                   "closed | poisson[:RATE] | burst[:RATE,N]; an open spec "
                   "replays the closed run for a CO-free p99"),
    ),
)
def _ha(bench: "CloudyBench", ack_mode: str, arrival: str) -> EvalOutcome:
    """One HA fleet run through a mid-run primary kill.

    This is testbed-level, not per-SUT: it exercises the engine's own
    replication/failover stack (:mod:`repro.ha`), so a single run
    covers every architecture row.
    """
    from repro.ha.evaluator import HAEvaluator
    from repro.ha.lease import LeaseConfig

    config = bench.config
    result = HAEvaluator(
        n_shards=config.ha_shards,
        txns=config.ha_txns,
        n_pairs=config.ha_pairs,
        ack_mode=ack_mode,
        lease=LeaseConfig(
            lease_s=config.ha_lease_s, heartbeat_s=config.ha_heartbeat_s,
        ),
        seed=config.seed,
        observer=bench.observer,
        arrival=arrival,
    ).run()
    rows = [(
        result.ack_mode, result.txns, result.acked,
        f"{result.availability:.4f}",
        result.failovers, result.restarts,
        round(result.unavailable_s * 1000, 1),
        round(result.bound_s * 1000, 1),
        len(result.violations),
        round(result.r_score, 4),
    )]
    scores = {"r": result.r_score}
    if result.openloop_latency_ms:
        scores["ha.openloop_p99_ms"] = result.openloop_latency_ms.get(
            "p99", 0.0
        )
    return _outcome(
        ("ack", "txns", "acked", "availability", "failovers", "restarts",
         "unavail ms", "bound ms", "violations", "R-Score"),
        rows, scores=scores, payload=result,
    )


@evaluator(
    "dr",
    title="Disaster recovery (backup + PITR restore)",
    summary="RPO/RTO through backup-under-load, disaster and "
            "point-in-time restore (the DR-Score)",
    options=(
        EvalOption("archive_mode", _one_of(ARCHIVE_MODES),
                   config="dr_archive_mode",
                   help="WAL archiving mode: sync (RPO=0 expected) | lagged "
                        "(buffered tail lost at disaster, RPO priced in)"),
    ),
)
def _dr(bench: "CloudyBench", archive_mode: str) -> EvalOutcome:
    """One backup-under-load, disaster, PITR-restore run.

    Testbed-level like the HA run: it exercises the engine's own
    archive/backup/restore stack (:mod:`repro.dr`), so a single run
    covers every architecture row.
    """
    from repro.dr.evaluator import DREvaluator

    config = bench.config
    result = DREvaluator(
        n_shards=config.dr_shards,
        txns=config.dr_txns,
        n_pairs=config.dr_pairs,
        archive_mode=archive_mode,
        seed=config.seed,
        observer=bench.observer,
    ).run()
    rows = [(
        result.archive_mode, result.txns, result.acked,
        result.archived_records, result.lag_lost_records,
        result.rpo_txns,
        round(result.rto_wall_s * 1000, 1),
        round(result.rto_virtual_s * 1000, 1),
        len(result.violations),
        round(result.dr_score, 4),
    )]
    scores = {
        "dr": result.dr_score,
        "dr.rpo_txns": float(result.rpo_txns),
        "dr.rto_virtual_ms": result.rto_virtual_s * 1000.0,
    }
    return _outcome(
        ("archive", "txns", "acked", "archived", "lag lost", "RPO txns",
         "RTO wall ms", "RTO virt ms", "violations", "DR-Score"),
        rows, scores=scores, payload=result,
    )


@evaluator(
    "scaleout-real",
    title="Real scale-out (sharded fleet, 2PC)",
    summary="measured fleet txn/s vs shard count and cross-shard ratio, "
            "against the modelled E2 curve",
    options=(
        EvalOption("shards", _parse_counts, config="shard_counts",
                   help="comma-separated shard counts"),
        EvalOption("cross", _parse_ratio, None,
                   "cross-shard transaction ratio in [0, 1] (default: config "
                   "shard_cross_ratio; 0 for the mp driver)"),
        EvalOption("txns", _positive_int, config="shard_txns",
                   help="total transactions per point"),
        EvalOption("driver", _one_of(DRIVERS),
                   config="shard_driver",
                   help="'inline' (any cross ratio) or 'mp' (one process per shard)"),
        EvalOption("arrival", _parse_arrival_opt, "closed",
                   "latency recording: closed | poisson[:RATE] | "
                   "burst[:RATE,N] (inline driver only)"),
        EvalOption("transport", _one_of(TRANSPORTS), "inline",
                   "'inline' (in-process clients) or 'socket' (the same "
                   "workload over the serving tier's loopback socket; inline "
                   "driver only)"),
    ),
)
def _scaleout_real(
    bench: "CloudyBench", shards, cross, txns, driver, arrival, transport,
) -> EvalOutcome:
    """Measured fleet throughput per shard count.

    Unlike the model-driven evaluators this loads one real sharded
    fleet per point and drives the payment workload through it
    (:mod:`repro.shard.driver`); the payload is ``{n_shards:
    ShardRunResult}``.
    """
    from repro.shard.driver import run_scaleout

    if cross is None:
        # the mp driver has no cross-process coordinator, so its only
        # valid ratio is 0; don't let the config default for the inline
        # driver reject an explicit ``driver=mp``
        cross = 0.0 if driver == "mp" else bench.config.shard_cross_ratio
    data = {
        result.n_shards: result
        for result in run_scaleout(
            list(shards), txns, cross_ratio=cross, seed=bench.config.seed,
            row_scale=bench.config.row_scale, driver=driver,
            observer=bench.observer, arrival=arrival, transport=transport,
        )
    }
    # The analytic counterpart: the MVA scale-out curve (E2's substrate)
    # for the first configured architecture under the RW mix.  Measured
    # speedup comes from hash partitioning, modelled speedup from read
    # replicas -- the comparison shows how the testbed's two scale-out
    # mechanisms price added nodes.
    arch = bench.architectures[0]
    workload = bench.workload_mix("RW", bench.config.scale_factors[0])
    model_base = scale_out_tps(arch, workload, E2_CONCURRENCY, 0)
    base = data[min(data)]
    open_arrival = bool(base.openloop_latency_ms)  # every point shares it
    rows = []
    scores = {}
    for n_shards in sorted(data):
        result = data[n_shards]
        speedup = (
            result.tps_node / base.tps_node if base.tps_node > 0 else 0.0
        )
        modelled = (
            scale_out_tps(arch, workload, E2_CONCURRENCY, n_shards - 1) / model_base
            if model_base > 0 else 0.0
        )
        row = (
            n_shards, result.driver, f"{result.cross_ratio:.0%}",
            result.committed, result.aborted, result.cross_committed,
            round(result.tps_node), round(speedup, 2), round(modelled, 2),
            round(result.fsyncs / max(1, result.committed), 2),
        )
        scores[f"scaleout.tps@{n_shards}"] = result.tps_node
        scores[f"scaleout.speedup@{n_shards}"] = speedup
        if open_arrival:
            open_p99 = result.openloop_latency_ms["p99"]
            scores[f"scaleout.openloop_p99_ms@{n_shards}"] = open_p99
            row += (
                round(result.latency_ms["p50"], 3),
                round(result.latency_ms["p99"], 3),
                round(open_p99, 3),
            )
        rows.append(row)
    headers = ("shards", "driver", "cross", "committed", "aborted",
               "2PC commits", "node TPS", "speedup", "modelled", "fsyncs/txn")
    if open_arrival:
        headers += ("p50 ms", "p99 ms", "open p99 ms")
    return _outcome(headers, rows, scores=scores, payload=data)


@evaluator(
    "serve",
    title="Serving tier (SQL over sockets)",
    summary="measured TPS / p50 / p99 vs connection count through the "
            "asyncio SQL server; optional qos-on/off knee comparison",
    options=(
        EvalOption("connections", _parse_counts, config="serve_connections",
                   help="comma-separated connection counts"),
        EvalOption("txns", _positive_int, config="serve_txns_per_conn",
                   help="transactions per connection"),
        EvalOption("qos", parse_bool, config="serve_qos",
                   help="admission queue + deadline shedding on"),
        EvalOption("arrival", _parse_arrival_opt, config="serve_arrival",
                   help="client arrival process: closed | poisson[:RATE] | "
                        "burst[:RATE,N]"),
        EvalOption("persona", _one_of(PERSONAS),
                   config="serve_persona",
                   help="load persona: payment | reader | mixed"),
        EvalOption("rate", _positive_float, None,
                   "total offered rate for open arrivals (txns/s)"),
        EvalOption("deadline", _positive_float, config="serve_deadline_s",
                   help="per-request deadline in seconds (expired work is shed)"),
        EvalOption("knee", parse_bool, False,
                   "also drive a qos-on vs qos-off overload pair past the "
                   "knee at the deepest connection count"),
    ),
)
def _serve(
    bench: "CloudyBench", connections, txns, qos, arrival, persona, rate,
    deadline, knee,
) -> EvalOutcome:
    """One serve sweep, payload ``{connections: ServeRunResult}``.

    Boots the real serving tier (:mod:`repro.serve`) per connection
    count and drives it with the async load generator -- measured
    end-to-end over a loopback socket, like the scale-out runs.
    Testbed-level (one run covers every architecture row).
    """
    from repro.serve.driver import run_sweep

    config = bench.config

    def sweep(counts, **shape):
        results = run_sweep(
            counts, txns, n_shards=config.serve_shards, persona=persona,
            seed=config.seed, row_scale=config.row_scale,
            max_connections=config.serve_max_connections,
            observer=bench.observer, **shape,
        )
        return {result.connections: result for result in results}

    def _row(count, result):
        return (
            count, "on" if result.qos else "off", "async",
            result.offered, result.committed,
            result.shed + result.expired, result.errors,
            round(result.tps), round(result.goodput_tps),
            round(result.latency_ms.get("p50", 0.0), 2),
            round(result.latency_ms.get("p99", 0.0), 2),
        )

    data = sweep(
        connections, qos=qos, arrival=arrival, rate_tps=rate,
        deadline_s=deadline, max_queue=config.serve_max_queue,
    )
    rows = []
    scores = {}
    for count in sorted(data):
        result = data[count]
        rows.append(_row(count, result))
        scores[f"serve.tps@{count}"] = result.tps
        scores[f"serve.goodput@{count}"] = result.goodput_tps
        scores[f"serve.p99_ms@{count}"] = result.latency_ms.get("p99", 0.0)
    notes = ""
    if knee:
        # Overload the deepest point at ~2.5x its measured closed-loop
        # service rate with a tight deadline and a short admission queue
        # -- the regime where shedding pays -- once with the qos stack
        # on, once off.  The ratio is the end-to-end D-Score analogue
        # measured over a real socket.
        deepest = max(data)
        knee_rate = max(data[deepest].tps, 1.0) * 2.5
        knee_deadline = deadline or 0.1
        pair = {}
        for flag in (True, False):
            pair[flag] = sweep(
                [deepest], qos=flag, arrival=f"poisson:{knee_rate:.6g}",
                deadline_s=knee_deadline, max_queue=8,
            )[deepest]
            rows.append(_row(deepest, pair[flag]))
        ratio = pair[True].goodput_tps / max(pair[False].goodput_tps, 1e-9)
        scores["serve.knee_ratio"] = ratio
        notes = (
            f"knee @ {deepest} conns: offered {knee_rate:.0f} tps poisson, "
            f"deadline {knee_deadline:g}s -> qos-on goodput "
            f"{pair[True].goodput_tps:.1f} vs off "
            f"{pair[False].goodput_tps:.1f} ({ratio:.2f}x)"
        )
    return _outcome(
        ("conns", "qos", "driver", "offered", "committed", "shed+exp",
         "errors", "TPS", "goodput", "p50 ms", "p99 ms"),
        rows, scores=scores, notes=notes, payload=data,
    )


def _perfect_scores(bench: "CloudyBench", duration_s: float) -> Dict[str, PerfectScores]:
    """All seven scores plus the O-Score for every SUT.

    P, E1, T, C, F and R are the scores their own evaluations publish;
    only the starred scores, re-priced at the vendor's prices, and E2
    are computed here.
    """
    outcomes = {
        name: bench.run(name)
        for name in ("pscore", "elasticity", "multitenancy", "failover", "lagtime")
    }
    published = {
        key: value
        for outcome in outcomes.values() for key, value in outcome.scores.items()
    }
    pscore_rows = {row.arch_name: row for row in outcomes["pscore"].payload}
    elasticity = outcomes["elasticity"].payload
    tenancy = outcomes["multitenancy"].payload
    sf = min(bench.config.scale_factors)

    # Scores of evaluations the score card does not force ride along
    # when their run is already memoised
    overload, ha, dr = (bench.memoised(name) for name in ("overload", "ha", "dr"))

    scores: Dict[str, PerfectScores] = {}
    for arch in bench.architectures:
        name = arch.name
        row = pscore_rows[name]
        avg_tps = sum(row.tps_by_mode.values()) / max(1, len(row.tps_by_mode))
        # E1*: recompute the denominator with the vendor's prices
        billed = actual_cost(arch.pricing, arch.provisioned, duration_s)
        e1_star_values = []
        for by_mode in elasticity[name].values():
            for result in by_mode.values():
                denom = billed * (result.elastic_cost / max(result.total_cost, 1e-9))
                e1_star_values.append(result.avg_tps / denom if denom > 0 else 0.0)

        t_star_values = []
        for result in tenancy[name].values():
            per_minute = actual_cost(
                arch.pricing, result.package, duration_s
            ) / (duration_s / 60.0)
            t_star_values.append(
                result.t_score * result.cost_per_minute / per_minute
                if per_minute > 0
                else 0.0
            )

        # "d" is the overload D-Score; "r" the shard-HA R-Score and "dr"
        # the DR-Score (RPO-discounted restore fidelity) are
        # testbed-level, so the same number annotates every row
        extras = {}
        if overload is not None and name in overload.payload:
            extras["d"] = overload.payload[name].dscore
        if ha is not None:
            extras["r"] = ha.payload.r_score
        if dr is not None:
            extras["dr"] = dr.payload.dr_score

        scores[name] = PerfectScores(
            arch_name=name,
            p=published[f"p.{name}"],
            p_star=p_score_actual(avg_tps, arch, arch.provisioned, duration_s),
            e1=published[f"e1.{name}"],
            e1_star=_mean(e1_star_values),
            e2=e2_score(arch, bench.workload_mix("RW", sf)),
            r_s=published[f"r_s.{name}"],
            f_s=published[f"f_s.{name}"],
            c_ms=published[f"c_ms.{name}"],
            t=published[f"t.{name}"],
            t_star=_mean(t_star_values),
            scale_factor=1.0,
            extras=extras,
        )
    return scores


@evaluator(
    "overall",
    title="Overall performance (Table IX)",
    summary="the unified PERFECT score card",
    options=(
        EvalOption("duration_s", _positive_float, 300.0,
                   "billing window in seconds"),
    ),
    memoise=False,  # its optional columns grow as overload/ha/dr runs land
)
def _overall(bench: "CloudyBench", duration_s: float) -> EvalOutcome:
    data = _perfect_scores(bench, duration_s)
    headers = ["arch", "P", "P*", "E1", "E1*", "R", "F", "E2",
               "C(ms)", "T", "T*", "O", "O*"]
    # extra score columns append after O* when the corresponding
    # evaluator has run: "D" is the overload D-Score, "R-HA" the shard
    # HA R-Score ("R" proper is the failover recovery time), "DR" the
    # disaster-recovery score
    extra_columns = [
        (key, header)
        for key, header in (("d", "D"), ("r", "R-HA"), ("dr", "DR"))
        if any(key in scores.extras for scores in data.values())
    ]
    headers.extend(header for _key, header in extra_columns)
    rows = []
    flat = {}
    for arch, scores in data.items():
        row = list(scores.as_row())
        for key, _header in extra_columns:
            value = scores.extras.get(key)
            row.append("-" if value is None else round(value, 3))
        rows.append(tuple(row))
        flat[f"o.{arch}"] = scores.o
        flat[f"o_star.{arch}"] = scores.o_star
    return _outcome(tuple(headers), rows, scores=flat, payload=data)
