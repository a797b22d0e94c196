"""Registered evaluators: one :class:`~repro.core.evalapi.EvalOutcome`
builder per evaluation the testbed supports.

Each runner receives the :class:`~repro.core.runner.CloudyBench`
instance, invokes its cached ``_compute_*`` method, and reshapes the
native result into the shared outcome form (paper-style table rows,
flat scores, timeline events).  The native result rides along as
``payload``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.evalapi import EvalOption, EvalOutcome, evaluator, parse_bool

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runner import CloudyBench


def _outcome(bench: "CloudyBench", **kwargs) -> EvalOutcome:
    return EvalOutcome(obs=bench.snapshot(), **kwargs)


# Range-checking option parsers: a value the evaluator cannot run with
# raises ValueError here, which the CLI reports as a usage error naming
# the option instead of a traceback from deep inside the run.

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


@evaluator(
    "throughput",
    title="Transaction processing throughput (Figure 5)",
    summary="TPS over architectures x scale factors x modes x concurrencies",
)
def _throughput(bench: "CloudyBench") -> EvalOutcome:
    data = bench._compute_throughput()
    rows = [
        (arch, sf, mode, con, round(tps))
        for (arch, sf, mode, con), tps in data.items()
    ]
    scores = {
        f"tps.{arch.name}.{mode}": bench.average_tps(arch.name, mode)
        for arch in bench.architectures
        for mode in bench.config.modes
    }
    return _outcome(
        bench, name="throughput",
        title="Transaction processing throughput (Figure 5)",
        headers=("arch", "SF", "mode", "concurrency", "TPS"),
        rows=rows, scores=scores, payload=data,
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
def _pscore(bench: "CloudyBench", n_ro_nodes: int = 1) -> EvalOutcome:
    data = bench._compute_pscore(n_ro_nodes=n_ro_nodes)
    modes = bench.config.modes
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
        bench, name="pscore", title="P-Score (Table V)",
        headers=("arch", "cost/min", *modes, "AVG"),
        rows=rows,
        scores={f"p.{row.arch_name}": row.p_avg for row in data},
        payload=data,
    )


@evaluator(
    "elasticity",
    title="Elasticity (Figure 6)",
    summary="E1 over scaling patterns and workload modes",
)
def _elasticity(bench: "CloudyBench") -> EvalOutcome:
    data = bench._compute_elasticity()
    rows = []
    events = []
    scores = {}
    for arch, by_pattern in data.items():
        e1_values = []
        for pattern, by_mode in by_pattern.items():
            for mode, result in by_mode.items():
                rows.append((
                    arch, pattern, mode, round(result.avg_tps),
                    round(result.total_cost, 4), round(result.e1_score),
                ))
                e1_values.append(result.e1_score)
        scores[f"e1.{arch}"] = (
            sum(e1_values) / len(e1_values) if e1_values else 0.0
        )
        # one representative run's scaling decisions per architecture
        pattern, by_mode = next(iter(by_pattern.items()))
        _mode, result = next(iter(by_mode.items()))
        events.extend(
            (time_s, f"{arch}/{pattern}: {message}")
            for time_s, message in result.collector.events
        )
    return _outcome(
        bench, name="elasticity", title="Elasticity (Figure 6)",
        headers=("arch", "pattern", "mode", "avg TPS", "total cost", "E1"),
        rows=rows, scores=scores, events=events, payload=data,
    )


@evaluator(
    "multitenancy",
    title="Multi-tenancy (Table VII)",
    summary="T-Score under the contention patterns",
)
def _multitenancy(bench: "CloudyBench") -> EvalOutcome:
    data = bench._compute_multitenancy()
    rows = []
    scores = {}
    for arch, by_pattern in data.items():
        t_values = []
        for pattern, result in by_pattern.items():
            rows.append((
                arch, pattern, round(result.total_tps),
                round(result.cost_per_minute, 4), round(result.t_score),
            ))
            t_values.append(result.t_score)
        scores[f"t.{arch}"] = sum(t_values) / len(t_values) if t_values else 0.0
    return _outcome(
        bench, name="multitenancy", title="Multi-tenancy (Table VII)",
        headers=("arch", "pattern", "total TPS", "cost/min", "T-Score"),
        rows=rows, scores=scores, payload=data,
    )


@evaluator(
    "failover",
    title="Fail-over (Table VIII), seconds",
    summary="fault and recovery times for RW/RO interruption",
)
def _failover(bench: "CloudyBench") -> EvalOutcome:
    data = bench._compute_failover()
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
        bench, name="failover", title="Fail-over (Table VIII), seconds",
        headers=("arch", "F(RW)", "F(RO)", "R(RW)", "R(RO)", "total"),
        rows=rows, scores=flat, payload=data,
    )


@evaluator(
    "lagtime",
    title="Replication lag (Section III-F)",
    summary="per-kind replication lag over the IUD patterns",
)
def _lagtime(bench: "CloudyBench") -> EvalOutcome:
    data = bench._compute_lagtime()
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
        mixed = by_pattern.get("mixed") or next(iter(by_pattern.values()))
        scores[f"c_ms.{arch}"] = mixed.avg_lag_s * 1000.0
    return _outcome(
        bench, name="lagtime", title="Replication lag (Section III-F)",
        headers=("arch", "pattern", "insert ms", "update ms", "delete ms", "C ms"),
        rows=rows, scores=scores, payload=data,
    )


@evaluator(
    "chaos",
    title="Availability under chaos",
    summary="goodput and error-budget burn under the seeded fault plan",
)
def _chaos(bench: "CloudyBench") -> EvalOutcome:
    plan = bench.chaos_plan()
    data = bench._compute_chaos()
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
        bench, name="chaos",
        title=f"Availability under chaos (SLO {bench.config.chaos_slo:g})",
        headers=("arch", "requests", "goodput", "budget burn",
                 "opens", "recloses"),
        rows=rows,
        scores={f"goodput.{arch}": score.goodput for arch, score in data.items()},
        events=events, notes=notes, payload=data,
    )


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


@evaluator(
    "oltp",
    title="Instrumented OLTP run (fault-free)",
    summary="end-to-end run exercising engine, replication and clients",
    options=(
        EvalOption("arrival", _parse_arrival_opt, None,
                   "client arrival process: closed (default) | "
                   "poisson[:RATE] | burst[:RATE,N]; open arrivals record "
                   "CO-free sojourn times from scheduled starts"),
    ),
)
def _oltp(bench: "CloudyBench", arrival=None) -> EvalOutcome:
    data = bench._compute_oltp(arrival=arrival)
    metrics = bench.observer.metrics
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
        bench, name="oltp", title="Instrumented OLTP run (fault-free)",
        headers=("arch", "requests", "goodput", "commits",
                 "lag p99 ms", "call p99 ms"),
        rows=rows,
        scores=scores,
        payload=data,
    )


@evaluator(
    "overload",
    title="Overload protection (goodput past the knee)",
    summary="goodput-vs-offered-load sweep with the qos stack on or off",
    options=(
        EvalOption(
            "qos", parse_bool, None,
            "admission control / deadlines / retry budgets on (default: "
            "the config's qos_enabled knob)",
        ),
        EvalOption(
            "arrival", _parse_open_arrival_opt, None,
            "arrival process: poisson (default) | burst[:RATE,N]; RATE is "
            "a multiple of capacity",
        ),
    ),
)
def _overload(bench: "CloudyBench", qos=None, arrival=None) -> EvalOutcome:
    data = bench._compute_overload(qos=qos, arrival=arrival)
    enabled = bench.config.qos_enabled if qos is None else qos
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
        bench, name="overload",
        title=f"Overload protection (qos {'on' if enabled else 'off'})",
        headers=("arch", "load", "offered rps", "goodput rps", "shed",
                 "expired", "timeouts", "p99 ms", "queue max"),
        rows=rows, scores=scores, payload=data,
    )


def _parse_ack_mode(value) -> str:
    mode = str(value)
    if mode not in ("sync", "semisync"):
        raise ValueError(f"unknown ack mode {mode!r}; use 'sync' or 'semisync'")
    return mode


@evaluator(
    "ha",
    title="Shard HA (replication + automated failover)",
    summary="availability through a primary kill, zeroed by any history "
            "violation (the R-Score)",
    options=(
        EvalOption("ack_mode", _parse_ack_mode, None,
                   "replication ack mode (default: config ha_ack_mode)"),
        EvalOption("arrival", _parse_arrival_opt, None,
                   "client arrival process: closed (default) | "
                   "poisson[:RATE] | burst[:RATE,N]; open arrivals record "
                   "CO-free sojourn times through the failover"),
    ),
)
def _ha(bench: "CloudyBench", ack_mode=None, arrival=None) -> EvalOutcome:
    result = bench._compute_ha(ack_mode=ack_mode, arrival=arrival)
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
        bench, name="ha",
        title="Shard HA (replication + automated failover)",
        headers=("ack", "txns", "acked", "availability", "failovers",
                 "restarts", "unavail ms", "bound ms", "violations",
                 "R-Score"),
        rows=rows,
        scores=scores,
        payload=result,
    )


def _parse_archive_mode(value) -> str:
    mode = str(value)
    if mode not in ("sync", "lagged"):
        raise ValueError(f"unknown archive mode {mode!r}; use 'sync' or 'lagged'")
    return mode


@evaluator(
    "dr",
    title="Disaster recovery (backup + PITR restore)",
    summary="RPO/RTO through backup-under-load, disaster and "
            "point-in-time restore (the DR-Score)",
    options=(
        EvalOption("archive_mode", _parse_archive_mode, None,
                   "WAL archiving mode: sync (RPO=0 expected) | lagged "
                   "(buffered tail lost at disaster, RPO priced in); "
                   "default: config dr_archive_mode"),
    ),
)
def _dr(bench: "CloudyBench", archive_mode=None) -> EvalOutcome:
    result = bench._compute_dr(archive_mode=archive_mode)
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
        bench, name="dr",
        title="Disaster recovery (backup + PITR restore)",
        headers=("archive", "txns", "acked", "archived", "lag lost",
                 "RPO txns", "RTO wall ms", "RTO virt ms", "violations",
                 "DR-Score"),
        rows=rows,
        scores=scores,
        payload=result,
    )


def _parse_counts(value) -> list:
    """Parse a comma-separated list of positive counts (``"1,2,4"``)."""
    if not isinstance(value, (list, tuple)):
        value = [item for item in str(value).split(",") if item.strip()]
    return [_positive_int(item) for item in value]


def _parse_driver(value) -> str:
    driver = str(value)
    if driver not in ("inline", "mp"):
        raise ValueError(f"unknown driver {driver!r}; use 'inline' or 'mp'")
    return driver


def _parse_transport(value) -> str:
    transport = str(value)
    if transport not in ("inline", "socket"):
        raise ValueError(
            f"unknown transport {transport!r}; use 'inline' or 'socket'"
        )
    return transport


@evaluator(
    "scaleout-real",
    title="Real scale-out (sharded fleet, 2PC)",
    summary="measured fleet txn/s vs shard count and cross-shard ratio, "
            "against the modelled E2 curve",
    options=(
        EvalOption("shards", _parse_counts, None,
                   "comma-separated shard counts (default: config shard_counts)"),
        EvalOption("cross", _parse_ratio, None,
                   "cross-shard transaction ratio in [0, 1]"),
        EvalOption("txns", _positive_int, None, "total transactions per point"),
        EvalOption("driver", _parse_driver, None,
                   "'inline' (any cross ratio) or 'mp' (one process per shard)"),
        EvalOption("arrival", _parse_arrival_opt, None,
                   "latency recording: closed (default) | poisson[:RATE] | "
                   "burst[:RATE,N] (inline driver only)"),
        EvalOption("transport", _parse_transport, None,
                   "'inline' (in-process clients, default) or 'socket' "
                   "(the same workload over the serving tier's loopback "
                   "socket; inline driver only)"),
    ),
)
def _scaleout_real(
    bench: "CloudyBench", shards=None, cross=None, txns=None, driver=None,
    arrival=None, transport=None,
) -> EvalOutcome:
    from repro.core.metrics import scale_out_tps

    # validate() fills defaults without coercing (the CLI layer owns
    # string parsing); coerce here so programmatic callers can pass
    # "1,2,4" or [1, 2, 4] interchangeably.
    data = bench._compute_scaleout_real(
        shard_counts=None if shards is None else _parse_counts(shards),
        cross_ratio=None if cross is None else _parse_ratio(cross),
        transactions=None if txns is None else _positive_int(txns),
        driver=None if driver is None else _parse_driver(driver),
        arrival=None if arrival is None else str(arrival),
        transport=None if transport is None else _parse_transport(transport),
    )
    # The analytic counterpart: the MVA scale-out curve (E2's substrate)
    # for the first configured architecture under the RW mix.  Measured
    # speedup comes from hash partitioning, modelled speedup from read
    # replicas -- the comparison shows how the testbed's two scale-out
    # mechanisms price added nodes.
    arch = bench.architectures[0]
    workload = bench.workload_mix("RW", bench.config.scale_factors[0])
    model_base = scale_out_tps(arch, workload, 150, 0)
    base = data[min(data)]
    rows = []
    scores = {}
    for n_shards in sorted(data):
        result = data[n_shards]
        speedup = (
            result.tps_node / base.tps_node if base.tps_node > 0 else 0.0
        )
        modelled = (
            scale_out_tps(arch, workload, 150, n_shards - 1) / model_base
            if model_base > 0 else 0.0
        )
        rows.append((
            n_shards, result.driver, f"{result.cross_ratio:.0%}",
            result.committed, result.aborted, result.cross_committed,
            round(result.tps_node), round(speedup, 2), round(modelled, 2),
            round(result.fsyncs / max(1, result.committed), 2),
        ))
        scores[f"scaleout.tps@{n_shards}"] = result.tps_node
        scores[f"scaleout.speedup@{n_shards}"] = speedup
        if result.openloop_latency_ms:
            scores[f"scaleout.openloop_p99_ms@{n_shards}"] = (
                result.openloop_latency_ms.get("p99", 0.0)
            )
    return _outcome(
        bench, name="scaleout-real",
        title="Real scale-out (sharded fleet, 2PC)",
        headers=("shards", "driver", "cross", "committed", "aborted",
                 "2PC commits", "node TPS", "speedup", "modelled",
                 "fsyncs/txn"),
        rows=rows, scores=scores, payload=data,
    )


def _parse_persona(value) -> str:
    persona = str(value)
    if persona not in ("payment", "reader", "mixed"):
        raise ValueError(
            f"unknown persona {persona!r}; use 'payment', 'reader' or 'mixed'"
        )
    return persona


@evaluator(
    "serve",
    title="Serving tier (SQL over sockets)",
    summary="measured TPS / p50 / p99 vs connection count through the "
            "asyncio SQL server; optional qos-on/off knee comparison",
    options=(
        EvalOption("connections", _parse_counts, None,
                   "comma-separated connection counts "
                   "(default: config serve_connections)"),
        EvalOption("txns", _positive_int, None, "transactions per connection"),
        EvalOption("qos", parse_bool, None,
                   "admission queue + deadline shedding on "
                   "(default: config serve_qos)"),
        EvalOption("workers", _non_negative_int, None,
                   "SO_REUSEPORT server processes "
                   "(0 = single in-process server, deterministic)"),
        EvalOption("arrival", _parse_arrival_opt, None,
                   "client arrival process: closed (default) | "
                   "poisson[:RATE] | burst[:RATE,N]"),
        EvalOption("persona", _parse_persona, None,
                   "load persona: payment | reader | mixed"),
        EvalOption("rate", _positive_float, None,
                   "total offered rate for open arrivals (txns/s)"),
        EvalOption("deadline", _positive_float, None,
                   "per-request deadline in seconds (expired work is shed)"),
        EvalOption("knee", parse_bool, False,
                   "also drive a qos-on vs qos-off overload pair past the "
                   "knee at the deepest connection count"),
    ),
)
def _serve(
    bench: "CloudyBench", connections=None, txns=None, qos=None,
    workers=None, arrival=None, persona=None, rate=None, deadline=None,
    knee=False,
) -> EvalOutcome:
    txns_opt = None if txns is None else _positive_int(txns)
    workers_opt = None if workers is None else _non_negative_int(workers)
    persona_opt = None if persona is None else _parse_persona(persona)
    data = bench._compute_serve(
        connections=None if connections is None else _parse_counts(connections),
        txns_per_conn=txns_opt,
        qos=None if qos is None else parse_bool(qos),
        workers=workers_opt,
        arrival=None if arrival is None else str(arrival),
        persona=persona_opt,
        rate_tps=None if rate is None else _positive_float(rate),
        deadline_s=None if deadline is None else _positive_float(deadline),
    )

    def _row(count, result):
        return (
            count, "on" if result.qos else "off", result.driver,
            result.offered, result.committed,
            result.shed + result.expired, result.errors,
            round(result.tps), round(result.goodput_tps),
            round(result.latency_ms.get("p50", 0.0), 2),
            round(result.latency_ms.get("p99", 0.0), 2),
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
    if parse_bool(knee):
        # Overload the deepest point at ~2.5x its measured closed-loop
        # service rate with a tight deadline and a short admission queue
        # -- the regime where shedding pays -- once with the qos stack
        # on, once off.  The ratio is the end-to-end D-Score analogue
        # measured over a real socket.
        deepest = max(data)
        knee_rate = max(data[deepest].tps, 1.0) * 2.5
        knee_deadline = 0.1 if deadline is None else float(deadline)
        pair = {}
        for flag in (True, False):
            run = bench._compute_serve(
                connections=[deepest],
                txns_per_conn=txns_opt,
                qos=flag,
                workers=workers_opt,
                arrival=f"poisson:{knee_rate:.6g}",
                persona=persona_opt,
                deadline_s=knee_deadline,
                max_queue=8,
            )[deepest]
            pair[flag] = run
            rows.append(_row(deepest, run))
        ratio = pair[True].goodput_tps / max(pair[False].goodput_tps, 1e-9)
        scores["serve.knee_ratio"] = ratio
        notes = (
            f"knee @ {deepest} conns: offered {knee_rate:.0f} tps poisson, "
            f"deadline {knee_deadline:g}s -> qos-on goodput "
            f"{pair[True].goodput_tps:.1f} vs off "
            f"{pair[False].goodput_tps:.1f} ({ratio:.2f}x)"
        )
    return _outcome(
        bench, name="serve", title="Serving tier (SQL over sockets)",
        headers=("conns", "qos", "driver", "offered", "committed",
                 "shed+exp", "errors", "TPS", "goodput", "p50 ms", "p99 ms"),
        rows=rows, scores=scores, notes=notes, payload=data,
    )


def _parse_workloads(value) -> list:
    """Parse a comma-separated perf workload list (``"oltp,shard"``)."""
    from repro.perf.harness import perf_workload_names

    if isinstance(value, (list, tuple)):
        names = [str(item) for item in value]
    else:
        names = [item.strip() for item in str(value).split(",") if item.strip()]
    known = perf_workload_names()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown perf workloads {unknown}; one of {known}")
    return names


@evaluator(
    "perf",
    title="Perf trajectory (two-stage measured harness)",
    summary="pilot-calibrated measured runs: wall/CPU/RSS, CO-free tail "
            "latency, subsystem cost breakdown",
    options=(
        EvalOption("workloads", _parse_workloads, None,
                   "comma-separated perf workloads (default: all)"),
        EvalOption("arrival", _parse_arrival_opt, None,
                   "arrival spec: closed | poisson[:RATE] | burst[:RATE,N]"),
        EvalOption("txns", _positive_int, None,
                   "fixed measured iteration count (default: config/pilot)"),
        EvalOption("profile", parse_bool, None,
                   "run the subsystem-profile pass (default: config)"),
    ),
)
def _perf(
    bench: "CloudyBench", workloads=None, arrival=None, txns=None,
    profile=None,
) -> EvalOutcome:
    data = bench._compute_perf(
        workloads=None if workloads is None else _parse_workloads(workloads),
        arrival=None if arrival is None else str(arrival),
        txns=None if txns is None else _positive_int(txns),
        profile=None if profile is None else parse_bool(profile),
    )
    rows = []
    scores = {}
    for name in sorted(data):
        run = data[name]
        latency = run.service.latency_summary_ms()
        sojourn = (
            run.openloop.latency_summary_ms() if run.openloop is not None
            else {}
        )
        top = ""
        if run.profile is not None:
            shares = {
                k: v for k, v in run.profile.shares().items() if k != "other"
            }
            if shares:
                name_top, share_top = max(shares.items(), key=lambda kv: kv[1])
                top = f"{name_top} {share_top:.0%}"
        rows.append((
            name, run.arrival.describe(), run.txns, run.committed,
            run.aborted, round(run.tps), round(run.wall_s, 3),
            round(run.cpu_s, 3),
            round(latency.get("p50", 0.0), 3),
            round(latency.get("p99", 0.0), 3),
            round(sojourn.get("p99", 0.0), 3) if sojourn else "-",
            top or "-",
        ))
        scores[f"perf.tps.{name}"] = run.tps
        scores[f"perf.p99_ms.{name}"] = latency.get("p99", 0.0)
        if sojourn:
            scores[f"perf.openloop_p99_ms.{name}"] = sojourn.get("p99", 0.0)
    return _outcome(
        bench, name="perf",
        title="Perf trajectory (two-stage measured harness)",
        headers=("workload", "arrival", "txns", "committed", "aborted",
                 "TPS", "wall s", "CPU s", "p50 ms", "p99 ms",
                 "open p99 ms", "top subsystem"),
        rows=rows, scores=scores, payload=data,
    )


@evaluator(
    "overall",
    title="Overall performance (Table IX)",
    summary="the unified PERFECT score card",
    options=(
        EvalOption("duration_s", _positive_float, 300.0,
                   "billing window in seconds"),
    ),
)
def _overall(bench: "CloudyBench", duration_s: float = 300.0) -> EvalOutcome:
    data = bench._compute_overall(duration_s=duration_s)
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
    return _outcome(
        bench, name="overall", title="Overall performance (Table IX)",
        headers=tuple(headers), rows=rows, scores=flat, payload=data,
    )
