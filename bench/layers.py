"""Per-layer metrics from a traced run, and the checks that the wrappers
reached what they claim to measure.

A layer is a module of the program; its metric names start with the
module's name.  ``*_us_per_txn`` is the layer's summed self time in the
timed section divided by the transactions committed there.  Counts that
the program keeps itself (WAL bytes, fsyncs, plan-cache hits, commit
kinds, admission accounting) are read from its public counters over the
untraced counter window, so they repeat exactly for a seed.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence

from bench.stats import percentile
from bench.trace import RECOVERY, Tracer, nearest, self_times, targets

#: every per-layer metric: (name, unit, which way is better)
PER_LAYER = (
    ("client.self_us_per_txn", "us", "lower"),
    ("sql.parse_calls", "count", "lower"),
    ("sql.parse_us_per_call", "us", "lower"),
    ("compiler.compile_calls", "count", "lower"),
    ("database.plan_cache_hit_ratio", "ratio", "higher"),
    ("database.execute_calls_per_txn", "count", "lower"),
    ("database.execute_self_us_per_txn", "us", "lower"),
    ("database.commit_self_us_per_txn", "us", "lower"),
    ("executor.self_us_per_txn", "us", "lower"),
    ("locks.acquire_calls_per_txn", "count", "lower"),
    ("locks.self_us_per_txn", "us", "lower"),
    ("locks.waits", "count", "lower"),
    ("locks.deadlocks", "count", "lower"),
    ("database.vacuum_runs", "count", "lower"),
    ("database.vacuum_ms_total", "ms", "lower"),
    ("database.vacuum_max_ms", "ms", "lower"),
    ("wal.append_calls_per_txn", "count", "lower"),
    ("wal.append_self_us_per_txn", "us", "lower"),
    ("wal.bytes_per_txn", "B", "lower"),
    ("wal.fsyncs_per_txn", "count", "lower"),
    ("wal.records_retained", "count", "lower"),
    ("recovery.redo_records", "count", "lower"),
    ("recovery.undo_records", "count", "lower"),
    ("recovery.us_per_record", "us", "lower"),
    ("router.route_calls_per_txn", "count", "lower"),
    ("router.self_us_per_txn", "us", "lower"),
    ("router.single_shard_ratio", "ratio", "higher"),
    ("fleet.execute_self_us_per_txn", "us", "lower"),
    ("fleet.fanout_ratio", "ratio", "lower"),
    ("coordinator.commit_self_us_per_txn", "us", "lower"),
    ("coordinator.cross_commit_ratio", "ratio", "lower"),
    ("coordinator.fsyncs_per_cross_commit", "count", "lower"),
    ("wire.encode_us_per_frame", "us", "lower"),
    ("wire.decode_us_per_frame", "us", "lower"),
    ("wire.frames_per_txn", "count", "lower"),
    ("wire.bytes_per_txn", "B", "lower"),
    ("serveclient.self_us_per_txn", "us", "lower"),
    ("server.statements_per_txn", "count", "lower"),
    ("server.residual_us_per_request", "us", "lower"),
    ("admission.wait_us_p50", "us", "lower"),
    ("admission.wait_us_p99", "us", "lower"),
    ("admission.peak_queue_depth", "count", "lower"),
    ("admission.shed_ratio", "ratio", "lower"),
    ("server.shed", "count", "lower"),
    ("server.expired", "count", "lower"),
    ("loadgen.late_p99_us", "us", "lower"),
    ("loadgen.slo_miss_ratio", "ratio", "lower"),
    ("loadgen.host_slowdown", "ratio", "lower"),
    ("trace.residual_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: layers whose wrappers must have fired, by tier
_EXPECTED = {
    "inline": ("client", "database", "txn", "executor", "locks", "wal"),
    "fleet": ("client", "database", "txn", "executor", "locks", "wal",
              "router", "fleet", "coordinator"),
    "socket": ("database", "txn", "executor", "locks", "wal", "router",
               "fleet", "coordinator", "wire", "serveclient", "server",
               "admission"),
}
_EXPECTED["open"] = _EXPECTED["socket"]


class Summary:
    """Count, self time and duration per span name, for one phase."""

    def __init__(self, names: Sequence[str]):
        self._names = names
        self._rows: Dict[int, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])

    def add(self, name_id: int, self_s: float, dur_s: float) -> None:
        row = self._rows[name_id]
        row[0] += 1
        row[1] += self_s
        row[2] += dur_s

    def _pick(self, column: int, names: Sequence[str]) -> float:
        total = 0.0
        for name_id, row in self._rows.items():
            name = self._names[name_id]
            if any(name == n or name.startswith(n + ".") for n in names):
                total += row[column]
        return total

    def total_self_s(self) -> float:
        return sum(row[1] for row in self._rows.values())

    def count(self, *names: str) -> int:
        return int(self._pick(0, names))

    def self_s(self, *names: str) -> float:
        return self._pick(1, names)

    def dur_s(self, *names: str) -> float:
        return self._pick(2, names)


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def layer_metrics(
    tracer: Tracer,
    tier: str,
    committed: int,
    timed_cpu_s: float,
    slowdown: float,
    window: Dict[str, float],
    window_txns: int,
    program: Dict[str, float],
    reports: Sequence[Any],
    recover_s: float,
    late_s: Sequence[float],
    slo_missed: int,
    attempted: int,
    untraced_us_per_txn: float,
    traced_us_per_txn: float,
) -> tuple:
    """``(metrics, errors)``: every per-layer metric by name, and what
    the wrapper-reach guard found wrong.

    Times come from the whole traced section, over the ``committed``
    transactions in it, divided by ``slowdown`` (the host's speed
    relative to nominal, see :mod:`bench.run`); queueing times --
    admission wait, generator lateness -- are left as measured.  Counts
    come from the counter window (transactions ``0 .. window_txns``),
    which is the same work in every run of a seed, so they repeat
    exactly.  ``window`` holds the program's counter differences over
    the untraced counter window (``*_end`` keys: absolute values at its
    end); ``program`` the traced phase's cumulative counters just before
    the crash, for the guard to compare span counts with.
    """
    spans = [span for span in tracer.spans if span is not None]
    errors: List[str] = []
    if len(spans) != len(tracer.spans):
        errors.append("a span was opened and never closed")
    names = tracer.names
    ids = {name: index for index, name in enumerate(names)}
    selfs = self_times(spans)
    timed, counted, before_crash, everything = (Summary(names) for _ in range(4))
    in_window: List[int] = []
    waits_us: List[float] = []
    vacuums: List[float] = []
    root_s = 0.0
    served = 0
    ready_id, vacuum_id, frame_id = (
        ids["admission.next_ready"], ids["database.vacuum"],
        ids["server.execute_frame"],
    )
    for index, (name_id, parent, txn, start, end, extra) in enumerate(spans):
        everything.add(name_id, selfs[index], end - start)
        if txn != RECOVERY:
            before_crash.add(name_id, selfs[index], end - start)
            if name_id == frame_id and extra in ("execute", "query"):
                served += 1
        if txn >= 0:
            timed.add(name_id, selfs[index], end - start)
            if parent < 0:
                root_s += end - start
            if txn < window_txns:
                counted.add(name_id, selfs[index], end - start)
                in_window.append(index)
            if name_id == ready_id and extra is not None:
                waits_us.append(extra * 1e6)
            elif name_id == vacuum_id:
                vacuums.append(end - start)

    def us(seconds: float) -> float:
        return seconds * 1e6 / slowdown

    def per_txn(seconds: float) -> float:
        return _ratio(us(seconds), committed)

    def calls_per_txn(*span_names: str) -> float:
        return _ratio(counted.count(*span_names), window_txns)

    def extras(name: str) -> List[Any]:
        return [spans[i][5] for i in in_window if spans[i][0] == ids[name]]

    # a statement fanned out if it ran on more than one shard; a commit
    # crossed shards if it committed more than one branch
    fleet_id, db_id = ids["fleet.execute"], ids["database.execute"]
    coord_id, commit_id, fsync_id = (
        ids["coordinator.commit"], ids["txn.commit"], ids["wal.fsync"]
    )
    shards_hit: Dict[int, int] = defaultdict(int)
    branches: Dict[int, int] = defaultdict(int)
    fsyncs_under: Dict[int, int] = defaultdict(int)
    for index in in_window:
        name_id = spans[index][0]
        if name_id == db_id:
            shards_hit[nearest(spans, index, fleet_id)] += 1
        elif name_id == commit_id:
            branches[nearest(spans, index, coord_id)] += 1
        elif name_id == fsync_id:
            fsyncs_under[nearest(spans, index, coord_id)] += 1
    shards_hit.pop(-1, None)
    crossed = [index for index, n in branches.items() if index >= 0 and n > 1]

    granted = extras("locks.acquire")
    routed = extras("router.route_prepared")
    scanned = sum(report.records_scanned for report in reports)
    # CPU, not wall: the open loop idles between arrivals
    residual_s = timed_cpu_s - root_s

    metrics = {
        "client.self_us_per_txn": per_txn(timed.self_s("client")),
        "sql.parse_calls": everything.count("sql.parse"),
        "sql.parse_us_per_call": _ratio(
            us(everything.dur_s("sql.parse")), everything.count("sql.parse")),
        "compiler.compile_calls": everything.count("compiler.compile_statement"),
        "database.plan_cache_hit_ratio": _ratio(
            window["plan_hits"], window["plan_hits"] + window["plan_misses"]),
        "database.execute_calls_per_txn": calls_per_txn("database.execute"),
        "database.execute_self_us_per_txn": per_txn(timed.self_s(
            "database.execute", "database.query", "database.prepare",
            "database.begin")),
        "database.commit_self_us_per_txn": per_txn(timed.self_s("txn.commit")),
        "executor.self_us_per_txn": per_txn(timed.self_s("executor")),
        "locks.acquire_calls_per_txn": calls_per_txn("locks.acquire"),
        "locks.self_us_per_txn": per_txn(timed.self_s("locks")),
        "locks.waits": sum(1 for ok in granted if not ok),
        "locks.deadlocks": window["deadlocks"],
        "database.vacuum_runs": window["vacuum_runs"],
        "database.vacuum_ms_total": us(sum(vacuums)) / 1e3,
        "database.vacuum_max_ms": us(max(vacuums, default=0.0)) / 1e3,
        "wal.append_calls_per_txn": calls_per_txn("wal.append"),
        "wal.append_self_us_per_txn": per_txn(timed.self_s("wal.append")),
        "wal.bytes_per_txn": _ratio(window["wal_bytes"], window_txns),
        "wal.fsyncs_per_txn": _ratio(window["fsyncs"], window_txns),
        "wal.records_retained": window["wal_retained_end"],
        "recovery.redo_records": sum(r.records_redone for r in reports),
        "recovery.undo_records": sum(r.records_undone for r in reports),
        "recovery.us_per_record": _ratio(recover_s * 1e6, scanned),
        "router.route_calls_per_txn": calls_per_txn("router.route_prepared"),
        "router.self_us_per_txn": per_txn(timed.self_s("router")),
        "router.single_shard_ratio": _ratio(sum(map(bool, routed)), len(routed)),
        "fleet.execute_self_us_per_txn": per_txn(timed.self_s(
            "fleet.execute", "fleet.query", "fleet.begin")),
        "fleet.fanout_ratio": _ratio(
            sum(1 for n in shards_hit.values() if n > 1), len(shards_hit)),
        "coordinator.commit_self_us_per_txn": per_txn(
            timed.self_s("coordinator.commit")),
        "coordinator.cross_commit_ratio": _ratio(
            window.get("cross_commits", 0),
            window.get("cross_commits", 0) + window.get("single_commits", 0)),
        "coordinator.fsyncs_per_cross_commit": _ratio(
            sum(fsyncs_under[index] for index in crossed), len(crossed)),
        "wire.encode_us_per_frame": _ratio(
            us(timed.dur_s("wire.encode_frame")), timed.count("wire.encode_frame")),
        "wire.decode_us_per_frame": _ratio(
            us(timed.dur_s("wire.decode_body")), timed.count("wire.decode_body")),
        "wire.frames_per_txn": calls_per_txn("wire.encode_frame"),
        "wire.bytes_per_txn": _ratio(sum(extras("wire.encode_frame")), window_txns),
        "serveclient.self_us_per_txn": per_txn(timed.self_s("serveclient")),
        "server.statements_per_txn": _ratio(
            window.get("server_statements", 0), window_txns),
        # what is left of a request once every span is subtracted:
        # asyncio, the kernel's loopback and task switches
        "server.residual_us_per_request": _ratio(
            us(residual_s), timed.count("server.execute_frame")),
        "admission.wait_us_p50": percentile(waits_us, 0.5) if waits_us else 0.0,
        "admission.wait_us_p99": percentile(waits_us, 0.99) if waits_us else 0.0,
        "admission.peak_queue_depth": window.get("peak_queue_depth_end", 0),
        "admission.shed_ratio": _ratio(
            window.get("admission_shed", 0),
            window.get("admission_shed", 0) + window.get("admitted", 0)),
        "server.shed": window.get("server_shed", 0),
        "server.expired": window.get("server_expired", 0),
        "loadgen.late_p99_us": percentile(late_s, 0.99) * 1e6 if late_s else 0.0,
        "loadgen.slo_miss_ratio": _ratio(slo_missed, attempted),
        "loadgen.host_slowdown": slowdown,
        "trace.residual_share": _ratio(residual_s, timed_cpu_s),
        "trace.overhead_ratio": _ratio(traced_us_per_txn, untraced_us_per_txn),
    }

    # -- wrapper-reach guard -------------------------------------------------
    for layer in _EXPECTED[tier]:
        if not timed.count(layer):
            errors.append(f"no {layer}.* span in the timed section")
    self_total = timed.total_self_s()
    if abs(self_total - root_s) > 0.01 * max(root_s, 1e-9):
        errors.append(
            f"self times sum to {self_total:.6f}s but root spans cover "
            f"{root_s:.6f}s: spans do not nest"
        )
    for what, seen, said in (
        ("wal.append", before_crash.count("wal.append"), program["wal_records"]),
        ("wal.fsync", before_crash.count("wal.fsync"), program["fsyncs"]),
        ("database.vacuum", before_crash.count("database.vacuum"),
         program["vacuum_runs"]),
        ("coordinator.commit", before_crash.count("coordinator.commit"),
         program.get("single_commits", 0) + program.get("cross_commits", 0)),
        ("server statement", served, program.get("server_statements", 0)),
    ):
        if seen != said:
            errors.append(f"{seen} {what} spans but the program counted {said}")
    return metrics, errors


def leftover_wrappers(tracer: Tracer) -> List[str]:
    """Wrapped functions still in place after ``uninstall`` (should be none)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _hooks in targets(tracer)
        if hasattr(getattr(owner, attr), "__wrapped__")
    ]
