"""Every registered signal reaches every exporter.

The regression these tests pin: a metric that exists in the registry
but never shows up in an export is invisible to dashboards, and a
tracer that silently dropped spans looks identical to a quiet run.
The contract is *completeness* -- the Prometheus snapshot carries every
counter, gauge and histogram in the registry plus the tracer's own
recorded/dropped accounting -- and *eagerness*: hot
components register their series at construction, so a zero-traffic run
still exports the series (at zero) instead of omitting them.
"""

import io

from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.obs.export import _prom_name, metrics_to_prometheus, write_prometheus
from repro.obs.observer import Observer
from repro.qos.admission import PRIORITIES, AdmissionController, AdmissionPolicy
from repro.shard.coordinator import TxnCoordinator


def busy_observer():
    obs = Observer(clock=lambda: 0.0, trace_capacity=4)
    obs.count("engine.txn.commit", 3)
    obs.gauge("qos.limit", 8.0)
    obs.observe("repl.lag_s", 0.25)
    for index in range(9):  # capacity 4: forces drops
        obs.event(f"tick.{index}", "test", ts=float(index), track="test")
    return obs


# -- registry -> exporter diff ------------------------------------------------


class TestExportCompleteness:
    def test_prometheus_carries_every_registered_metric(self):
        obs = busy_observer()
        text = metrics_to_prometheus(obs.metrics, tracer=obs.tracer)
        exported = {
            line.split()[2] for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        registry = obs.metrics
        expected = (
            {_prom_name(name) + "_total" for name in registry.counters}
            | {_prom_name(name) for name in registry.gauges}
            | {_prom_name(name) for name in registry.histograms}
        )
        missing = expected - exported
        assert not missing, f"registered but not exported: {sorted(missing)}"

# -- tracer self-accounting ----------------------------------------------------


class TestTracerAccounting:
    def test_prometheus_exposes_recorded_and_dropped(self):
        obs = busy_observer()
        assert obs.tracer.dropped > 0  # the premise: the buffer overflowed
        text = metrics_to_prometheus(obs.metrics, tracer=obs.tracer)
        lines = dict(
            line.split() for line in text.splitlines()
            if not line.startswith("#") and "{" not in line
        )
        assert float(lines["tracer_spans_recorded_total"]) == obs.tracer.recorded
        assert float(lines["tracer_spans_dropped_total"]) == obs.tracer.dropped

    def test_registry_only_snapshot_omits_tracer_series(self):
        obs = busy_observer()
        text = metrics_to_prometheus(obs.metrics)
        assert "tracer_spans" not in text

    def test_write_prometheus_includes_tracer_for_observers(self, tmp_path):
        obs = busy_observer()
        text = write_prometheus(obs, str(tmp_path / "metrics.prom"))
        assert "tracer_spans_dropped_total" in text

# -- eager registration: series exist before any traffic ----------------------


class TestEagerRegistration:
    def test_plan_cache_counters_exist_before_first_prepare(self):
        obs = Observer(clock=lambda: 0.0)
        Database("db", observer=obs)
        for event in ("hit", "miss", "evict"):
            name = f"engine.sql.plan_cache.{event}"
            assert name in obs.metrics.counters
            assert obs.metrics.counters[name].value == 0.0

    def test_admission_depth_gauges_exist_per_priority(self):
        obs = Observer(clock=lambda: 0.0)
        AdmissionController(AdmissionPolicy(), observer=obs)
        for priority in range(PRIORITIES):
            assert f"qos.queue_depth.p{priority}" in obs.metrics.gauges

    def test_2pc_counters_exist_before_first_commit(self):
        obs = Observer(clock=lambda: 0.0)
        TxnCoordinator([Database("s0", observer=obs)], observer=obs)
        for event in ("prepare", "cross_shard", "abort", "dangling"):
            assert f"shard.2pc.{event}" in obs.metrics.counters

    def test_null_observer_registers_nothing(self):
        db = Database("db")
        db.create_table(Schema(
            "T", (Column("ID", ColumnType.INT, nullable=False),),
            primary_key="ID",
        ))
        db.prepare("SELECT * FROM t WHERE ID = ?")
        assert db._c_plan is None
        assert db.plan_cache_misses > 0  # plain attributes still count


# -- per-priority depth gauges track the queues --------------------------------


class TestPriorityDepthGauges:
    def test_gauges_follow_enqueue_and_pop(self):
        obs = Observer(clock=lambda: 0.0)
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=1.0, min_limit=1.0),
            observer=obs,
        )
        controller.try_acquire(now=0.0)  # saturate the limit
        controller.enqueue("a", now=0.0, priority=0)
        controller.enqueue("b", now=0.0, priority=1)
        controller.enqueue("c", now=0.0, priority=1)
        gauges = obs.metrics.gauges
        assert gauges["qos.queue_depth.p0"].value == 1.0
        assert gauges["qos.queue_depth.p1"].value == 2.0
        assert gauges["qos.queue_depth"].value == 3.0
        controller.release(now=0.1, latency_s=0.1)
        assert controller.next_ready(now=0.1).item == "a"
        assert gauges["qos.queue_depth.p0"].value == 0.0
        assert gauges["qos.queue_depth.p1"].value == 2.0
