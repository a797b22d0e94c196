"""Chaos wired into the cloud DES: replication under faults, dirty
fail-over timelines."""

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.cloud.architectures import cdb1, cdb3
from repro.cloud.failure import FailoverSimulator
from repro.cloud.replication import ReplicationPipeline
from repro.core.workload import READ_WRITE
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.sim.events import Environment


def primary_db():
    db = Database("primary")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def chaotic_pipeline(*specs, arch_factory=cdb3):
    env = Environment()
    primary = primary_db()
    injector = ChaosInjector(FaultPlan(specs))
    pipeline = ReplicationPipeline(env, arch_factory(), primary, chaos=injector)
    return env, primary, pipeline


def visible(pipeline, key):
    """Real read against replica 0: is the probe row visible?"""
    return bool(pipeline.replicas[0].query("SELECT K FROM kv WHERE K = ?", [key]).rows)


# -- replication under chaos ---------------------------------------------------


def test_partition_holds_delivery_until_heal():
    env, primary, pipeline = chaotic_pipeline(
        FaultSpec(FaultKind.PARTITION, "replica:0", start_s=0.0, duration_s=5.0),
    )
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    env.run(until=4.9)
    assert not visible(pipeline, 1)       # severed link: nothing arrives
    env.run(until=6.0)
    assert visible(pipeline, 1)           # heals at 5.0, then ships + replays


def test_commits_during_partition_all_arrive_after_heal():
    env, primary, pipeline = chaotic_pipeline(
        FaultSpec(FaultKind.PARTITION, "replica:0", start_s=0.0, duration_s=3.0),
    )
    for key in range(1, 6):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key])
    env.run(until=10.0)
    assert pipeline.converged()
    assert all(visible(pipeline, key) for key in range(1, 6))


def test_delay_spike_stretches_visibility():
    def first_visible_at(specs):
        env, primary, pipeline = chaotic_pipeline(*specs, arch_factory=cdb1)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        step = 0.001
        t = step
        while t < 20.0:
            env.run(until=t)
            if visible(pipeline, 1):
                return t
            t += step
        return t

    clean = first_visible_at([])
    delayed = first_visible_at([
        FaultSpec(FaultKind.DELAY, "replica:0", start_s=0.0, duration_s=10.0,
                  intensity=1.0),
    ])
    assert delayed >= clean


def test_stall_parks_the_replayer():
    env, primary, pipeline = chaotic_pipeline(
        FaultSpec(FaultKind.STALL, "replica:0", start_s=0.0, duration_s=4.0),
    )
    primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
    env.run(until=3.9)
    assert not visible(pipeline, 1)       # batch arrived but replay is parked
    env.run(until=6.0)
    assert visible(pipeline, 1)


def test_gray_replica_replays_slower_but_converges():
    env, primary, pipeline = chaotic_pipeline(
        FaultSpec(FaultKind.GRAY, "replica:0", start_s=0.0, duration_s=30.0,
                  intensity=1.0),
    )
    for key in range(1, 20):
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, key])
    env.run(until=60.0)
    assert pipeline.converged()


# -- dirty fail-over timelines -------------------------------------------------


def simulator():
    return FailoverSimulator(cdb1(), READ_WRITE.to_workload_mix(1), concurrency=50)


def test_gray_fault_never_kills_service():
    sim = simulator()
    spec = FaultSpec(FaultKind.GRAY, "rw", start_s=10.0, duration_s=20.0,
                     intensity=0.8)
    result = sim.run_fault(spec)
    assert result.f_score_s == 0.0       # goodput never hit zero
    floor = min(tps for _t, tps in result.timeline)
    assert 0.0 < floor < sim.steady_tps
    assert result.tps_recovered_s > spec.end_s


def test_ro_partition_owes_catchup():
    sim = simulator()
    short = sim.run_fault(FaultSpec(
        FaultKind.PARTITION, "ro", start_s=10.0, duration_s=5.0))
    long = sim.run_fault(FaultSpec(
        FaultKind.PARTITION, "ro", start_s=10.0, duration_s=30.0))
    assert any(phase.name == "catchup" for phase in short.phases)
    # a longer partition accumulates a bigger backlog -> later recovery
    short_catchup = next(p for p in short.phases if p.name == "catchup")
    long_catchup = next(p for p in long.phases if p.name == "catchup")
    assert long_catchup.duration_s > short_catchup.duration_s
    # reads kept flowing through the primary the whole time
    assert min(tps for _t, tps in short.timeline) > 0.0


def test_rw_partition_is_a_full_outage_until_heal():
    sim = simulator()
    spec = FaultSpec(FaultKind.PARTITION, "rw", start_s=10.0, duration_s=8.0)
    result = sim.run_fault(spec)
    assert result.service_restored_s == spec.end_s
    assert result.f_score_s == pytest.approx(spec.duration_s)
    assert min(tps for _t, tps in result.timeline) == 0.0


def test_flap_alternates_outage_and_service():
    sim = simulator()
    spec = FaultSpec(FaultKind.FLAP, "rw", start_s=10.0, duration_s=8.0,
                     period_s=2.0)
    result = sim.run_fault(spec, tick_s=0.5)
    window = [tps for t, tps in result.timeline if 10.0 <= t < 18.0]
    assert min(window) == 0.0            # down half-periods
    assert max(window) == sim.steady_tps  # up half-periods


def test_crash_spec_delegates_to_restart_model():
    sim = simulator()
    spec = FaultSpec(FaultKind.CRASH, "rw", start_s=30.0, duration_s=0.0)
    via_fault = sim.run_fault(spec)
    via_run = sim.run(node="rw", inject_at_s=30.0)
    assert via_fault.service_restored_s == via_run.service_restored_s
    assert [phase.name for phase in via_fault.phases] == [
        phase.name for phase in via_run.phases
    ]


def test_wal_level_faults_are_rejected():
    sim = simulator()
    with pytest.raises(ValueError):
        sim.run_fault(FaultSpec(FaultKind.TORN_WRITE, "rw", start_s=0.0, duration_s=0.0))
    with pytest.raises(ValueError):
        sim.run_fault(FaultSpec(FaultKind.BIT_FLIP, "rw", start_s=0.0, duration_s=0.0))
