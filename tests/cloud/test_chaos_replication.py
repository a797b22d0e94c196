"""Chaos wired into the cloud DES: replication under faults."""

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.cloud.architectures import cdb1, cdb3
from repro.cloud.replication import ReplicationPipeline
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
