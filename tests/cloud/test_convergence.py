"""Replication convergence via content hashing."""

from hypothesis import given, settings, strategies as st

from repro.cloud.architectures import cdb3, cdb4
from repro.cloud.replication import ReplicationPipeline
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.sim.events import Environment


def fresh(name="primary"):
    db = Database(name)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


class TestContentHash:
    def test_identical_content_same_hash(self):
        a, b = fresh("a"), fresh("b")
        for db in (a, b):
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20])
        assert a.content_hash() == b.content_hash()
        assert a.same_content(b)

    def test_hash_is_placement_independent(self):
        a, b = fresh("a"), fresh("b")
        a.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
        a.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20])
        # b reaches the same logical state via a different physical path
        b.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 20])
        b.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 9])
        b.execute("DELETE FROM kv WHERE K = ?", [9])
        b.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
        assert a.same_content(b)

    def test_different_content_different_hash(self):
        a, b = fresh("a"), fresh("b")
        a.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
        b.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 11])
        assert not a.same_content(b)

    def test_per_table_hash(self):
        a = fresh("a")
        a.create_table(Schema(
            "OTHER", (Column("O_ID", ColumnType.INT, nullable=False),),
            primary_key="O_ID",
        ))
        a.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 10])
        before = a.content_hash()
        a.execute("INSERT INTO other (O_ID) VALUES (?)", [1])
        assert a.content_hash() != before        # every table is hashed

    @settings(max_examples=30, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(1, 10), st.integers(-50, 50)),
            max_size=20, unique_by=lambda p: p[0],
        )
    )
    def test_property_hash_invariant_under_insert_order(self, pairs):
        a, b = fresh("a"), fresh("b")
        for k, v in pairs:
            a.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, v])
        for k, v in reversed(pairs):
            b.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, v])
        assert a.same_content(b)


class TestPipelineConvergence:
    def test_pipeline_converges_after_replay(self):
        env = Environment()
        primary = fresh()
        pipeline = ReplicationPipeline(env, cdb3(), primary, n_replicas=2)
        for k in range(1, 8):
            primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        primary.execute("UPDATE kv SET V = ? WHERE K = ?", [99, 3])
        primary.execute("DELETE FROM kv WHERE K = ?", [5])
        assert not pipeline.converged()   # replay still pending
        env.run(until=10.0)
        assert pipeline.converged()

    def test_convergence_detects_lag(self):
        env = Environment()
        primary = fresh()
        pipeline = ReplicationPipeline(env, cdb4(), primary, n_replicas=1)
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        env.run(until=5.0)
        assert pipeline.converged()
        primary.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2])
        assert not pipeline.converged()   # not yet shipped
        env.run(until=10.0)
        assert pipeline.converged()
