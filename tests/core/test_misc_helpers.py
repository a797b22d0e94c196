"""Coverage for the remaining small helpers across packages."""

import pytest

from repro.core.datagen import load_sales_database
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema


def small_db():
    db = Database("misc")
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    for k in range(1, 6):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k * 2])
    return db


class TestDatabaseHelpers:
    def test_total_rows(self):
        assert small_db().total_rows() == 5

    def test_table_lookup_case_insensitive(self):
        db = small_db()
        assert db.table("kv") is db.table("KV")

    def test_txn_read_write_counters(self):
        db = small_db()
        with db.begin() as txn:
            db.execute("SELECT V FROM kv WHERE K = ?", [1], txn=txn)
            db.execute("UPDATE kv SET V = ? WHERE K = ?", [9, 1], txn=txn)
            assert txn.reads >= 1
            assert txn.writes == 1


class TestWorkloadManagerEdges:
    def test_worker_seeds_differ(self):
        db, _ = load_sales_database(row_scale=0.001)
        from repro.core.manager import WorkloadManager
        from repro.core.workload import READ_WRITE

        manager = WorkloadManager(db, READ_WRITE, concurrency=3)
        keys = {id(worker._rng) for worker in manager.workers}
        assert len(keys) == 3
        # distinct seeds -> distinct first draws for at least one pair
        draws = [worker._rng.random() for worker in manager.workers]
        assert len(set(draws)) > 1


class TestSparklineAndTables:
    def test_sparkline_downsamples(self):
        from repro.core.report import sparkline

        line = sparkline(list(range(200)), width=20)
        assert 0 < len(line) <= 25

    def test_text_table_mixed_types(self):
        from repro.core.report import TextTable

        table = TextTable(["a", "b", "c"])
        table.add_row("x", 0.00012345, 1_234_567.0)
        rendered = table.render()
        assert "0.0001235" in rendered or "0.0001234" in rendered
        assert "1,234,567" in rendered


class TestCollectorEdges:
    def test_cost_between_empty(self):
        from repro.core.collector import PerformanceCollector

        collector = PerformanceCollector()
        assert collector.cost_between(0.0, 10.0) == 0.0
        assert collector.peak_tps() == 0.0

    def test_summary_window_subset(self):
        from repro.core.collector import PerformanceCollector

        collector = PerformanceCollector()
        for t in range(10):
            collector.record(float(t), tps=float(t), cost_delta=1.0)
        summary = collector.summary(5.0, 9.0)
        assert summary.avg_tps == pytest.approx(6.5)  # avg of 5..8 step fn
