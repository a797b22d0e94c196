"""Tests for the props config, the manager, collector, report and runner."""

import pytest

from repro.core.collector import PerformanceCollector
from repro.core.config import BenchConfig
from repro.core.datagen import load_sales_database
from repro.core.manager import OltpResult, WorkloadManager
from repro.core.report import TextTable, sparkline
from repro.core.runner import CloudyBench
from repro.core.workload import READ_WRITE
from repro.serve.loadgen import LoadResult


class TestBenchConfig:
    def test_defaults_match_paper(self):
        config = BenchConfig()
        assert config.scale_factors == [1, 10, 100]
        assert config.concurrencies == [50, 100, 150, 200]
        assert config.architectures == ["aws_rds", "cdb1", "cdb2", "cdb3", "cdb4"]
        assert config.tenants == 3

    def test_from_nested_dict(self):
        config = BenchConfig.from_dict({
            "workload": {"scale_factors": [1], "distribution": "latest-10"},
            "elasticity": {"elastic_test_time": 4},
        })
        assert config.scale_factors == [1]
        assert config.distribution == "latest-10"
        assert config.elastic_test_time == 4

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            BenchConfig.from_dict({"workload": {"scale_facotrs": [1]}})

    def test_from_toml(self, tmp_path):
        props = tmp_path / "props.toml"
        props.write_text(
            """
[workload]
concurrencies = [25, 50]

[elasticity.custom_patterns]
double_peak = [0.0, 1.0, 0.2, 1.0, 0.0]
"""
        )
        config = BenchConfig.from_toml(props)
        assert config.concurrencies == [25, 50]
        assert config.custom_patterns["double_peak"] == [0.0, 1.0, 0.2, 1.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(architectures=[])
        with pytest.raises(ValueError):
            BenchConfig(scale_factors=[0])
        with pytest.raises(ValueError):
            BenchConfig(modes=["HTAP"])
        with pytest.raises(ValueError):
            BenchConfig(elastic_test_time=0)

    def test_quick_preset(self):
        config = BenchConfig.quick()
        assert config.scale_factors == [1]


class TestWorkloadManager:
    def test_functional_run_counts(self):
        db, _ = load_sales_database(row_scale=0.001)
        manager = WorkloadManager(db, READ_WRITE, concurrency=4)
        result = manager.run_transactions(200)
        assert result.transactions == 200
        assert sum(result.counts.values()) == 200 - result.aborted
        assert result.tps > 0

    def test_latency_recording(self):
        db, _ = load_sales_database(row_scale=0.001)
        manager = WorkloadManager(db, READ_WRITE, concurrency=2, record_latencies=True)
        result = manager.run_transactions(50)
        assert result.histogram.count == 50
        assert result.latency_percentile(50) <= result.latency_percentile(99)

    def test_median_of_one_to_five_ms_is_the_middle(self):
        # both result types answer from the shared Histogram: no
        # round-half-even rank (2.0 ms) and no upper median
        oltp = OltpResult(transactions=5, elapsed_s=1.0)
        load = LoadResult(connections=1)
        for ms in (1, 2, 3, 4, 5):
            oltp.histogram.observe(ms / 1000.0)
            load.histogram.observe(ms / 1000.0)
        assert 2.5 <= oltp.latency_percentile(50) * 1000.0 <= 3.5
        assert 2.5 <= load.histogram.percentile(50) * 1000.0 <= 3.5

    def test_invalid_inputs(self):
        db, _ = load_sales_database(row_scale=0.001)
        with pytest.raises(ValueError):
            WorkloadManager(db, READ_WRITE, concurrency=0)
        manager = WorkloadManager(db, READ_WRITE)
        with pytest.raises(ValueError):
            manager.run_transactions(0)


class TestCollector:
    def test_summary_window(self):
        collector = PerformanceCollector()
        for t in range(10):
            collector.record(float(t), tps=100.0, vcores=2.0,
                             memory_gb=8.0, cost_delta=0.01)
        summary = collector.summary(0.0, 9.0)
        assert summary.avg_tps == pytest.approx(100.0)
        assert summary.total_cost == pytest.approx(0.09, abs=0.02)

    def test_series_lookup(self):
        collector = PerformanceCollector()
        collector.record(0.0, tps=5.0)
        assert collector.series("tps").values == [5.0]
        with pytest.raises(KeyError):
            collector.series("nope")

    def test_events(self):
        collector = PerformanceCollector()
        collector.note(3.0, "failure injected")
        assert collector.events == [(3.0, "failure injected")]


class TestReport:
    def test_table_rendering(self):
        table = TextTable(["name", "value"], title="T")
        table.add_row("a", 1234.5)
        rendered = table.render()
        assert "T" in rendered
        assert "1,234" in rendered or "1234" in rendered
        assert rendered.count("\n") == 3  # title, header, separator, one row

    def test_row_arity_enforced(self):
        table = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_sparkline(self):
        line = sparkline([0, 1, 2, 3, 4])
        assert len(line) == 5
        assert line[0] == " " and line[-1] == "█"
        assert sparkline([]) == ""


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def bench(self):
        config = BenchConfig.quick()
        config.architectures = ["aws_rds", "cdb3"]
        config.measure_window_s = 300.0
        config.lag_transactions = 40
        config.lag_concurrency = 4
        return CloudyBench(config)

    def test_throughput_matrix_keys(self, bench):
        data = bench.run("throughput").payload
        assert ("aws_rds", 1, "RO", 50) in data
        assert len(data) == 2 * 1 * 3 * 2  # archs x sfs x modes x cons
        assert all(tps > 0 for tps in data.values())

    def test_pscore_rows(self, bench):
        rows = bench.run("pscore").payload
        assert [row.arch_name for row in rows] == ["aws_rds", "cdb3"]
        for row in rows:
            assert row.total_cost_per_minute > 0
            assert row.p_avg > 0

    def test_unknown_mode_rejected(self, bench):
        with pytest.raises(KeyError):
            bench.mix_for("HTAP")

    def test_elasticity_results_cached(self, bench):
        first = bench.run("elasticity").payload
        second = bench.run("elasticity").payload
        assert first is second
        assert set(first) == {"aws_rds", "cdb3"}

    def test_overall_scores_complete(self, bench):
        scores = bench.run("overall").payload
        for name, perfect in scores.items():
            assert perfect.p > 0
            assert perfect.e1 > 0
            assert perfect.e2 > 0
            assert perfect.f_s > 0
            assert perfect.r_s > 0
            assert perfect.c_ms > 0
            assert perfect.t > 0
            row = perfect.as_row()
            assert len(row) == 13

    def test_explicit_tau_override(self):
        config = BenchConfig.quick()
        config.architectures = ["cdb3"]
        config.elastic_tau = 110
        bench = CloudyBench(config)
        assert bench.elastic_tau("RW") == 110
