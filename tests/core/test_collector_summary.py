"""Regression tests: CollectorSummary on empty collectors and
degenerate windows returns a well-defined zeroed summary."""

from repro.core.collector import CollectorSummary, PerformanceCollector


def test_empty_collector_summary_is_zeroed():
    collector = PerformanceCollector()
    summary = collector.summary(0.0, 10.0)
    assert summary == CollectorSummary.zeroed(0.0, 10.0)
    assert summary.avg_tps == 0.0
    assert summary.peak_tps == 0.0
    assert summary.total_cost == 0.0


def test_zero_length_window_summary_is_zeroed():
    collector = PerformanceCollector()
    collector.record(0.0, 100.0, vcores=2.0, memory_gb=4.0, cost_delta=0.1)
    collector.record(10.0, 200.0, vcores=4.0, memory_gb=8.0, cost_delta=0.2)
    summary = collector.summary(5.0, 5.0)
    assert summary == CollectorSummary.zeroed(5.0, 5.0)
    # the degenerate window must not leak the global peak
    assert summary.peak_tps == 0.0


def test_inverted_window_summary_is_zeroed():
    collector = PerformanceCollector()
    collector.record(0.0, 100.0, cost_delta=0.5)
    summary = collector.summary(8.0, 3.0)
    assert summary == CollectorSummary.zeroed(8.0, 3.0)
    # inverted windows must not produce negative cost
    assert collector.cost_between(8.0, 3.0) == 0.0


def test_normal_window_unaffected():
    collector = PerformanceCollector()
    collector.record(0.0, 100.0, vcores=2.0, cost_delta=0.0)
    collector.record(10.0, 100.0, vcores=2.0, cost_delta=1.0)
    summary = collector.summary(0.0, 10.0)
    assert summary.avg_tps == 100.0
    assert summary.peak_tps == 100.0
    assert summary.total_cost == 1.0


def test_events_note_and_order():
    collector = PerformanceCollector()
    collector.note(3.0, "scale_up: 1 -> 4 vcores")
    collector.note(9.0, "scale_down: 4 -> 2 vcores")
    assert collector.events == [
        (3.0, "scale_up: 1 -> 4 vcores"),
        (9.0, "scale_down: 4 -> 2 vcores"),
    ]
