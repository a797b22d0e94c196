"""Percentiles, estimators and the self-time arithmetic."""

import pytest

from bench.stats import best_mean, percentile, quartile_spread
from bench.trace import Tracer, nearest, self_times


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_best_three_of_seven():
    trials = [10.0, 30.0, 11.0, 25.0, 12.0, 40.0, 50.0]
    assert best_mean(trials, 3, lower_is_better=True) == pytest.approx(11.0)
    assert best_mean(trials, 3, lower_is_better=False) == pytest.approx(40.0)


def test_quartile_spread_matches_the_drivers_rule():
    import statistics

    values = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    first, _mid, third = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((third - first) / 14.5)


def test_self_time_is_duration_minus_direct_children():
    # (name, parent, txn, start, end, extra): a root with two children,
    # the first of which has a child of its own
    spans = [
        (0, -1, 0, 0.0, 10.0, None),
        (1, 0, 0, 1.0, 5.0, None),
        (2, 1, 0, 2.0, 3.0, None),
        (1, 0, 0, 6.0, 8.0, None),
    ]
    assert self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    assert sum(self_times(spans)) == 10.0  # self times add up to the root
    assert nearest(spans, 2, 0) == 0
    assert nearest(spans, 2, 1) == 1
    assert nearest(spans, 0, 1) == -1


def test_tracer_records_nesting_and_uninstalls_completely():
    from repro.engine.database import Database
    from repro.engine.wal import WriteAheadLog

    from bench.layers import leftover_wrappers

    original = WriteAheadLog.__dict__["append"]
    tracer = Tracer()
    tracer.install()
    try:
        from repro.core.datagen import load_sales_database

        db, _ = load_sales_database(row_scale=0.001)
        tracer.txn = 0
        db.execute("SELECT O_ID FROM orders WHERE O_ID = ?", [1])
    finally:
        tracer.uninstall()
    assert WriteAheadLog.__dict__["append"] is original
    assert leftover_wrappers(tracer) == []
    assert not hasattr(Database.execute, "__wrapped__")
    spans = [span for span in tracer.spans if span[2] == 0]
    names = [tracer.names[span[0]] for span in spans]
    assert names[0] == "database.execute"
    assert {"database.begin", "executor.execute", "wal.append", "txn.commit"} <= set(names)
    root = tracer.spans.index(spans[0])
    assert all(span[1] >= root for span in spans[1:])  # all nested under it
    assert sum(self_times(tracer.spans)[root:]) == pytest.approx(
        spans[0][4] - spans[0][3]
    )
