"""Metrics registry correctness: counters, gauges, histograms.

The histogram percentile tests compare against an exact nearest-rank
oracle over the sorted samples; the fixed-bucket estimate must land
within one bucket of the truth (the bucket ratio is ~1.78).
"""

import math
import random

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

#: consecutive default bounds are a factor ~1.78 apart, so a bucketed
#: percentile can be off by at most that ratio on either side
BUCKET_RATIO = 1.79


def exact_percentile(samples, pct):
    """Nearest-rank percentile on the raw samples (the oracle)."""
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(0, min(len(ordered) - 1, rank - 1))]


def test_counter_monotonic():
    counter = Counter("x")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1.0)


def test_gauge_last_write_wins():
    gauge = Gauge("g")
    gauge.set(10.0)
    gauge.inc(5.0)
    gauge.dec()
    assert gauge.value == 14.0


def test_histogram_basic_stats():
    hist = Histogram("h")
    for value in (0.001, 0.002, 0.004):
        hist.observe(value)
    assert hist.count == 3
    assert hist.min == 0.001
    assert hist.max == 0.004
    assert hist.mean == pytest.approx(0.007 / 3)


def test_histogram_rejects_bad_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=())
    with pytest.raises(ValueError):
        Histogram("h", bounds=(2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", bounds=(1.0, 1.0))


def test_percentile_bounds_checked():
    hist = Histogram("h")
    with pytest.raises(ValueError):
        hist.percentile(0.0)
    with pytest.raises(ValueError):
        hist.percentile(101.0)
    assert hist.percentile(99.0) == 0.0  # empty histogram is all zeros


def test_percentiles_track_exact_oracle_on_seeded_samples():
    rng = random.Random(20260806)
    # log-uniform latencies across four decades, like real tail data
    samples = [10.0 ** rng.uniform(-5.0, -1.0) for _ in range(5000)]
    hist = Histogram("lat")
    for value in samples:
        hist.observe(value)
    for pct in (50.0, 90.0, 99.0, 99.9):
        oracle = exact_percentile(samples, pct)
        estimate = hist.percentile(pct)
        assert oracle / BUCKET_RATIO <= estimate <= oracle * BUCKET_RATIO, (
            f"p{pct}: estimate {estimate} vs oracle {oracle}"
        )


def test_percentile_clamps_to_observed_range():
    hist = Histogram("h")
    for _ in range(100):
        hist.observe(0.0042)  # all mass in one bucket
    assert hist.percentile(50.0) == pytest.approx(0.0042)
    assert hist.percentile(99.9) == pytest.approx(0.0042)


def test_percentile_overflow_bucket():
    hist = Histogram("h", bounds=(1.0, 2.0))
    hist.observe(50.0)
    hist.observe(60.0)
    estimate = hist.percentile(99.0)
    assert 2.0 <= estimate <= 60.0


def test_merge_is_associative():
    rng = random.Random(7)
    chunks = [
        [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(400)] for _ in range(3)
    ]

    def hist_of(values):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        return hist

    # (a + b) + c
    left = hist_of(chunks[0])
    left.merge(hist_of(chunks[1]))
    left.merge(hist_of(chunks[2]))
    # a + (b + c)
    tail = hist_of(chunks[1])
    tail.merge(hist_of(chunks[2]))
    right = hist_of(chunks[0])
    right.merge(tail)
    # and the single-pass reference
    flat = hist_of([value for chunk in chunks for value in chunk])

    for other in (right, flat):
        assert left.bucket_counts == other.bucket_counts
        assert left.count == other.count
        assert left.sum == pytest.approx(other.sum)
        assert left.min == other.min
        assert left.max == other.max
        for pct in (50.0, 90.0, 99.0):
            assert left.percentile(pct) == pytest.approx(other.percentile(pct))


def test_merge_requires_identical_bounds():
    a = Histogram("a", bounds=(1.0, 2.0))
    b = Histogram("b", bounds=(1.0, 3.0))
    with pytest.raises(ValueError):
        a.merge(b)


def test_registry_get_or_create_and_merge():
    registry = MetricsRegistry()
    registry.counter("c").inc(3.0)
    registry.gauge("g").set(1.5)
    registry.histogram("h").observe(0.01)
    assert registry.counter("c") is registry.counter("c")

    other = MetricsRegistry()
    other.counter("c").inc(2.0)
    other.gauge("g").set(9.0)
    other.histogram("h").observe(0.02)
    registry.merge(other)
    assert registry.counter("c").value == 5.0
    assert registry.gauge("g").value == 9.0
    assert registry.histogram("h").count == 2


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("txn.commit").inc(7.0)
    registry.histogram("lat").observe(0.005)
    snap = registry.snapshot()
    assert snap["counters"]["txn.commit"] == 7.0
    lat = snap["histograms"]["lat"]
    assert lat["count"] == 1.0
    for key in ("mean", "min", "max", "p50", "p90", "p99", "p999"):
        assert key in lat
    # empty histograms report count/mean only, no bogus min/max
    registry.histogram("empty")
    snap = registry.snapshot()
    assert snap["histograms"]["empty"] == {"count": 0.0, "mean": 0.0}


def test_default_bounds_are_sane():
    assert list(DEFAULT_LATENCY_BOUNDS) == sorted(DEFAULT_LATENCY_BOUNDS)
    assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-6)
    assert DEFAULT_LATENCY_BOUNDS[-1] > 100.0
