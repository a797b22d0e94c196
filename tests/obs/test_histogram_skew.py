"""Histogram percentiles under extreme skew, and merging worker snapshots.

The open-loop replay leans on two histogram properties the basic tests do
not stress: percentile estimates must stay honest when the whole
distribution collapses into one bucket (a uniform service time, a
single sample, a bimodal knee), and folding per-worker / per-shard
registries into one must give the same answer regardless of merge
order -- otherwise two runs of the same benchmark could report
different tails purely from aggregation order.
"""

import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry


def hist_of(values, bounds=None):
    hist = Histogram("h", bounds=bounds)
    for value in values:
        hist.observe(value)
    return hist


# -- extreme skew --------------------------------------------------------------


class TestExtremeSkew:
    def test_single_sample_is_every_percentile(self):
        hist = hist_of([0.0042])
        for pct in (0.1, 50.0, 99.0, 99.9, 100.0):
            assert hist.percentile(pct) == pytest.approx(0.0042)

    def test_identical_values_collapse_to_one_bucket(self):
        # 10k observations of the same value: interpolation inside the
        # winning bucket must clamp to the observed value, not smear
        # across the bucket's width.
        hist = hist_of([0.003] * 10_000)
        assert sum(1 for c in hist.bucket_counts if c) == 1
        for pct in (50.0, 99.0, 99.9):
            assert hist.percentile(pct) == pytest.approx(0.003)

    def test_bimodal_tail_lands_in_the_high_mode(self):
        # 99% fast-path at ~1ms, 1% stalls at ~2s: the knee shape an
        # open-loop run produces around a failover.  p50 must sit in
        # the low mode and p999 in the high mode -- a mid-range answer
        # would mean the estimator invented latencies nobody observed.
        values = [0.001] * 9900 + [2.0] * 100
        hist = hist_of(values)
        assert hist.percentile(50.0) == pytest.approx(0.001)
        assert hist.percentile(99.9) == pytest.approx(2.0, rel=0.5)
        assert hist.percentile(99.9) >= 1.0

    def test_overflow_bucket_clamps_to_observed_max(self):
        hist = hist_of([0.5, 5.0, 500.0], bounds=(1.0, 10.0))
        assert hist.percentile(100.0) == 500.0
        assert hist.percentile(99.0) <= 500.0

    def test_all_mass_below_first_bound(self):
        hist = hist_of([1e-9] * 100, bounds=(1.0, 2.0))
        assert hist.percentile(50.0) == pytest.approx(1e-9)

    def test_skewed_percentiles_track_exact_oracle(self):
        # Pareto-ish skew: most samples tiny, a long tail.  Bucketed
        # estimates cannot be exact, but each percentile must land
        # within one bucket of the exact order statistic.
        rng = random.Random(11)
        values = [0.0005 * (1.0 / max(rng.random(), 1e-4)) for _ in range(5000)]
        hist = hist_of(values)
        exact = sorted(values)
        for pct in (50.0, 90.0, 99.0):
            oracle = exact[min(len(exact) - 1, int(pct / 100.0 * len(exact)))]
            estimate = hist.percentile(pct)
            index = next(
                i for i, b in enumerate(hist.bounds + (float("inf"),))
                if oracle <= b
            )
            low = hist.bounds[index - 1] if index > 0 else 0.0
            high = (
                hist.bounds[index] if index < len(hist.bounds) else hist.max
            )
            assert low <= estimate <= high


# -- merging worker / shard snapshots -----------------------------------------


class TestWorkerSnapshotMerge:
    def make_workers(self):
        """Three 'workers' with very different latency profiles, as the
        shard driver produces: one fast shard, one slow shard, one that
        saw a stall."""
        fast = MetricsRegistry()
        slow = MetricsRegistry()
        stalled = MetricsRegistry()
        for _ in range(1000):
            fast.histogram("txn.latency_s").observe(0.001)
            slow.histogram("txn.latency_s").observe(0.050)
        for _ in range(10):
            stalled.histogram("txn.latency_s").observe(3.0)
        for registry, n in ((fast, 1000), (slow, 1000), (stalled, 10)):
            registry.counter("txn.commit").inc(n)
        return fast, slow, stalled

    def merged(self, order):
        total = MetricsRegistry()
        for registry in order:
            total.merge(registry)
        return total

    def test_merge_order_is_irrelevant(self):
        fast, slow, stalled = self.make_workers()
        a = self.merged((fast, slow, stalled))
        b = self.merged((stalled, fast, slow))
        c = self.merged((slow, stalled, fast))
        ha = a.histogram("txn.latency_s")
        for other in (b, c):
            ho = other.histogram("txn.latency_s")
            assert ha.bucket_counts == ho.bucket_counts
            assert ha.count == ho.count
            assert ha.sum == pytest.approx(ho.sum)
            assert ha.min == ho.min and ha.max == ho.max
            for pct in (50.0, 99.0, 99.9):
                assert ha.percentile(pct) == ho.percentile(pct)
            assert a.counter("txn.commit").value == other.counter(
                "txn.commit"
            ).value

    def test_merged_tail_reflects_the_stalled_worker(self):
        fast, slow, stalled = self.make_workers()
        total = self.merged((fast, slow, stalled))
        hist = total.histogram("txn.latency_s")
        assert hist.count == 2010
        # the 10 stalls are ~0.5% of mass: invisible at p99 of the
        # merged view, unmistakable at p999
        assert hist.percentile(99.0) < 1.0
        assert hist.percentile(99.9) >= 1.0
        assert hist.max == 3.0

    def test_merge_into_empty_equals_copy(self):
        fast, _slow, _stalled = self.make_workers()
        total = MetricsRegistry()
        total.merge(fast)
        assert (
            total.histogram("txn.latency_s").bucket_counts
            == fast.histogram("txn.latency_s").bucket_counts
        )
