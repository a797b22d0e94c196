"""Tests for the analytical throughput model and its paper-shaped effects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.architectures import all_architectures, aws_rds, cdb1, cdb2, cdb3, cdb4
from repro.cloud.mva_model import (
    cache_breakdown,
    estimate_throughput,
    hit_ratio,
    required_vcores,
)
from repro.cloud.specs import ComputeAllocation
from repro.core.workload import THROUGHPUT_PATTERNS

GIB = 2**30


def mix(mode="RW", sf=1, distribution="uniform"):
    return THROUGHPUT_PATTERNS[mode].to_workload_mix(sf, distribution=distribution)


class TestHitRatio:
    def test_uniform_linear(self):
        assert hit_ratio(50, 100) == pytest.approx(0.5)
        assert hit_ratio(200, 100) == 1.0
        assert hit_ratio(0, 100) == 0.0

    def test_empty_working_set_always_hits(self):
        assert hit_ratio(1, 0) == 1.0

    def test_hot_set_cached_first(self):
        # cache covers exactly the hot set: hot accesses all hit
        value = hit_ratio(10, 100, hot_fraction=0.9, hot_set_bytes=10)
        assert value == pytest.approx(0.9)

    def test_skew_beats_uniform(self):
        uniform = hit_ratio(10, 100)
        skewed = hit_ratio(10, 100, hot_fraction=0.9, hot_set_bytes=10)
        assert skewed > uniform

    @settings(max_examples=50, deadline=None)
    @given(
        cache=st.floats(min_value=0, max_value=1e9),
        ws=st.floats(min_value=1, max_value=1e9),
        hot_fraction=st.floats(min_value=0, max_value=1),
        hot_share=st.floats(min_value=0.01, max_value=1),
    )
    def test_property_bounds_and_monotonicity(self, cache, ws, hot_fraction, hot_share):
        hot_bytes = ws * hot_share
        value = hit_ratio(cache, ws, hot_fraction, hot_bytes)
        assert 0.0 <= value <= 1.0
        bigger = hit_ratio(cache * 2 + 1, ws, hot_fraction, hot_bytes)
        assert bigger >= value - 1e-12


class TestCacheBreakdown:
    def test_fractions_sum_to_one(self):
        for arch in all_architectures():
            for sf in (1, 10, 100):
                cb = cache_breakdown(arch, mix("RW", sf), arch.instance.max_allocation)
                total = cb.local + cb.second + cb.remote + cb.storage
                assert total == pytest.approx(1.0)

    def test_cdb4_remote_buffer_absorbs_sf100(self):
        arch = cdb4()
        cb = cache_breakdown(arch, mix("RO", 100), arch.instance.max_allocation)
        assert cb.remote > 0.2          # 24 GB pool matters at 20.8 GB
        assert cb.combined_hit > 0.99   # local+remote covers everything

    def test_small_buffer_misses_at_scale(self):
        arch = cdb2()
        cb = cache_breakdown(arch, mix("RO", 100), arch.instance.max_allocation)
        assert cb.storage > 0.8


class TestThroughputShapes:
    """The Figure 5 claims, asserted on the model."""

    def test_cdb4_has_highest_overall_throughput(self):
        averages = {}
        for arch in all_architectures():
            values = [
                estimate_throughput(arch, mix(mode, sf), con).tps
                for mode in ("RO", "RW", "WO")
                for sf in (1, 10, 100)
                for con in (50, 100, 150, 200)
            ]
            averages[arch.name] = sum(values) / len(values)
        assert max(averages, key=averages.get) == "cdb4"

    def test_rds_wins_rw_at_sf1_low_concurrency(self):
        rds = estimate_throughput(aws_rds(), mix("RW", 1), 100).tps
        for factory in (cdb1, cdb2, cdb3):
            assert rds > estimate_throughput(factory(), mix("RW", 1), 100).tps

    def test_rds_degrades_at_sf100_high_concurrency(self):
        rds = aws_rds()
        at_150 = estimate_throughput(rds, mix("RW", 100), 150).tps
        at_300 = estimate_throughput(rds, mix("RW", 100), 300).tps
        assert at_300 < at_150  # dirty-page flushing bites

    def test_cdb3_comparable_to_rds_at_sf100_high_concurrency(self):
        ratio = (
            estimate_throughput(cdb3(), mix("RW", 100), 200).tps
            / estimate_throughput(aws_rds(), mix("RW", 100), 200).tps
        )
        assert 0.6 < ratio < 1.2

    def test_cdb2_throughput_is_bounded(self):
        arch = cdb2()
        tps = [estimate_throughput(arch, mix("RO", 1), con).tps
               for con in (50, 100, 200, 400)]
        assert max(tps) < 12_500  # paper: no more than 11863 on RO
        assert tps[-1] <= tps[-2] * 1.05  # plateau

    def test_cdb3_beats_cdb1_on_average(self):
        def avg(arch):
            return sum(
                estimate_throughput(arch, mix(mode, sf), 150).tps
                for mode in ("RO", "RW", "WO") for sf in (1, 10, 100)
            ) / 9
        assert avg(cdb3()) > avg(cdb1())

    def test_throughput_monotone_until_saturation(self):
        arch = aws_rds()
        tps_50 = estimate_throughput(arch, mix("RO", 1), 50).tps
        tps_100 = estimate_throughput(arch, mix("RO", 1), 100).tps
        assert tps_100 >= tps_50

    def test_zero_concurrency_and_paused(self):
        arch = cdb3()
        assert estimate_throughput(arch, mix("RW", 1), 0).tps == 0.0
        paused = estimate_throughput(
            arch, mix("RW", 1), 50, ComputeAllocation(0, 0)
        )
        assert paused.tps == 0.0

    def test_negative_concurrency_rejected(self):
        with pytest.raises(ValueError):
            estimate_throughput(aws_rds(), mix(), -1)

    def test_skewed_access_raises_hit_ratio(self):
        arch = cdb1()
        allocation = arch.instance.max_allocation
        uniform = cache_breakdown(arch, mix("RO", 100), allocation)
        skewed = cache_breakdown(arch, mix("RO", 100, distribution="latest-10"), allocation)
        assert skewed.combined_hit > uniform.combined_hit

    def test_buffer_override_moves_throughput(self):
        """The Figure 8 effect: growing CDB1's buffer raises its TPS."""
        arch = cdb1()
        small = estimate_throughput(arch, mix("RW", 10), 150,
                                    buffer_bytes=128 * 2**20).tps
        large = estimate_throughput(arch, mix("RW", 10), 150,
                                    buffer_bytes=10 * GIB).tps
        assert large > small * 1.1

    def test_more_vcores_more_throughput(self):
        arch = cdb3()
        small = estimate_throughput(arch, mix("RO", 1), 200, ComputeAllocation(1, 4)).tps
        large = estimate_throughput(arch, mix("RO", 1), 200, ComputeAllocation(4, 16)).tps
        assert large > small


class TestRequiredVcores:
    def test_zero_demand_needs_nothing(self):
        assert required_vcores(cdb3(), mix(), 0) == 0.0

    def test_small_demand_needs_minimum(self):
        arch = cdb3()
        assert required_vcores(arch, mix(), 1) == arch.instance.min_allocation.vcores

    def test_large_demand_hits_ceiling(self):
        arch = cdb3()
        assert required_vcores(arch, mix(), 10_000) == arch.instance.max_allocation.vcores

    def test_monotone_in_demand(self):
        arch = cdb2()
        previous = 0.0
        for demand in (1, 10, 30, 60, 120):
            current = required_vcores(arch, mix(), demand)
            assert current >= previous
            previous = current

    def test_pool_ceiling_override(self):
        arch = cdb2()
        capped = required_vcores(arch, mix(), 5000)
        pooled = required_vcores(arch, mix(), 5000, max_vcores=12.0)
        assert capped == 4.0
        assert pooled > capped
