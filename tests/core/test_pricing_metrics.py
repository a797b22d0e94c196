"""Tests for the RUC pricing model and the PERFECT metrics."""

import math

import pytest

from repro.cloud.architectures import all_architectures, aws_rds, cdb2, cdb4
from repro.core.metrics import (
    PerfectScores,
    e2_score,
    o_score,
    p_score_actual,
    scale_out_tps,
)
from repro.core.pricing import (
    CPU_VCORE_HOUR,
    IOPS_100_HOUR,
    MEMORY_GB_HOUR,
    RDMA_GBPS_HOUR,
    RUC_TABLE,
    STORAGE_GB_HOUR,
    TCP_GBPS_HOUR,
    actual_cost,
    allocation_cost,
    package_cost_breakdown_per_minute,
    package_cost_per_hour,
    package_cost_per_minute,
)
from repro.core.workload import READ_WRITE


def test_table_iii_unit_prices():
    assert CPU_VCORE_HOUR == 0.1847
    assert MEMORY_GB_HOUR == 0.0095
    assert STORAGE_GB_HOUR == 0.000853
    assert IOPS_100_HOUR == 0.00015
    assert TCP_GBPS_HOUR == 0.07696
    assert RDMA_GBPS_HOUR == 0.23088
    assert len(RUC_TABLE) == 6


def test_rds_package_matches_table_v_breakdown():
    """The paper's Table V per-minute costs for AWS RDS."""
    package = aws_rds().provisioned
    breakdown = package_cost_breakdown_per_minute(package)
    assert breakdown["cpu"] == pytest.approx(0.0123, abs=2e-4)
    assert breakdown["memory"] == pytest.approx(0.0025, abs=1e-4)
    assert breakdown["storage"] == pytest.approx(0.0006, abs=1e-4)
    assert breakdown["iops"] == pytest.approx(0.000025, abs=5e-6)
    assert breakdown["network"] == pytest.approx(0.0128, abs=2e-4)


def test_cdb4_rdma_network_is_3x_tcp():
    package = cdb4().provisioned
    breakdown = package_cost_breakdown_per_minute(package)
    assert breakdown["network"] == pytest.approx(3 * 0.0128, rel=0.01)


def test_cost_per_minute_is_hour_over_60():
    package = aws_rds().provisioned
    assert package_cost_per_minute(package) == pytest.approx(
        package_cost_per_hour(package) / 60.0
    )


def test_allocation_cost_scales_with_duration():
    one = allocation_cost(4, 16, iops=1000, duration_s=60)
    ten = allocation_cost(4, 16, iops=1000, duration_s=600)
    assert ten == pytest.approx(10 * one)


def test_actual_cost_applies_billing_minimum():
    arch = aws_rds()
    short = actual_cost(arch.pricing, arch.provisioned, duration_s=60)
    minimum = actual_cost(arch.pricing, arch.provisioned, duration_s=600)
    assert short == pytest.approx(minimum)  # billed >= 10 minutes
    longer = actual_cost(arch.pricing, arch.provisioned, duration_s=1200)
    assert longer == pytest.approx(2 * minimum)


def test_elastic_pool_bills_hourly():
    arch = cdb2()
    assert arch.pricing.min_billing_s == 3600.0
    penalised = actual_cost(arch.pricing, arch.provisioned, duration_s=300)
    fair = actual_cost(arch.pricing, arch.provisioned, duration_s=3600)
    assert penalised == pytest.approx(fair)


class TestScores:
    def test_p_score_actual_penalises_billing_minimum(self):
        arch = aws_rds()
        starred = p_score_actual(12_000, arch, arch.provisioned, duration_s=60)
        normal = 12_000 / package_cost_per_minute(arch.provisioned)
        assert starred < normal

    def test_scale_out_adds_read_capacity(self):
        arch = aws_rds()
        mix = READ_WRITE.to_workload_mix(1)
        base = scale_out_tps(arch, mix, 150, 0)
        one = scale_out_tps(arch, mix, 150, 1)
        two = scale_out_tps(arch, mix, 150, 2)
        assert base < one < two
        # linear in replicas under this model
        assert two - one == pytest.approx(one - base)

    def test_e2_rank_rds_highest(self):
        """Paper: RDS has the highest E2 (local SSD replicas)."""
        mix = READ_WRITE.to_workload_mix(1)
        scores = {arch.name: e2_score(arch, mix) for arch in all_architectures()}
        assert max(scores, key=scores.get) == "aws_rds"
        assert min(scores, key=scores.get) == "cdb1"

    def test_o_score_formula(self):
        value = o_score(p=1e5, t=8e4, e1=6e4, e2=10, r_s=10, f_s=5, c_ms=20)
        expected = math.log10((1e5 * 8e4 * 6e4 * 10) / (10 * 5 * 20))
        assert value == pytest.approx(expected)

    def test_o_score_lower_with_worse_recovery(self):
        good = o_score(1e5, 8e4, 6e4, 10, r_s=3, f_s=3, c_ms=2)
        bad = o_score(1e5, 8e4, 6e4, 10, r_s=30, f_s=30, c_ms=200)
        assert good > bad

    def test_o_score_clamps_non_positive(self):
        # a system that never recovered gets a terrible, finite score
        value = o_score(1e5, 8e4, 6e4, 10, r_s=0, f_s=0, c_ms=0)
        assert math.isfinite(value)

    def test_perfect_scores_row_shape(self):
        scores = PerfectScores(
            arch_name="x", p=1e5, p_star=1e3, e1=5e4, e1_star=1e3,
            e2=10, r_s=10, f_s=5, c_ms=15, t=7e4, t_star=1e3,
        )
        row = scores.as_row()
        assert row[0] == "x"
        assert len(row) == 13
        assert scores.o > scores.o_star  # starred costs are higher here
