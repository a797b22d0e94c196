"""Tests for the elasticity patterns and evaluator (Fig. 6 / Table VI)."""

import pytest

from repro.cloud.architectures import aws_rds, cdb1, cdb2, cdb3
from repro.core.elasticity import (
    ELASTIC_PATTERNS,
    ElasticityEvaluator,
    custom_pattern,
)
from repro.core.workload import READ_WRITE


def mix():
    return READ_WRITE.to_workload_mix(1)


def evaluator(factory, window=420.0):
    return ElasticityEvaluator(factory(), mix(), measure_window_s=window)


class TestPatterns:
    def test_four_basic_patterns(self):
        assert set(ELASTIC_PATTERNS) == {
            "single_peak", "large_spike", "single_valley", "zero_valley",
        }

    def test_paper_proportions_at_tau_110(self):
        """Section III-C's concrete slot concurrencies."""
        assert ELASTIC_PATTERNS["single_peak"].concurrency_slots(110) == [0, 110, 0]
        assert ELASTIC_PATTERNS["large_spike"].concurrency_slots(110) == [11, 88, 11]
        assert ELASTIC_PATTERNS["single_valley"].concurrency_slots(110) == [44, 22, 44]
        assert ELASTIC_PATTERNS["zero_valley"].concurrency_slots(110) == [55, 0, 55]

    def test_custom_pattern_extension(self):
        pattern = custom_pattern("double_peak", [0, 1.0, 0.1, 1.0, 0])
        assert pattern.concurrency_slots(100) == [0, 100, 10, 100, 0]


class TestSaturationProbe:
    def test_tau_is_positive_and_bounded(self):
        for factory in (aws_rds, cdb2):
            tau = evaluator(factory).saturation_concurrency()
            assert 8 <= tau <= 2048

    def test_stronger_systems_saturate_later(self):
        weak = evaluator(cdb2).saturation_concurrency()
        strong = evaluator(aws_rds).saturation_concurrency()
        assert strong >= weak


class TestEvaluatorRun:
    def test_fixed_arch_flat_allocation(self):
        result = evaluator(aws_rds).run(ELASTIC_PATTERNS["single_peak"], 100)
        vcores = set(result.collector.vcores.values)
        assert vcores == {4.0}
        assert result.scaling_cost == 0.0
        assert result.total_cost == pytest.approx(result.execution_cost)

    def test_costs_split_into_elastic_and_infra(self):
        result = evaluator(cdb3).run(ELASTIC_PATTERNS["large_spike"], 100)
        assert result.elastic_cost > 0
        assert result.total_cost == pytest.approx(
            result.execution_cost + result.scaling_cost
        )
        assert result.e1_score == pytest.approx(
            result.avg_tps / result.elastic_cost
        )

    def test_serverless_tracks_demand(self):
        result = evaluator(cdb2).run(ELASTIC_PATTERNS["single_peak"], 100)
        # allocation during the idle tail is far below the peak
        peak = max(result.collector.vcores.values)
        tail = result.collector.vcores.values[-1]
        assert peak == 4.0
        assert tail <= 0.5 + 1e-9

    def test_cdb3_pauses_in_idle_tail(self):
        result = evaluator(cdb3).run(ELASTIC_PATTERNS["single_peak"], 100)
        assert 0.0 in result.collector.vcores.values

    def test_cdb1_gradual_scale_down_costs_more_than_cdb2(self):
        """Gradual scale-down keeps billing: the paper's core insight."""
        pattern = ELASTIC_PATTERNS["single_peak"]
        slow = evaluator(cdb1).run(pattern, 100)
        fast = evaluator(cdb2).run(pattern, 100)
        assert slow.scaling_cost > fast.scaling_cost

    def test_transitions_recorded_per_slot_change(self):
        result = evaluator(cdb2).run(ELASTIC_PATTERNS["zero_valley"], 100)
        labels = [transition.label for transition in result.transitions]
        assert labels == ["50->0", "0->50", "50->0"]

    def test_scaling_time_measured_for_cdb1_up(self):
        result = evaluator(cdb1).run(ELASTIC_PATTERNS["single_peak"], 100)
        up = result.transitions[0]
        assert up.label == "0->100"
        assert up.scaling_time_s is not None
        assert 5 <= up.scaling_time_s <= 40  # paper: 14 s

    def test_cdb1_scale_down_much_slower_than_up(self):
        result = evaluator(cdb1).run(ELASTIC_PATTERNS["single_peak"], 100)
        up, down = result.transitions[0], result.transitions[1]
        assert down.scaling_time_s is None or down.scaling_time_s > 3 * up.scaling_time_s

    def test_avg_tps_over_pattern_window(self):
        result = evaluator(aws_rds).run(ELASTIC_PATTERNS["single_valley"], 100)
        assert result.avg_tps > 0
        # single valley serves demand in every slot, so it out-averages
        # the single peak (two idle slots)
        peak = evaluator(aws_rds).run(ELASTIC_PATTERNS["single_peak"], 100)
        assert result.avg_tps > peak.avg_tps

    def test_e1_rank_cdb3_beats_cdb1(self):
        pattern = ELASTIC_PATTERNS["single_peak"]
        assert (evaluator(cdb3).run(pattern, 100).e1_score
                > evaluator(cdb1).run(pattern, 100).e1_score)

    def test_run_all(self):
        results = evaluator(cdb3).run_all(50, patterns=["single_peak", "zero_valley"])
        assert set(results) == {"single_peak", "zero_valley"}
