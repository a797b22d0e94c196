"""Tests for the fail-over evaluator and the lag-time evaluator."""

import pytest

from repro.cloud.architectures import aws_rds, cdb1, cdb3, cdb4
from repro.core.failover import FailOverEvaluator, FailoverScores
from repro.core.lagtime import LagResult, LagTimeEvaluator
from repro.core.workload import LAG_PATTERNS, READ_WRITE, iud_mix


def mix():
    return READ_WRITE.to_workload_mix(1)


class TestFailOverEvaluator:
    def test_scores_populated(self):
        scores = FailOverEvaluator(cdb4(), mix()).run()
        assert isinstance(scores, FailoverScores)
        assert scores.f_rw_s > 0
        assert scores.r_rw_s > 0
        assert scores.total_s == pytest.approx(
            scores.f_rw_s + scores.f_ro_s + scores.r_rw_s + scores.r_ro_s
        )

    def test_cdb4_fastest_rds_slowest(self):
        totals = {}
        for factory in (aws_rds, cdb1, cdb4):
            totals[factory().name] = FailOverEvaluator(factory(), mix()).run().total_s
        assert totals["cdb4"] < totals["cdb1"] < totals["aws_rds"]

    def test_rds_magnitudes_close_to_paper(self):
        """Table VIII: RDS total ~78 s, F(RW) ~24 s."""
        scores = FailOverEvaluator(aws_rds(), mix()).run()
        assert 15 <= scores.f_rw_s <= 35
        assert 50 <= scores.total_s <= 110

    def test_cdb4_magnitudes_close_to_paper(self):
        """Table VIII: CDB4 total ~12 s."""
        scores = FailOverEvaluator(cdb4(), mix()).run()
        assert scores.total_s <= 25


class TestLagTimeEvaluator:
    @pytest.fixture(scope="class")
    def cdb3_result(self):
        evaluator = LagTimeEvaluator(
            cdb3(), row_scale=0.001, concurrency=4, transactions=60
        )
        return evaluator.run(LAG_PATTERNS["mixed"])

    def test_samples_collected_per_kind(self, cdb3_result):
        kinds = {sample.kind for sample in cdb3_result.samples}
        assert kinds == {"insert", "update", "delete"}
        assert len(cdb3_result.samples) >= 30

    def test_lag_is_positive_and_bounded(self, cdb3_result):
        for sample in cdb3_result.samples:
            assert 0 < sample.lag_s < 5.0

    def test_c_score_equation_six(self, cdb3_result):
        expected = (
            cdb3_result.insert_lag_s
            + cdb3_result.update_lag_s
            + cdb3_result.delete_lag_s
        ) / cdb3_result.n_replicas
        assert cdb3_result.c_score_s == pytest.approx(expected)

    def test_insert_only_pattern(self):
        evaluator = LagTimeEvaluator(
            cdb4(), row_scale=0.001, concurrency=4, transactions=40
        )
        result = evaluator.run(LAG_PATTERNS["insert"])
        assert {sample.kind for sample in result.samples} == {"insert"}
        assert result.update_lag_s == 0.0

    def test_architecture_lag_ordering(self):
        """cdb4 (RDMA, on-demand replay) beats cdb1 (sequential replay)."""
        def lag(factory):
            evaluator = LagTimeEvaluator(
                factory(), row_scale=0.001, concurrency=4, transactions=40
            )
            return evaluator.run(iud_mix(60, 30, 10)).avg_lag_s

        assert lag(cdb4) < lag(cdb1)

    def test_cdb4_millisecond_level(self):
        evaluator = LagTimeEvaluator(
            cdb4(), row_scale=0.001, concurrency=4, transactions=40
        )
        result = evaluator.run(iud_mix(60, 30, 10))
        assert result.avg_lag_s < 0.01  # paper: 1.5 ms

    def test_empty_result_scores_zero(self):
        result = LagResult(arch_name="x", n_replicas=1)
        assert result.avg_lag_s == 0.0
        assert result.c_score_s == 0.0


class TestSeedRobustness:
    """The lag ordering is a model property, not a seed artefact."""

    def test_lag_ordering_stable_across_seeds(self):
        orderings = []
        for seed in (7, 21, 1234):
            lags = {}
            for factory in (cdb3, cdb1):
                evaluator = LagTimeEvaluator(
                    factory(), row_scale=0.001, concurrency=4,
                    transactions=40, seed=seed,
                )
                lags[factory().name] = evaluator.run(iud_mix(60, 30, 10)).avg_lag_s
            orderings.append(sorted(lags, key=lags.get))
        assert all(order == ["cdb3", "cdb1"] for order in orderings)
