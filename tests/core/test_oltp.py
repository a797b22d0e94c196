"""Tests for the OLTP evaluator (functional + modelled sweeps)."""


from repro.cloud.architectures import aws_rds
from repro.core.oltp import OltpEvaluator
from repro.core.workload import READ_ONLY, READ_WRITE


def test_functional_sweep_reports_all_levels():
    evaluator = OltpEvaluator(READ_WRITE, row_scale=0.001)
    report = evaluator.run_functional(concurrencies=[1, 4], transactions_per_level=300)
    assert [point.concurrency for point in report.functional] == [1, 4]
    for point in report.functional:
        assert point.tps > 0
        assert point.result.transactions == 300
        assert point.result.latency_percentile(99) >= point.result.latency_percentile(50)


def test_functional_runs_are_independent_per_level():
    evaluator = OltpEvaluator(READ_WRITE, row_scale=0.001)
    report = evaluator.run_functional(concurrencies=[2, 2], transactions_per_level=200)
    first, second = report.functional
    assert first.result.counts == second.result.counts  # fresh db + same seed


def test_modelled_sweep_shapes():
    evaluator = OltpEvaluator(READ_ONLY)
    report = evaluator.run_modelled(aws_rds(), concurrencies=[50, 100, 200])
    tps = {point.concurrency: point.tps for point in report.modelled}
    assert tps[100] >= tps[50]
    assert all(point.bottleneck for point in report.modelled)
    assert all(point.latency_s > 0 for point in report.modelled)


def test_latest_distribution_flows_through_both_paths():
    evaluator = OltpEvaluator(READ_WRITE, distribution="latest-10", row_scale=0.001)
    functional = evaluator.run_functional(concurrencies=[2], transactions_per_level=150)
    assert functional.distribution == "latest-10"
    modelled = evaluator.run_modelled(aws_rds(), concurrencies=[100])
    assert modelled.modelled[0].tps > 0


def test_default_sweeps():
    evaluator = OltpEvaluator(READ_ONLY, row_scale=0.001)
    functional = evaluator.run_functional(transactions_per_level=100)
    assert len(functional.functional) == 3
    modelled = evaluator.run_modelled(aws_rds())
    assert len(modelled.modelled) == 4
