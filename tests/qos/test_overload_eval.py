"""The overload evaluator: determinism, qos-vs-baseline, registry wiring."""

import pytest

from repro.cloud.architectures import get as get_architecture
from repro.core.config import BenchConfig
from repro.core.evalapi import EvalOutcome, get_evaluator, parse_bool
from repro.core.runner import CloudyBench
from repro.qos.overload import OverloadEvaluator, d_score

ARCH = get_architecture("aws_rds")
QUICK = dict(capacity_rps=200.0, duration_s=1.5, seed=7)
MULTIPLES = [0.5, 2.0]


def sweep(qos, **overrides):
    kwargs = dict(QUICK)
    kwargs.update(overrides)
    return OverloadEvaluator(ARCH, qos=qos, **kwargs).run(list(MULTIPLES))


# -- d_score ------------------------------------------------------------------


class TestDScore:
    def test_never_past_the_knee_scores_one(self):
        assert d_score([(50.0, 50.0), (100.0, 99.0)], 100.0) == 1.0
        assert d_score([], 100.0) == 1.0

    def test_total_collapse_scores_zero(self):
        assert d_score([(200.0, 0.0)], 100.0) == 0.0

    def test_flat_goodput_scores_one(self):
        assert d_score([(200.0, 100.0), (300.0, 100.0)], 100.0) == 1.0

    def test_partial_shortfall(self):
        # one point past the knee at half the capacity: 1 - 0.5
        assert d_score([(200.0, 50.0)], 100.0) == pytest.approx(0.5)

    def test_overachieving_points_do_not_inflate(self):
        assert d_score([(200.0, 150.0)], 100.0) == 1.0

    def test_zero_capacity_scores_zero(self):
        assert d_score([(10.0, 10.0)], 0.0) == 0.0


# -- the simulation -----------------------------------------------------------


class TestSweep:
    def test_identical_runs_are_byte_identical(self):
        first, second = sweep(qos=True), sweep(qos=True)
        assert first.points == second.points
        assert first.dscore == second.dscore

    def test_seed_changes_the_arrival_schedule(self):
        assert sweep(qos=True).points != sweep(qos=True, seed=8).points

    def test_qos_protects_goodput_past_the_knee(self):
        protected, unprotected = sweep(qos=True), sweep(qos=False)
        assert protected.dscore > unprotected.dscore
        assert (
            protected.point_at(2.0).goodput_rps
            > unprotected.point_at(2.0).goodput_rps
        )

    def test_qos_queue_is_bounded_and_baseline_queue_is_not(self):
        protected, unprotected = sweep(qos=True), sweep(qos=False)
        max_queue = OverloadEvaluator(ARCH, qos=True).policy.max_queue
        for point in protected.points:
            assert point.peak_queue_depth <= max_queue
        assert unprotected.point_at(2.0).peak_queue_depth > max_queue

    def test_qos_sheds_instead_of_timing_out(self):
        protected, unprotected = sweep(qos=True), sweep(qos=False)
        past_knee = protected.point_at(2.0)
        assert past_knee.shed > 0
        assert unprotected.point_at(2.0).shed == 0
        assert unprotected.point_at(2.0).timeouts > past_knee.timeouts

    def test_point_at_unknown_multiple_is_none(self):
        assert sweep(qos=True).point_at(9.0) is None

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            OverloadEvaluator(ARCH, capacity_rps=0.0)
        with pytest.raises(ValueError):
            OverloadEvaluator(ARCH, deadline_s=-1.0)


# -- registry integration -----------------------------------------------------


@pytest.fixture(scope="module")
def bench():
    config = BenchConfig.quick()
    config.architectures = ["aws_rds", "cdb3"]
    config.overload_multiples = [0.5, 2.0]
    config.overload_duration_s = 1.5
    return CloudyBench(config)


class TestRegistry:
    def test_overload_is_registered(self):
        spec = get_evaluator("overload")
        assert "goodput" in spec.title
        names = [option.name for option in spec.options]
        assert names == ["qos", "arrival"]

    def test_run_returns_scored_outcome(self, bench):
        outcome = bench.run("overload")
        assert isinstance(outcome, EvalOutcome)
        assert outcome.name == "overload"
        assert "qos on" in outcome.title
        assert set(outcome.scores) == {"d.aws_rds", "d.cdb3"}
        assert all(0.0 <= value <= 1.0 for value in outcome.scores.values())
        # one row per (arch, multiple)
        assert len(outcome.rows) == 2 * len(bench.config.overload_multiples)

    def test_qos_option_switches_configuration(self, bench):
        unprotected = bench.run("overload", qos=False)
        assert "qos off" in unprotected.title
        protected = bench.run("overload", qos=True)
        for arch in ("aws_rds", "cdb3"):
            assert (
                protected.scores[f"d.{arch}"] > unprotected.scores[f"d.{arch}"]
            )

    def test_results_are_cached_per_flag(self, bench):
        bench.run("overload", qos=True)
        first = bench.run("overload", qos=True).payload
        assert bench.run("overload", qos=True).payload is first
        assert bench.run("overload", qos=False).payload is not first

    def test_overall_carries_the_dscore(self, bench):
        bench.run("overload")  # populate the cache for the config's flag
        outcome = bench.run("overall")
        assert set(outcome.payload) == {"aws_rds", "cdb3"}
        for scores in outcome.payload.values():
            assert "d" in scores.extras
            assert 0.0 <= scores.extras["d"] <= 1.0


# -- CLI boolean options ------------------------------------------------------


class TestParseBool:
    @pytest.mark.parametrize("raw", [True, "true", "1", "YES", " on "])
    def test_truthy(self, raw):
        assert parse_bool(raw) is True

    @pytest.mark.parametrize("raw", [False, "false", "0", "No", " off "])
    def test_falsy(self, raw):
        assert parse_bool(raw) is False

    @pytest.mark.parametrize("raw", ["maybe", "", "2", None])
    def test_rejects_everything_else(self, raw):
        with pytest.raises(ValueError):
            parse_bool(raw)
