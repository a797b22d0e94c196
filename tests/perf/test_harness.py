"""Two-stage harness: determinism, calibration, evaluator wiring."""

import pytest

from repro.perf.harness import (
    MAX_TXNS,
    MIN_TXNS,
    TwoStageHarness,
    _quantise,
    peak_rss_kb,
    perf_workload_names,
)
from repro.perf.trajectory import calibration_spin


class TestQuantise:
    @pytest.mark.parametrize("value,expected", [
        (0, 1), (1, 1), (2, 2), (3, 2), (5, 4), (6, 4), (7, 8),
        (48, 32), (96, 64), (1000, 1024), (1536, 1024),
    ])
    def test_rounds_to_nearest_power_of_two(self, value, expected):
        assert _quantise(value) == expected

    def test_result_is_always_a_power_of_two(self):
        for value in range(1, 300):
            quantised = _quantise(value)
            assert quantised & (quantised - 1) == 0

    def test_bounds_are_quantisable(self):
        # the clamp range must survive quantisation without escaping it
        assert _quantise(MIN_TXNS) == MIN_TXNS
        assert _quantise(MAX_TXNS) <= MAX_TXNS * 2


class TestConstruction:
    def test_known_workloads(self):
        assert perf_workload_names() == ("oltp", "shard")
        harness = TwoStageHarness()
        for name in perf_workload_names():
            assert harness.workload(name).name == name

    def test_unknown_workload_names_the_catalogue(self):
        with pytest.raises(KeyError, match="oltp"):
            TwoStageHarness().workload("htap")

    @pytest.mark.parametrize("kwargs", [
        {"pilot_txns": 0},
        {"target_s": 0.0},
        {"txns": 0},
        {"rate_factor": 0.0},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            TwoStageHarness(**kwargs)

    def test_workload_params_carry_the_fingerprint_inputs(self):
        harness = TwoStageHarness(row_scale=0.004, shard_cross_ratio=0.3)
        assert harness.workload("oltp").params == {
            "n_shards": 1, "cross_ratio": 0.0, "row_scale": 0.004,
        }
        assert harness.workload("shard").params["cross_ratio"] == 0.3

    def test_peak_rss_is_positive_here(self):
        assert peak_rss_kb() > 0

    def test_calibration_spin_import_path(self):
        # bench/run.py imports calibration_spin from exactly this path
        assert calibration_spin(1000) > 0


def run_quick(seed=42, workload="oltp", **kwargs):
    kwargs.setdefault("txns", 96)
    kwargs.setdefault("pilot_txns", 8)
    kwargs.setdefault("profile", False)
    return TwoStageHarness(seed=seed, **kwargs).run(workload)


class TestDeterminism:
    def test_counters_are_seed_deterministic(self):
        a, b = run_quick(), run_quick()
        assert (a.committed, a.aborted, a.fsyncs) == (
            b.committed, b.aborted, b.fsyncs
        )
        assert a.txns == b.txns == 96

    def test_pilot_length_does_not_perturb_measured_counters(self):
        # the whole point of the per-stage seed streams: a different
        # pilot (faster host calibration) measures identical statements
        a = run_quick(pilot_txns=4)
        b = run_quick(pilot_txns=24)
        assert (a.committed, a.aborted, a.fsyncs) == (
            b.committed, b.aborted, b.fsyncs
        )

    def test_arrival_process_does_not_perturb_measured_counters(self):
        a = run_quick(arrival="poisson")
        b = run_quick(arrival="burst:500,4")
        c = run_quick(arrival="closed")
        assert (a.committed, a.fsyncs) == (b.committed, b.fsyncs)
        assert (a.committed, a.fsyncs) == (c.committed, c.fsyncs)

    def test_different_seed_changes_the_work(self):
        # same txn count, but the cross-shard draws (and so the 2PC
        # fsyncs) differ
        a = run_quick(seed=42, workload="shard")
        b = run_quick(seed=43, workload="shard")
        assert a.txns == b.txns
        assert (a.fsyncs, a.extra_counters) != (b.fsyncs, b.extra_counters)


class TestMeasuredRun:
    def test_run_carries_its_shape(self):
        run = run_quick()
        assert run.txns == 96
        assert run.committed + run.aborted == 96
        assert run.arrival.describe() == "poisson:auto"
        assert run.pilot_txns == 8

    def test_open_loop_run_keeps_both_views(self):
        run = run_quick(arrival="poisson")
        assert run.openloop is not None
        assert run.service.mode == "closed"  # queueing-free service view
        assert run.openloop.latency_summary_ms()["p99"] > 0

    def test_closed_loop_run_has_no_openloop_block(self):
        run = run_quick(arrival="closed")
        assert run.openloop is None

    def test_profile_pass_meets_the_coverage_gate(self):
        run = run_quick(profile=True)
        assert run.profile is not None
        assert run.profile.coverage >= 0.9
        assert run.profile.shares()["executor"] > 0

    @pytest.mark.parametrize("name,counters,cross", [
        ("oltp", (256, 0, 256), 0),
        ("shard", (256, 0, 376), 24),
    ])
    def test_pinned_quick_shape_counters(self, name, counters, cross):
        """The deterministic counters at the ``BenchConfig.quick()``
        shape and seed 42: any drift is a behaviour change, not noise."""
        run = TwoStageHarness(
            seed=42, row_scale=0.001, pilot_txns=16, txns=256,
            shard_cross_ratio=0.1, profile=False,
        ).run(name)
        assert (run.committed, run.aborted, run.fsyncs) == counters
        assert run.extra_counters == {"cross_committed": cross}


class TestEvaluatorWiring:
    def test_perf_evaluator_is_registered_with_its_options(self):
        import repro.core.evaluators  # noqa: F401 - populate the registry
        from repro.core.evalapi import get_evaluator

        spec = get_evaluator("perf")
        assert sorted(option.name for option in spec.options) == [
            "arrival", "profile", "txns", "workloads",
        ]

    def test_quick_config_pins_the_iteration_count(self):
        from repro.core.config import BenchConfig

        config = BenchConfig.quick()
        assert config.perf_txns == 256
        assert config.perf_profile is True
