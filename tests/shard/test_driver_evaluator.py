"""Load drivers and the ``scaleout-real`` evaluator wiring."""

import time

import pytest

from repro.chaos.availability import AvailabilityEvaluator
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.cloud.architectures import get as get_architecture
from repro.core.config import BenchConfig
from repro.core.evalapi import get_evaluator
from repro.core.runner import CloudyBench
from repro.ha.evaluator import HAEvaluator
from repro.obs import Observer
from repro.perf.openloop import parse_arrival
from repro.shard import run_inline, run_multiprocess


class TestInlineDriver:
    def test_deterministic_for_a_seed(self):
        first = run_inline(2, 40, cross_ratio=0.3, seed=11)
        second = run_inline(2, 40, cross_ratio=0.3, seed=11)
        assert first.committed == second.committed
        assert first.aborted == second.aborted
        assert first.cross_committed == second.cross_committed
        assert first.fsyncs == second.fsyncs

    def test_cross_ratio_zero_never_runs_2pc(self):
        result = run_inline(3, 40, cross_ratio=0.0, seed=11)
        assert result.cross_committed == 0
        assert result.committed == 40

    def test_cross_ratio_one_always_runs_2pc(self):
        result = run_inline(3, 40, cross_ratio=1.0, seed=11)
        assert result.cross_committed == result.committed == 40

    def test_cross_shard_costs_more_fsyncs(self):
        local = run_inline(2, 40, cross_ratio=0.0, seed=11)
        distributed = run_inline(2, 40, cross_ratio=1.0, seed=11)
        assert distributed.fsyncs > local.fsyncs

    def test_single_shard_fleet_accepts_any_cross_ratio(self):
        # with one shard there is no "other" shard: all txns are local
        result = run_inline(1, 20, cross_ratio=1.0, seed=11)
        assert result.cross_committed == 0
        assert result.committed == 20


def _counters(result):
    return (
        result.committed, result.aborted, result.fsyncs, result.cross_committed
    )


class TestPinnedShape:
    """Deterministic counters at the ``BenchConfig.quick()`` shape, seed
    42, read off the commit that retired the second harness: any drift
    is a behaviour change, not noise."""

    SHAPES = [
        pytest.param(
            (1, 256), {"cross_ratio": 0.0}, (256, 0, 256, 0), id="1-shard"
        ),
        pytest.param(
            # 242 local commits x 1 fsync + 14 two-writer commits x 2
            (2, 256), {"cross_ratio": 0.1}, (256, 0, 270, 14), id="2-shards"
        ),
    ]

    @pytest.mark.parametrize("extra", [
        {}, {"arrival": "poisson"}, {"arrival": "burst:500,4"},
        {"transport": "socket"},
    ], ids=["closed", "poisson", "burst", "socket"])
    @pytest.mark.parametrize("args,shape,counters", SHAPES)
    def test_inline_counters(self, args, shape, counters, extra):
        # neither the arrival process nor the transport perturbs the work
        result = run_inline(*args, seed=42, row_scale=0.001, **shape, **extra)
        assert _counters(result) == counters

    def test_different_seed_changes_the_work(self):
        # same txn count, but the cross-shard draws (and so the 2PC
        # fsyncs) differ
        result = run_inline(2, 256, cross_ratio=0.1, seed=43, row_scale=0.001)
        assert result.committed == 256
        assert _counters(result) != (256, 0, 270, 14)

    def test_open_arrival_fills_both_latency_views(self):
        result = run_inline(2, 96, seed=42, row_scale=0.001, arrival="poisson")
        assert result.arrival == "poisson:auto"
        for view in (result.latency_ms, result.openloop_latency_ms):
            assert sorted(view) == ["p50", "p95", "p99", "p999"]
            assert view["p99"] > 0

    def test_closed_arrival_records_no_latency(self):
        result = run_inline(2, 96, seed=42, row_scale=0.001)
        assert result.arrival == "closed"
        assert result.latency_ms == {} and result.openloop_latency_ms == {}

    # An open arrival adds a CO-free view of the closed run and changes
    # nothing the run counts: every evaluator with an ``arrival`` option
    # except ``overload`` and ``serve``, whose open loops are live.
    ARRIVALS = ("closed", "poisson", "burst:500,4")

    @pytest.mark.parametrize("faults", [
        (), (FaultSpec(FaultKind.PARTITION, "primary", start_s=2.0, duration_s=2.0),),
    ], ids=["healthy", "partition"])
    def test_availability_counts_ignore_the_arrival(self, faults):
        plan = FaultPlan(faults, seed=42, name="pinned")
        runs = {
            arrival: AvailabilityEvaluator(
                get_architecture("cdb1"), plan, duration_s=6.0,
                row_scale=0.001, arrival=arrival,
            ).run()
            for arrival in self.ARRIVALS
        }
        counted = {
            arrival: (
                score.requests, score.succeeded, score.failed, score.goodput,
                score.breaker_opened, score.breaker_reclosed, score.samples,
            )
            for arrival, score in runs.items()
        }
        assert counted["poisson"] == counted["burst:500,4"] == counted["closed"]
        assert (counted["closed"][2] > 0) == bool(faults)  # the fault bites
        _assert_open_view_iff_open(runs)

    def test_oltp_rows_ignore_the_arrival(self):
        def fresh_bench():
            config = BenchConfig.quick()
            config.chaos_duration_s = 4.0
            return CloudyBench(config)

        bench = fresh_bench()  # one bench: each run counts only itself
        outcomes = {arrival: bench.run("oltp", arrival=arrival) for arrival in self.ARRIVALS}
        rows = {arrival: outcome.rows for arrival, outcome in outcomes.items()}
        assert rows["poisson"] == rows["burst:500,4"] == rows["closed"]
        assert [
            "oltp.openloop_p99_ms.aws_rds" in outcome.scores
            for outcome in outcomes.values()
        ] == [False, True, True]
        assert bench.observer.metrics.counter("engine.txn.commit").value == 3 * rows["closed"][0][3]
        after_chaos = fresh_bench()
        after_chaos.run("chaos")
        assert after_chaos.run("oltp").rows == rows["closed"]

    def test_ha_counts_ignore_the_arrival(self):
        observers = {arrival: Observer() for arrival in self.ARRIVALS}
        runs = {
            arrival: HAEvaluator(
                txns=80, seed=42, observer=observers[arrival], arrival=arrival,
            ).run()
            for arrival in self.ARRIVALS
        }
        counted = {
            arrival: (
                result.acked, result.failed, result.reads_ok, result.failovers,
                result.restarts, result.outages, result.violations,
                result.counts, result.transfer_log, result.r_score,
            )
            for arrival, result in runs.items()
        }
        assert counted["poisson"] == counted["burst:500,4"] == counted["closed"]
        assert runs["closed"].failovers == 1 and runs["closed"].acked == 80
        _assert_open_view_iff_open(runs)
        # the closed client's p99 hides the kill; the replay charges the
        # backlog behind it
        closed_p99 = (
            observers["closed"].metrics.histogram("client.call_s").percentile(99.0)
            * 1000.0
        )
        for arrival in self.ARRIVALS[1:]:
            assert runs[arrival].openloop_latency_ms["p99"] >= closed_p99

    def test_multiprocess_counters(self, refuse_processes):
        result = run_multiprocess(2, 256, seed=42, row_scale=0.001)
        assert result.driver == "mp-fallback"
        assert (result.committed, result.aborted, result.fsyncs) == (256, 0, 256)


def _assert_open_view_iff_open(runs):
    for arrival, result in runs.items():
        view = result.openloop_latency_ms
        assert result.arrival == parse_arrival(arrival).describe()
        if arrival == "closed":
            assert view == {}
        else:
            assert sorted(view) == ["p50", "p95", "p99", "p999"] and view["p99"] > 0


@pytest.fixture
def refuse_processes(monkeypatch):
    """An environment that refuses to fork: the driver's sequential path."""
    import repro.shard.driver as driver

    monkeypatch.setattr(driver, "_try_processes", lambda *_args: None)


class TestMultiprocessDriver:
    def test_splits_transactions_across_shards(self):
        import repro.shard.driver as driver

        assert driver._split(50, 3) == [17, 17, 16]
        assert run_multiprocess(3, 50, seed=11).committed == 50

    def test_worker_results_identical_with_and_without_processes(self, monkeypatch):
        import repro.shard.driver as driver

        forked = run_multiprocess(2, 30, seed=11)
        monkeypatch.setattr(driver, "_try_processes", lambda *_args: None)
        sequential = run_multiprocess(2, 30, seed=11)
        for key in ("committed", "aborted", "fsyncs"):
            assert getattr(forked, key) == getattr(sequential, key)

    def test_node_time_is_max_worker_cpu(self, refuse_processes, monkeypatch):
        import repro.shard.driver as driver

        stats = []
        run_local_shard = driver._run_local_shard
        monkeypatch.setattr(
            driver, "_run_local_shard",
            lambda *args: stats.append(run_local_shard(*args)) or stats[-1],
        )
        result = run_multiprocess(2, 30, seed=11)
        assert result.node_s == max(entry["cpu_s"] for entry in stats)
        assert result.tps_node > 0

    @pytest.mark.parametrize("forked", [False, True])
    def test_worker_failure_is_raised_promptly(self, forked, monkeypatch):
        # at this row scale some shards own no rows, so their workers
        # fail; that must surface as the worker's own error (whichever
        # forked worker reports first), not as a 600 s wait followed by
        # a sequential re-run labelled "mp-fallback"
        if not forked:
            import repro.shard.driver as driver

            monkeypatch.setattr(driver, "_try_processes", lambda *_args: None)
        start = time.monotonic()
        with pytest.raises(ValueError, match="holds no orders or customers"):
            run_multiprocess(40, 40, seed=11, row_scale=1e-9)
        assert time.monotonic() - start < 10.0


class TestScaleoutEvaluator:
    def make_bench(self):
        config = BenchConfig.quick()
        config.shard_txns = 40
        return CloudyBench(config)

    def test_registered_with_options(self):
        spec = get_evaluator("scaleout-real")
        assert {option.name for option in spec.options} == {
            "shards", "cross", "txns", "driver", "arrival", "transport"
        }

    def test_outcome_shape_and_scores(self):
        bench = self.make_bench()
        outcome = bench.run("scaleout-real")
        assert [row[0] for row in outcome.rows] == [1, 2]
        assert outcome.scores["scaleout.speedup@1"] == 1.0
        assert "scaleout.tps@2" in outcome.scores
        # the modelled E2-curve column rides along for comparison
        assert outcome.headers.index("modelled") >= 0

    def test_option_coercion_and_caching(self):
        bench = self.make_bench()
        first = bench.run("scaleout-real", shards="1,2", cross="0.0", txns="30")
        second = bench.run("scaleout-real", shards=[1, 2], cross=0.0, txns=30)
        assert first.payload is second.payload  # same cache entry

    def test_unknown_option_rejected(self):
        bench = self.make_bench()
        with pytest.raises(TypeError):
            bench.run("scaleout-real", bogus=1)

    def test_latency_columns_iff_the_arrival_is_open(self):
        bench = self.make_bench()
        latency = ("p50 ms", "p99 ms", "open p99 ms")
        closed = bench.run("scaleout-real")
        assert closed.headers[-1] == "fsyncs/txn"
        assert not set(latency) & set(closed.headers)
        opened = bench.run("scaleout-real", arrival="poisson")
        assert opened.headers == closed.headers + latency
        assert all(len(row) == len(opened.headers) for row in opened.rows)
        assert [row[:6] for row in opened.rows] == [
            row[:6] for row in closed.rows
        ]
        assert opened.rows[1][-1] == round(
            opened.scores["scaleout.openloop_p99_ms@2"], 3
        )

    @pytest.mark.parametrize("option,value", [
        ("arrival", "poisson"), ("transport", "socket"), ("cross", 0.5),
    ])
    def test_mp_driver_refuses_inline_only_options(self, option, value, monkeypatch):
        import repro.shard.driver as driver

        def loaded(*_args, **_kwargs):
            raise AssertionError("refused before anything is loaded")

        monkeypatch.setattr(driver, "load_sales_fleet", loaded)
        monkeypatch.setattr(driver, "load_sales_shard", loaded)
        bench = self.make_bench()
        with pytest.raises(ValueError, match=f"driver='mp'.*{option}="):
            bench.run("scaleout-real", driver="mp", **{option: value})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(shard_counts=[])
        with pytest.raises(ValueError):
            BenchConfig(shard_cross_ratio=1.5)
        with pytest.raises(ValueError):
            BenchConfig(shard_driver="threads")
