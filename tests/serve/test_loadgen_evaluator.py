"""The load generator, the serve driver, and the ``serve`` evaluator."""

import pytest

from repro.core.config import BenchConfig
from repro.core.runner import CloudyBench
from repro.serve.driver import run_serve, run_sweep
from repro.serve.loadgen import make_persona

KEYS = {"orders": [1, 2, 3], "customers": [4, 5, 6]}


class TestPersonas:
    def test_registry(self):
        for name in ("payment", "reader", "mixed"):
            assert make_persona(name, KEYS).name == name
        with pytest.raises(ValueError, match="unknown persona"):
            make_persona("bulk-loader", KEYS)

    def test_empty_key_space_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            make_persona("payment", {"orders": [], "customers": [4]})

    def test_frames_are_deterministic_per_stream(self):
        import random

        frames_a = [
            make_persona("mixed", KEYS).frame(random.Random(9))
            for _ in range(1)
        ]
        frames_b = [
            make_persona("mixed", KEYS).frame(random.Random(9))
            for _ in range(1)
        ]
        assert frames_a == frames_b


class TestRunServe:
    def test_closed_loop_smoke(self):
        result = run_serve(
            4, 4, n_shards=2, qos=False,
            persona="payment", arrival="closed",
            seed=42, row_scale=0.001,
        )
        assert result.offered == 16
        assert result.committed == 16
        assert result.aborted == 0
        assert result.errors == 0
        assert result.fsyncs > 0
        assert result.tps > 0
        assert set(result.latency_ms) == {"p50", "p95", "p99", "p999"}
        assert result.server["accepted"] == 4
        assert result.server["abrupt_disconnects"] == 0

    def test_closed_loop_is_deterministic(self):
        runs = [
            run_serve(
                2, 6, n_shards=2, qos=False,
                persona="payment", arrival="closed",
                seed=7, row_scale=0.001,
            )
            for _ in range(2)
        ]
        assert runs[0].committed == runs[1].committed == 12
        assert runs[0].aborted == runs[1].aborted
        assert runs[0].fsyncs == runs[1].fsyncs

    def test_reader_persona_commits_reads(self):
        result = run_serve(
            2, 4, n_shards=2, qos=False,
            persona="reader", arrival="closed",
            seed=42, row_scale=0.001,
        )
        assert result.committed == 8

    def test_sweep_runs_every_count(self):
        results = run_sweep(
            [1, 2], 3, n_shards=2, qos=False,
            seed=42, row_scale=0.001,
        )
        assert [r.connections for r in results] == [1, 2]
        assert all(r.committed == r.connections * 3 for r in results)


class TestServeEvaluator:
    def test_outcome_shape_and_scores(self):
        config = BenchConfig.quick()
        config.row_scale = 0.001
        bench = CloudyBench(config)
        outcome = bench.run(
            "serve", connections=[2], txns=3, qos=False
        )
        assert outcome.name == "serve"
        assert len(outcome.rows) == 1
        row = dict(zip(outcome.headers, outcome.rows[0]))
        assert row["conns"] == 2
        assert row["qos"] == "off"
        assert row["committed"] == 6
        assert "serve.tps@2" in outcome.scores
        assert "serve.goodput@2" in outcome.scores
        assert "serve.p99_ms@2" in outcome.scores
        # the sweep result is cached: a second run reuses it
        assert bench.run("serve", connections=[2], txns=3, qos=False)

    def test_config_knobs_validate(self):
        with pytest.raises(ValueError, match="serve_connections"):
            BenchConfig(serve_connections=[0])
        with pytest.raises(ValueError, match="serve_persona"):
            BenchConfig(serve_persona="bulk-loader")
        with pytest.raises(ValueError, match="serve_max_connections"):
            BenchConfig(serve_max_queue=0)


class TestPinnedShape:
    def test_pinned_shape_counters(self):
        """8 x 32 closed-loop payments, qos off, single in-process
        server, seed 42: every offered transaction runs, so the
        counters are exact integers and any drift is a behaviour change."""
        result = run_serve(
            8, 32, n_shards=2, qos=False, persona="payment",
            arrival="closed", seed=42, row_scale=0.002,
        )
        assert (result.offered, result.committed, result.aborted) == (256, 256, 0)
        # 131 local payments x 1 fsync + 125 two-writer payments x 2
        # (the last agent's DECISION, the other writer's PREPARE)
        assert result.fsyncs == 131 + 125 * 2
