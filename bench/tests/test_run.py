"""The contract file agrees with the code; the smoke run is quick."""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bench.layers import PER_LAYER
from bench.workloads import SPECS, UNGATED

ROOT = Path(__file__).resolve().parents[2]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_what_the_code_measures():
    assert [(w["name"], w["why"]) for w in CONFIG["workloads"]] == [
        (spec.name, spec.why) for spec in SPECS if spec.name not in UNGATED
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in CONFIG["per_layer"]] == [
        tuple(row) for row in PER_LAYER
    ]
    assert all(0 < m["bound"] <= 0.25 for m in CONFIG["end_to_end"])
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in CONFIG["end_to_end"]
    )
    for spec in SPECS:
        assert spec.window_slices < spec.checkpoint_slices


def test_one_run_prints_every_end_to_end_metric():
    child = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sales_inline",
         "--seed", "3", "--seconds", "0.5", "--trace", "0", "--repeats", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in CONFIG["end_to_end"]]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_quick_suite_finishes_in_twenty_seconds():
    started = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "suite.py"), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    elapsed = time.perf_counter() - started
    assert child.returncode == 0, child.stdout + child.stderr
    assert "all checks passed" in child.stdout
    assert elapsed < 20.0, f"--quick took {elapsed:.1f}s"


def test_slowdown_is_reference_time_over_nominal():
    from bench.run import NOMINAL_REFERENCE_S, reference_s, slowdown_of

    nominal = NOMINAL_REFERENCE_S
    assert slowdown_of([nominal] * 4) == 1.0
    assert slowdown_of([2 * nominal] * 3) == 2.0
    # one preempted reading does not mis-scale what it stands beside
    assert slowdown_of([nominal, nominal, 10 * nominal, nominal]) == 1.0
    # the reference is real work, within an order of magnitude of nominal
    assert 0.2 < slowdown_of([reference_s() for _ in range(5)]) < 10


def test_a_host_twice_as_slow_reports_the_same_metrics():
    from bench.run import Slice, timing_metrics
    from bench.script import T1, T3

    def slices(factor):
        out = []
        for base in (1.0, 1.2, 0.9):
            latencies = [base * factor * 1e-6 * (10 + i % 7) for i in range(1000)]
            one = Slice(latencies, [T3, T3, T3, T1] * 250, 1000,
                        wall_s=sum(latencies), cpu_s=sum(latencies), late_s=())
            one.slowdown = factor
            out.append(one)
        return out

    nominal, slow = timing_metrics(slices(1.0)), timing_metrics(slices(2.0))
    assert nominal.keys() == slow.keys()
    for name in nominal:
        assert slow[name] == pytest.approx(nominal[name])


def _run(workload, seed):
    child = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", "0", "--repeats", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def test_counters_repeat_for_a_seed_and_move_with_it():
    first, again, other = _run("sales_fleet", 7), _run("sales_fleet", 7), _run("sales_fleet", 8)
    for name in ("wal_bytes_per_txn", "fsyncs_per_txn"):
        assert first[name] == again[name]
    assert first["wal_bytes_per_txn"] != other["wal_bytes_per_txn"]
    assert first["tps"] != again["tps"]  # a time never reads the same twice
