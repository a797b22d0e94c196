"""Tests for the YCSB baseline."""

import random

import pytest

from repro.baselines.ycsb import (
    WORKLOADS,
    YcsbWorkload,
    ZipfianGenerator,
    load_ycsb,
    ycsb_mix,
)
from repro.engine.database import Database


@pytest.fixture
def loaded():
    db = Database("ycsb")
    load_ycsb(db, records=200)
    return db


class TestZipfian:
    def test_range(self):
        gen = ZipfianGenerator(100, rng=random.Random(0))
        draws = [gen.next() for _ in range(2000)]
        assert min(draws) >= 1
        assert max(draws) <= 100

    def test_skew_favours_small_keys(self):
        gen = ZipfianGenerator(1000, rng=random.Random(0))
        draws = [gen.next() for _ in range(5000)]
        top_decile = sum(1 for draw in draws if draw <= 100)
        assert top_decile / len(draws) > 0.5  # zipf 0.99: heavy head

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0)


class TestWorkloads:
    def test_core_workloads_defined(self):
        assert set(WORKLOADS) == set("ABCDEF")
        assert WORKLOADS["C"] == {"read": 1.0}
        assert WORKLOADS["E"]["scan"] == 0.95

    @pytest.mark.parametrize("workload", list("ABCDEF"))
    def test_each_workload_runs(self, loaded, workload):
        driver = YcsbWorkload(loaded.clone_full(f"copy{workload}"),
                              workload, records=200)
        driver.run_many(60)
        assert sum(driver.executed.values()) == 60

    def test_workload_a_mixes_reads_and_updates(self, loaded):
        driver = YcsbWorkload(loaded, "A", records=200)
        driver.run_many(200)
        assert driver.executed["read"] > 50
        assert driver.executed["update"] > 50

    def test_workload_d_inserts_grow_table(self, loaded):
        driver = YcsbWorkload(loaded, "D", records=200)
        before = loaded.table("USERTABLE").row_count
        driver.run_many(100)
        assert loaded.table("USERTABLE").row_count == before + driver.executed["insert"]

    def test_updates_change_fields(self, loaded):
        driver = YcsbWorkload(loaded, "A", records=200)
        driver.run_many(100)
        changed = loaded.query(
            "SELECT COUNT(*) FROM usertable WHERE FIELD0 >= ?", ["rmw-"]
        )
        # at least some updates/rmws landed (prefix match via >=)
        assert driver.executed["update"] > 0

    def test_unknown_workload_rejected(self, loaded):
        with pytest.raises(ValueError):
            YcsbWorkload(loaded, "Z")
        with pytest.raises(ValueError):
            ycsb_mix("Z")


class TestMix:
    def test_mix_hot_set(self):
        mix = ycsb_mix("A")  # over DEFAULT_RECORDS (1000)
        assert mix.hot_fraction > 0
        assert mix.hot_set_bytes < mix.working_set_bytes

    def test_workload_c_is_read_only(self):
        assert ycsb_mix("C").write_fraction == 0.0

    def test_workload_a_half_writes(self):
        assert ycsb_mix("A").write_fraction == pytest.approx(0.5)

    def test_latest_distribution_for_d(self):
        assert ycsb_mix("D").hot_fraction > ycsb_mix("A").hot_fraction
