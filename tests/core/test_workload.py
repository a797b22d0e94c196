"""Tests for T1-T4, the mixes and the functional executor."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.tpcc import TpccWorkload, load_tpcc
from repro.baselines.ycsb import YcsbWorkload, load_ycsb
from repro.core.datagen import load_sales_database, nominal_bytes
from repro.core.distributions import (
    LatestDistribution,
    UniformDistribution,
    make_distribution,
)
from repro.core.workload import (
    LAG_PATTERNS,
    READ_ONLY,
    READ_WRITE,
    THROUGHPUT_PATTERNS,
    TXN_CLASSES,
    WRITE_ONLY,
    SalesWorkload,
    TransactionMix,
    )
from repro.core.microservices import ExtendedWorkload, load_extended
from repro.engine.database import Database


class TestDistributions:
    def test_uniform_covers_key_space(self):
        dist = UniformDistribution(100, random.Random(0))
        keys = {dist.next_key() for _ in range(2000)}
        assert min(keys) >= 1 and max(keys) <= 100
        assert len(keys) > 90

    def test_latest_concentrates_on_recent_keys(self):
        dist = LatestDistribution(10_000, k=10, rng=random.Random(0))
        keys = [dist.next_key() for _ in range(2000)]
        hot = sum(1 for key in keys if key > 10_000 - 10)
        assert hot / len(keys) > 0.8  # skew=0.9 default

    def test_latest_hot_metadata(self):
        dist = LatestDistribution(1000, k=25, rng=random.Random(0))
        assert dist.hot_keys == 25
        assert dist.hot_fraction == 0.9

    def test_factory_strings(self):
        rng = random.Random(0)
        assert isinstance(make_distribution("uniform", 10, rng), UniformDistribution)
        assert make_distribution("latest", 10, rng).k == 10
        assert make_distribution("latest-7", 100, rng).k == 7
        with pytest.raises(ValueError):
            make_distribution("zipf", 10, rng)

    def test_invalid_parameters(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            UniformDistribution(0, rng)
        with pytest.raises(ValueError):
            LatestDistribution(10, 0, rng)


class TestTransactionMix:
    def test_paper_throughput_patterns(self):
        assert READ_ONLY.weights == (("T3", 100),)
        assert dict(READ_WRITE.weights) == {"T1": 15, "T2": 5, "T3": 80}
        assert WRITE_ONLY.weights == (("T1", 100),)
        assert set(THROUGHPUT_PATTERNS) == {"RO", "RW", "WO"}

    def test_lag_patterns_use_t1_t2_t4(self):
        mixed = LAG_PATTERNS["mixed"]
        assert dict(mixed.weights) == {"T1": 60, "T2": 30, "T4": 10}
        assert dict(LAG_PATTERNS["delete"].weights) == {"T4": 100}

    def test_invalid_mixes_rejected(self):
        with pytest.raises(ValueError):
            TransactionMix()
        with pytest.raises(ValueError):
            TransactionMix(t1=-1, t3=10)

    def test_to_workload_mix_uniform(self):
        mix = READ_WRITE.to_workload_mix(10)
        assert mix.working_set_bytes == nominal_bytes(10)
        assert mix.hot_fraction == 0.0
        assert mix.write_fraction == pytest.approx(0.2)

    def test_to_workload_mix_latest_sets_hot_set(self):
        mix = READ_WRITE.to_workload_mix(1, distribution="latest-10")
        assert mix.hot_fraction > 0
        assert 0 < mix.hot_set_bytes < mix.working_set_bytes

    def test_txn_class_footprints(self):
        assert TXN_CLASSES["T3"].page_writes == 0
        assert TXN_CLASSES["T2"].statements == 3
        assert TXN_CLASSES["T1"].rows_written == 1
        assert TXN_CLASSES["T2"].rows_updated == 2

    @settings(max_examples=30, deadline=None)
    @given(
        t1=st.floats(min_value=0, max_value=100),
        t2=st.floats(min_value=0, max_value=100),
        t3=st.floats(min_value=0, max_value=100),
    )
    def test_property_mix_aggregates_bounded(self, t1, t2, t3):
        if t1 + t2 + t3 <= 0:
            return
        mix = TransactionMix(t1=t1, t2=t2, t3=t3).to_workload_mix(1)
        classes = [cls for cls, _weight in mix.classes]
        eps = 1e-12
        assert (min(c.cpu_s for c in classes) - eps
                <= mix.cpu_s
                <= max(c.cpu_s for c in classes) + eps)
        assert 0.0 <= mix.write_fraction <= 1.0


class TestSalesWorkload:
    @pytest.fixture
    def loaded(self):
        db, _ = load_sales_database(row_scale=0.001)
        return db

    def test_t1_inserts_orderline(self, loaded):
        workload = SalesWorkload(loaded, WRITE_ONLY)
        before = loaded.table("ORDERLINE").row_count
        ol_id = workload.run_t1()
        assert loaded.table("ORDERLINE").row_count == before + 1
        assert loaded.query(
            "SELECT OL_ID FROM orderline WHERE OL_ID = ?", [ol_id]
        ).rows

    def test_t2_marks_order_paid_and_credits_customer(self, loaded):
        workload = SalesWorkload(loaded, TransactionMix(t2=100))
        outcome = workload.run_t2()
        assert outcome is not None
        o_id, stamp = outcome
        status, updated = loaded.query(
            "SELECT O_STATUS, O_UPDATEDDATE FROM orders WHERE O_ID = ?", [o_id]
        ).rows[0]
        assert status == "PAID"
        assert updated == stamp

    def test_t3_reads_order(self, loaded):
        workload = SalesWorkload(loaded, READ_ONLY)
        row = workload.run_t3()
        assert row is not None and len(row) == 3

    def test_t4_deletes_existing_orderline(self, loaded):
        workload = SalesWorkload(loaded, TransactionMix(t4=100))
        before = loaded.table("ORDERLINE").row_count
        deleted = [ol_id for ol_id in (workload.run_t4() for _ in range(20)) if ol_id]
        assert loaded.table("ORDERLINE").row_count == before - len(deleted)
        assert deleted
        for ol_id in deleted:  # run_t4 names the orderline it deleted
            assert not loaded.query(
                "SELECT OL_ID FROM orderline WHERE OL_ID = ?", [ol_id]
            ).rows

    def test_mix_ratios_respected(self, loaded):
        workload = SalesWorkload(loaded, READ_WRITE, seed=3)
        workload.run_many(400)
        counts = workload.executed
        assert counts["T3"] > counts["T1"] > counts["T2"]
        assert counts["T4"] == 0

    def test_deterministic_given_seed(self):
        db1, _ = load_sales_database(row_scale=0.001)
        db2, _ = load_sales_database(row_scale=0.001)
        w1 = SalesWorkload(db1, READ_WRITE, seed=11)
        w2 = SalesWorkload(db2, READ_WRITE, seed=11)
        w1.run_many(100)
        w2.run_many(100)
        assert w1.executed == w2.executed
        assert (db1.query("SELECT COUNT(*) FROM orderline").scalar()
                == db2.query("SELECT COUNT(*) FROM orderline").scalar())


def _sales():
    db, _ = load_sales_database(row_scale=0.001)
    return SalesWorkload(db, LAG_PATTERNS["mixed"], seed=11)


def _extended():
    db, _ = load_sales_database(row_scale=0.001)
    return ExtendedWorkload(db, load_extended(db, row_scale=0.001), seed=11)


def _ycsb():
    db = Database("ycsb")
    return YcsbWorkload(db, "F", records=load_ycsb(db, records=200))


def _tpcc():
    db = Database("tpcc")
    return TpccWorkload(
        db, load_tpcc(db, warehouses=1, customer_scale=0.003, item_scale=0.003)
    )


@pytest.mark.parametrize("build, executed", [
    (_sales, {"T1": 92, "T2": 38, "T3": 0, "T4": 20}),
    (_extended, {"T5": 16, "T6": 104, "T7": 14, "T8": 16}),
    (_ycsb, {"read": 65, "rmw": 85}),
    (_tpcc, {"new_order": 64, "payment": 76, "order_status": 5,
             "delivery": 2, "stock_level": 3}),
], ids=["sales", "extended", "ycsb", "tpcc"])
def test_every_mix_draws_its_pinned_sequence(build, executed):
    """The counts each mix workload reached after 150 drawn transactions
    at a fixed seed before its draw moved onto the shared driver: a
    refactor of the driver must keep every seeded run's draws."""
    workload = build()
    for _ in range(150):
        workload.run_one()
    assert workload.executed == executed
