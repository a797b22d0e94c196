"""Tests for the SysBench baseline."""

import pytest

from repro.baselines.sysbench import (
    DATASET_BYTES,
    DEFAULT_TABLES,
    SysbenchWorkload,
    load_sysbench,
    sysbench_mix,
)
from repro.engine.database import Database


@pytest.fixture
def loaded():
    db = Database("sb")
    load_sysbench(db, rows=100)
    return db


def total(db, expression):
    """``expression`` summed over every sbtest table."""
    return sum(
        db.query(f"SELECT {expression} FROM sbtest{index}").scalar()
        for index in range(1, DEFAULT_TABLES + 1)
    )


def test_load_creates_tables_and_rows(loaded):
    assert loaded.table("SBTEST1").row_count == 100
    assert loaded.table(f"SBTEST{DEFAULT_TABLES}").row_count == 100
    assert "sbtest1_k" in loaded.table("SBTEST1").secondary_indexes


def test_point_select_workload(loaded):
    workload = SysbenchWorkload(loaded, "oltp_point_select")
    workload.run_many(50)
    assert workload.executed == 50


def test_write_only_updates_k(loaded):
    workload = SysbenchWorkload(loaded, "oltp_write_only")
    before = total(loaded, "SUM(K)")
    workload.run_many(30)
    after = total(loaded, "SUM(K)")
    assert after == before + 30  # each update adds exactly 1


def test_read_write_preserves_row_count(loaded):
    workload = SysbenchWorkload(loaded, "oltp_read_write")
    before = total(loaded, "COUNT(*)")
    workload.run_many(20)
    after = total(loaded, "COUNT(*)")
    assert after == before  # delete+reinsert pairs balance out


def test_unknown_kind_rejected(loaded):
    with pytest.raises(ValueError):
        SysbenchWorkload(loaded, "oltp_magic")
    with pytest.raises(ValueError):
        sysbench_mix("oltp_magic")


def test_mix_working_set_scales():
    base = sysbench_mix("oltp_read_write")
    assert base.working_set_bytes == pytest.approx(DATASET_BYTES)


def test_mix_shapes():
    assert sysbench_mix("oltp_point_select").write_fraction == 0.0
    assert sysbench_mix("oltp_write_only").write_fraction == 1.0
    rw = sysbench_mix("oltp_read_write")
    assert rw.statements > 10  # the classic 14-statement transaction


def test_deterministic(loaded):
    db2 = Database("sb2")
    load_sysbench(db2, rows=100)
    w1 = SysbenchWorkload(loaded, "oltp_write_only")
    w2 = SysbenchWorkload(db2, "oltp_write_only")
    w1.run_many(25)
    w2.run_many(25)
    assert (loaded.query("SELECT SUM(K) FROM sbtest1").scalar()
            == db2.query("SELECT SUM(K) FROM sbtest1").scalar())
