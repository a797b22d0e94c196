#!/usr/bin/env python3
"""Why a cloud benchmark needs cloud workloads (the Figure 9 story).

Runs four functional workloads against the real engine -- CloudyBench's
sales transactions, SysBench OLTP, YCSB, and TPC-C -- then drives CDB3's
autoscaler with each of them to show that only CloudyBench's elastic
patterns actually exercise the scaling range.

Run with::

    python examples/compare_benchmarks.py
"""

from repro.baselines.sysbench import SysbenchWorkload, load_sysbench, sysbench_mix
from repro.baselines.tpcc import TpccWorkload, load_tpcc, tpcc_mix
from repro.baselines.ycsb import YcsbWorkload, load_ycsb, ycsb_mix
from repro.cloud.architectures import get
from repro.core import READ_WRITE, load_sales_database
from repro.core.elasticity import ELASTIC_PATTERNS, ElasticityEvaluator, custom_pattern
from repro.core.report import TextTable, sparkline
from repro.core.workload import SalesWorkload
from repro.engine.database import Database


def functional_side_by_side() -> None:
    print("== the same engine, four benchmarks (functional, scaled down) ==")
    table = TextTable(["benchmark", "tables", "transactions run", "notes"])

    sales_db, _ = load_sales_database(row_scale=0.001)
    sales = SalesWorkload(sales_db, READ_WRITE)
    sales.run_many(500)
    table.add_row("CloudyBench", len(sales_db.table_names), 500,
                  f"mix {sales.executed}")

    sysbench_db = Database("sysbench")
    load_sysbench(sysbench_db, tables=3, rows=300)
    sysbench = SysbenchWorkload(sysbench_db, "oltp_read_write")
    sysbench.run_many(200)
    table.add_row("SysBench", len(sysbench_db.table_names), 200,
                  "single-table read/write, no business logic")

    ycsb_db = Database("ycsb")
    records = load_ycsb(ycsb_db, records=300)
    ycsb = YcsbWorkload(ycsb_db, "A", records=records)
    ycsb.run_many(200)
    table.add_row("YCSB", len(ycsb_db.table_names), 200,
                  f"key-value, no transactions, mix {ycsb.executed}")

    tpcc_db = Database("tpcc")
    scale = load_tpcc(tpcc_db, warehouses=1, customer_scale=0.003, item_scale=0.003)
    tpcc = TpccWorkload(tpcc_db, scale)
    tpcc.run_many(200)
    table.add_row("TPC-C", len(tpcc_db.table_names), 200,
                  f"mix {tpcc.executed}")
    table.print()


def autoscaler_comparison() -> None:
    print("== CDB3's CPU allocation under each benchmark (12 minutes) ==")
    arch = get("cdb3")

    proportions = []
    for key in ("single_peak", "large_spike", "single_valley", "zero_valley"):
        proportions.extend(ELASTIC_PATTERNS[key].proportions)
    runs = {
        "CloudyBench": (custom_pattern("cloudy", proportions),
                        READ_WRITE.to_workload_mix(1), 110),
        "SysBench": (custom_pattern("flat", [1.0] * 12),
                     sysbench_mix("oltp_read_write"), 11),
        "YCSB": (custom_pattern("flat", [1.0] * 12), ycsb_mix("A"), 11),
        "TPC-C": (custom_pattern("flat", [1.0] * 12), tpcc_mix(1), 44),
    }
    for name, (pattern, mix, tau) in runs.items():
        evaluator = ElasticityEvaluator(arch, mix, measure_window_s=720.0)
        result = evaluator.run(pattern, tau)
        values = result.collector.vcores.values
        print(f"  {name:12s} range {min(values):.2f}-{max(values):.2f} vCores  "
              f"{sparkline(values, width=48)}")
    print("\nConstant-load benchmarks barely move the allocation; the")
    print("peaks and valleys of CloudyBench sweep it across the CU range.")


if __name__ == "__main__":
    functional_side_by_side()
    autoscaler_comparison()
