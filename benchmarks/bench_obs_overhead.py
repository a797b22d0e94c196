"""Observability overhead: instrumentation must be ~free when off.

Runs the identical engine transaction workload four ways -- no
observer at all, the NULL_OBSERVER fast path, a live observer with
tracing and metrics, and a live observer with a saturated ring buffer
-- interleaved round-robin so machine-load drift hits every mode
equally.  The contract from the design:

* **disabled**: instrumented call sites cost one attribute load and a
  predictable branch, so throughput is indistinguishable from the
  uninstrumented engine (within timing noise);
* **enabled**: full observability costs a small *fixed* amount per
  transaction (~17 observation points: counters, two histogram
  observations, one span, three clock reads -- ~15 microseconds in
  total).  The percentage column therefore depends on transaction
  weight: this workload's txns are deliberately tiny (two point
  statements, tens of microseconds), the worst case, and read 30-40%
  now that the engine hot-path overhaul (compiled statements, binary
  WAL codec) roughly halved the per-txn engine time under the fixed
  observer cost; for any realistic transaction (>=300us of engine
  work -- contention, scans, DES client round trips) the same fixed
  cost is under the 5% target.

The table and ``benchmark.extra_info`` report both the percentage and
the absolute added microseconds per transaction.  Timing asserts use
generous regression bounds (60% enabled on the worst-case workload,
10% disabled) so CI noise cannot flake the suite.
"""

import time

from repro.core.report import TextTable
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.obs import NULL_OBSERVER, Observer

N_ROWS = 200
N_TXNS = 600
REPEATS = 5


def _make_db(observer=None) -> Database:
    db = Database("bench-obs", observer=observer)
    db.create_table(Schema(
        "ACCOUNTS",
        (
            Column("A_ID", ColumnType.INT, nullable=False),
            Column("BALANCE", ColumnType.DECIMAL, nullable=False, default=0.0),
        ),
        primary_key="A_ID",
    ))
    db.table("ACCOUNTS").load((a_id, 100.0) for a_id in range(1, N_ROWS + 1))
    return db


def _workload(db: Database) -> None:
    update = db.prepare("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?")
    select = db.prepare("SELECT BALANCE FROM accounts WHERE A_ID = ?")
    for index in range(N_TXNS):
        key = index % N_ROWS + 1
        txn = db.begin()
        db.execute(update, [float(index), key], txn=txn)
        db.execute(select, [key], txn=txn)
        txn.commit()


def _measure(observers) -> list:
    """Best-of-REPEATS wall seconds per observer mode, interleaved.

    Modes are timed round-robin (mode1, mode2, ... repeated) rather
    than in contiguous blocks, so machine-load drift during the run
    hits every mode equally instead of biasing whichever ran last.
    """
    best = [float("inf")] * len(observers)
    for _ in range(REPEATS):
        for index, observer in enumerate(observers):
            db = _make_db(observer)
            started = time.perf_counter()
            _workload(db)
            best[index] = min(best[index], time.perf_counter() - started)
    return best


def test_observability_overhead(benchmark):
    # Warm up bytecode and allocator caches so the first timed mode is
    # not penalised for going first.
    _workload(_make_db(None))

    enabled_obs = Observer()
    # a tiny ring buffer forces constant drop-from-the-back churn
    saturated_obs = Observer(trace_capacity=64)

    baseline, disabled, enabled, saturated = benchmark.pedantic(
        lambda: _measure([None, NULL_OBSERVER, enabled_obs, saturated_obs]),
        rounds=1,
        iterations=1,
    )

    def pct(value: float) -> float:
        return (value / baseline - 1.0) * 100.0

    def us_per_txn(value: float) -> float:
        return (value - baseline) / N_TXNS * 1e6

    table = TextTable(
        ["mode", "best of 5 (s)", "overhead %", "us/txn added"],
        title=f"Observability overhead ({N_TXNS} txns, {N_ROWS} rows)",
    )
    table.add_row("no observer", round(baseline, 4), 0.0, 0.0)
    table.add_row(
        "NULL_OBSERVER", round(disabled, 4),
        round(pct(disabled), 2), round(us_per_txn(disabled), 2),
    )
    table.add_row(
        "enabled", round(enabled, 4),
        round(pct(enabled), 2), round(us_per_txn(enabled), 2),
    )
    table.add_row(
        "enabled, tiny ring", round(saturated, 4),
        round(pct(saturated), 2), round(us_per_txn(saturated), 2),
    )
    table.print()

    benchmark.extra_info["overhead_pct"] = {
        "disabled": round(pct(disabled), 3),
        "enabled": round(pct(enabled), 3),
        "saturated": round(pct(saturated), 3),
    }
    benchmark.extra_info["us_per_txn_added"] = {
        "disabled": round(us_per_txn(disabled), 3),
        "enabled": round(us_per_txn(enabled), 3),
        "saturated": round(us_per_txn(saturated), 3),
    }

    # The observer actually observed: txns counted, spans recorded.
    # (One observer accumulates over all REPEATS timing runs.)
    commits = enabled_obs.metrics.counters["engine.txn.commit"].value
    assert commits == N_TXNS * REPEATS
    assert len(enabled_obs.tracer) > 0
    assert saturated_obs.tracer.dropped > 0

    # Regression bounds, deliberately loose against CI noise.  Typical
    # measured values: ~0% disabled (within noise either way), and
    # 30-40% enabled on this worst-case tiny-txn workload -- a fixed
    # ~15us cost per transaction that reads large against the engine's
    # post-overhaul ~35us txns but sits under 5% at realistic
    # transaction weights (see module docstring).
    assert disabled <= baseline * 1.10, (
        f"NULL_OBSERVER should be free, measured {pct(disabled):.1f}% overhead"
    )
    assert enabled <= baseline * 1.60, (
        f"enabled observability too expensive: {pct(enabled):.1f}% overhead"
        f" ({us_per_txn(enabled):.1f}us per txn)"
    )
    assert saturated <= baseline * 1.60, (
        f"ring-buffer churn too expensive: {pct(saturated):.1f}% overhead"
        f" ({us_per_txn(saturated):.1f}us per txn)"
    )
