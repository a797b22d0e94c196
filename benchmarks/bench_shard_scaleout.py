"""Shard scale-out bench: fleet throughput vs shard count and 2PC cost.

Drives the payment workload through the sharded fleet
(:mod:`repro.shard`) three ways and asserts the PR's headline claims
deterministically (fixed seed):

* **scale-out** -- with one process per shard (mp driver, all-local
  mix) and a fixed per-shard workload, node-time throughput at 4
  shards reaches at least 3x the 1-shard figure.  Node time is the max
  per-worker CPU time, i.e. the fleet's throughput with a core per
  shard.
* **2PC overhead** -- sweeping the cross-shard ratio on the inline
  driver, every two-writer commit costs 2 fsyncs -- 1 on its last
  agent (DECISION) and 1 on the other writer (PREPARE; its DECISION,
  behind that PREPARE, is no flush) -- against 1 for the single-shard
  fast path, so the fsync-per-commit curve climbs with the ratio.
* **group commit** -- batching coordinator decisions collapses one
  DECISION fsync per transaction per shard into one per shard per
  batch.

Runs two ways:

* ``pytest benchmarks/bench_shard_scaleout.py`` -- the bench suite
  path, with the scale-out numbers in ``benchmark.extra_info``;
* ``python benchmarks/bench_shard_scaleout.py [--quick] [--seed N]`` --
  the CI smoke entry point; exits non-zero if any claim fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.report import TextTable
from repro.engine.types import Column, ColumnType, Schema
from repro.shard import ShardedDatabase, run_inline, run_multiprocess

SHARD_COUNTS = [1, 2, 4]
CROSS_RATIOS = [0.0, 0.5, 1.0]


def run_sweeps(quick: bool = False, seed: int = 42):
    """The mp shard-count sweep plus the inline cross-ratio sweep.

    The scale-out sweep holds the *per-shard* transaction count fixed
    (weak scaling): node time is the max per-worker CPU time, so with
    equal work per worker the speedup reads directly as how much total
    throughput a core-per-shard deployment gains per shard added.
    """
    per_shard = 120 if quick else 250
    scaleout = [
        run_multiprocess(n_shards, per_shard * n_shards, seed=seed)
        for n_shards in SHARD_COUNTS
    ]
    cross = [
        run_inline(2, per_shard, cross_ratio=ratio, seed=seed)
        for ratio in CROSS_RATIOS
    ]
    return scaleout, cross


def measure_group_commit(batch: int = 8):
    """Fsyncs for ``batch`` cross-shard txns: one by one vs one batch."""
    costs = {}
    for batched in (False, True):
        fleet = ShardedDatabase(2, name=f"gc-{batched}")
        fleet.create_table(Schema(
            "KV",
            (Column("K", ColumnType.INT, nullable=False),
             Column("V", ColumnType.INT, default=0)),
            primary_key="K",
        ))
        for key in range(batch * 4):
            fleet.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [key, 0])
        keys = list(range(batch * 4))
        gtxns = []
        before = fleet.fsyncs
        for index in range(batch):
            gtxn = fleet.begin()
            # touch one key per shard so every txn is cross-shard
            pair = [k for k in keys if fleet.router.shard_for("KV", k) == 0]
            other = [k for k in keys if fleet.router.shard_for("KV", k) == 1]
            for key in (pair[index % len(pair)], other[index % len(other)]):
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [index, key], gtxn=gtxn
                )
            if batched:
                gtxns.append(gtxn)
            else:
                gtxn.commit()
        if batched:
            fleet.coordinator.commit_many(gtxns)
        costs[batched] = fleet.fsyncs - before
    return costs[False], costs[True]


def _report(scaleout, cross, unbatched: int, batched: int) -> TextTable:
    base = scaleout[0]
    table = TextTable(
        ["driver", "shards", "cross", "committed", "tps node", "speedup",
         "fsync/commit"],
        title="Fleet scale-out and 2PC cost (payment mix)",
    )
    for result in scaleout:
        table.add_row(
            result.driver, result.n_shards, f"{result.cross_ratio:.0%}",
            result.committed, round(result.tps_node),
            f"x{result.tps_node / base.tps_node:.2f}",
            round(result.fsyncs / max(1, result.committed), 2),
        )
    for result in cross:
        table.add_row(
            result.driver, result.n_shards, f"{result.cross_ratio:.0%}",
            result.committed, round(result.tps_node), "-",
            round(result.fsyncs / max(1, result.committed), 2),
        )
    table.add_row("batch", 2, "100%", "-", "-", "-",
                  f"{unbatched} -> {batched}")
    return table


def _check(scaleout, cross, unbatched: int, batched: int) -> None:
    base = scaleout[0]
    wide = scaleout[-1]
    assert wide.n_shards == 4 and base.n_shards == 1
    # real forked workers, not the sequential fallback, on CI
    speedup = wide.tps_node / base.tps_node
    assert speedup >= 3.0, (
        f"node-time speedup at 4 shards is x{speedup:.2f} "
        f"({wide.driver}); the scale-out claim needs >= x3"
    )
    for result in scaleout:
        assert result.committed == result.transactions, (
            f"{result.aborted} aborts in the all-local mix at "
            f"{result.n_shards} shards"
        )
    # fsync cost climbs with the cross-shard ratio: the fast path pays 1
    # fsync per commit, a 2-participant 2PC commit pays 2
    per_commit = [r.fsyncs / max(1, r.committed) for r in cross]
    assert per_commit == sorted(per_commit), (
        f"fsync/commit not monotone over cross ratios: {per_commit}"
    )
    assert per_commit[0] < 1.5 < per_commit[-1], (
        f"expected ~1 fsync/commit all-local and ~2 all-cross, "
        f"got {per_commit[0]:.2f} and {per_commit[-1]:.2f}"
    )
    # group commit amortizes the last agent's DECISION records: 8 txns
    # x 2 shards drop from 2 fsyncs per txn (16) to shard 1's 8 PREPAREs
    # plus one group DECISION fsync on shard 0 (9)
    assert batched < unbatched, (
        f"batched commit cost {batched} fsyncs vs {unbatched} unbatched"
    )


def test_shard_scaleout(benchmark):
    scaleout, cross = benchmark.pedantic(
        run_sweeps, kwargs={"quick": True}, rounds=1, iterations=1
    )
    unbatched, batched = measure_group_commit()
    _report(scaleout, cross, unbatched, batched).print()
    base = scaleout[0]
    benchmark.extra_info["tps_node_1_shard"] = base.tps_node
    benchmark.extra_info["tps_node_4_shards"] = scaleout[-1].tps_node
    benchmark.extra_info["speedup_4_shards"] = scaleout[-1].tps_node / base.tps_node
    benchmark.extra_info["mp_driver"] = scaleout[-1].driver
    _check(scaleout, cross, unbatched, batched)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (120 txns/shard)"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload and datagen seed"
    )
    args = parser.parse_args(argv)
    scaleout, cross = run_sweeps(quick=args.quick, seed=args.seed)
    unbatched, batched = measure_group_commit()
    _report(scaleout, cross, unbatched, batched).print()
    try:
        _check(scaleout, cross, unbatched, batched)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    base, wide = scaleout[0], scaleout[-1]
    print(
        f"node-time speedup x{wide.tps_node / base.tps_node:.2f} at "
        f"{wide.n_shards} shards ({wide.driver} driver); group commit "
        f"{unbatched} -> {batched} fsyncs per {8}-txn batch"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
