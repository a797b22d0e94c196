"""The five workloads and the three tiers they run on.

A *tier* is how far a transaction travels: straight into one engine
(:class:`InlineTier`), through the shard router and coordinator
(:class:`FleetTier`), or over the wire protocol and admission queue to
the same fleet (:class:`SocketTier`).  The ``sales_*`` workloads replay
one script on all three, so their numbers subtract; ``pay2pc_fleet`` is
write-heavy with a cross-shard half, and ``sales_socket_open`` sends on
a schedule instead of waiting for replies.

Everything a tier reads from the program comes through public
attributes: WAL positions and fsync counts, plan-cache and vacuum
counters, the coordinator's commit counts, the server's and admission
controller's accounting.
"""

from __future__ import annotations

import asyncio
import resource
import selectors
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.client import EngineClient, FleetClient
from repro.core.datagen import load_sales_database
from repro.serve.client import AsyncSQLClient
from repro.serve.server import SQLServer
from repro.shard.fleet import load_sales_fleet

from bench.replay import Tally, replay_async, replay_open, replay_sync
from bench.script import (
    BLOCK,
    KeySpace,
    PayScript,
    SalesScript,
    Txn,
    interleave,
    poisson_dues,
)

#: 72 000 rows (6 000 customers, 6 000 orders, 60 000 orderlines): far
#: more rows than clients, so contention is not what is measured
ROW_SCALE = 0.02
N_SHARDS = 2
#: T4 deletes only ids below this; T1's per-shard auto-increment mints
#: ids from just under 60 000 upwards, so the two never meet
KEYS = KeySpace(orders=6_000, customers=6_000, orderlines=54_000)
#: transactions replayed untimed at the end of every set-up
WARMUP_TXNS = 1_000
#: open loop: offered transactions per second over all connections --
#: about a third of what the socket tier sustains closed-loop here
OPEN_RATE = 2_000.0
#: open loop: a transaction later than this from its due time misses
SLO_S = 0.005


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    tier: str
    script: str
    #: transactions per timed slice (all lanes together)
    slice_txns: int
    #: slices in the counter window (see bench.run)
    window_slices: int
    #: slices between checkpoints (more than the counter window, which
    #: ends in a crash that must find the whole window in the log)
    checkpoint_slices: int


SPECS: Tuple[Spec, ...] = (
    Spec(
        "sales_inline",
        "T1-T4 script straight into one engine: parser cache, executor, "
        "locks, MVCC and WAL do all the work; router, 2PC, wire and "
        "admission are bypassed",
        tier="inline", script="sales", slice_txns=2_000, window_slices=10,
        checkpoint_slices=20,
    ),
    Spec(
        "sales_fleet",
        "the identical script through the router and coordinator of a "
        "2-shard fleet; minus sales_inline it prices the shard layer on "
        "its single-shard fast path",
        tier="fleet", script="sales", slice_txns=2_000, window_slices=10,
        checkpoint_slices=20,
    ),
    Spec(
        "sales_socket",
        "the identical script over 2 connections to the socket server in "
        "front of the same fleet; minus sales_fleet it prices wire, "
        "server and admission",
        tier="socket", script="sales", slice_txns=1_000, window_slices=8,
        checkpoint_slices=12,
    ),
    Spec(
        "pay2pc_fleet",
        "payments, half of them cross-shard: 2PC- and fsync-bound, and "
        "the workload whose crash recovery replays the most WAL per txn",
        tier="fleet", script="pay", slice_txns=1_000, window_slices=10,
        checkpoint_slices=16,
    ),
    Spec(
        "sales_socket_open",
        "the socket path under Poisson arrivals at a fixed 2000 txn/s, "
        "timed from when each txn was due: admission wait and the tail "
        "without coordinated omission",
        tier="open", script="sales", slice_txns=1_000, window_slices=3,
        checkpoint_slices=4,
    ),
)

SPEC_BY_NAME: Dict[str, Spec] = {spec.name: spec for spec in SPECS}

#: Runs like the others but is not in ``BENCHMARK.json``, so no PR is
#: gated on it.  At a quarter of capacity the process idles between
#: arrivals, and whenever the host's neighbours are busy an idle vCPU is
#: woken late: in an A/A study the open loop's median latency moved by
#: 35 % (p99 by 92 %) between runs of one commit while every closed-loop
#: metric stayed within 10 %.  No reference cancels that; the contract
#: refuses a benchmark whose own spread exceeds its bound.
UNGATED = frozenset({"sales_socket_open"})


def make_script(spec: Spec, seed: int):
    if spec.script == "pay":
        return PayScript(seed, KEYS, N_SHARDS)
    return SalesScript(seed, KEYS, lanes=2)


#: what one slice gives back: per-transaction latencies, then the
#: transactions and their results for the oracle, all in replay order,
#: and (open loop) how late each transaction was sent
SliceOut = Tuple[List[float], List[Txn], List[Any], List[float]]


class Tier:
    """A loaded database plus the client(s) a script is replayed through."""

    #: the engine databases holding the rows (one per shard)
    shards: Sequence[Any]

    #: the blocking client of the in-process tiers
    client: Any

    def replay(
        self, lanes: Sequence[Sequence[Txn]], tally: Tally, mark: Any, base: int,
        dues: Any = None,
    ) -> SliceOut:
        """Replay one slice: the lanes round-robin through ``client``."""
        txns = interleave(lanes)
        latencies, results = replay_sync(self.client, txns, tally, mark, base)
        return latencies, txns, results, []

    def crash_recover(self) -> List[Any]:
        """Crash everything, recover, and return the shard reports."""
        raise NotImplementedError

    def stop_serving(self) -> None:
        """Disconnect clients and stop the server, if there is one."""

    def close(self) -> None:
        self.stop_serving()

    # -- what the program's public counters say ------------------------------

    def rows(self, table: str) -> List[Tuple[Any, ...]]:
        return [
            row for shard in self.shards for _rid, row in shard.table(table).scan()
        ]

    def row_count(self, table: str) -> int:
        return sum(shard.table(table).row_count for shard in self.shards)

    def checkpoint(self) -> None:
        """Checkpoint every shard and drop the log before it: the
        periodic background work that bounds recovery and memory."""
        for shard in self.shards:
            shard.checkpoint(truncate_wal=True)

    def content_hashes(self) -> List[str]:
        return [shard.content_hash() for shard in self.shards]

    def counters(self) -> Dict[str, float]:
        """Cumulative counters; callers subtract two snapshots."""
        shards = self.shards
        out = {
            "wal_bytes": sum(s.wal.bytes_between(0, s.wal.last_lsn) for s in shards),
            "wal_records": sum(s.wal.last_lsn for s in shards),
            "wal_retained": sum(s.wal.retained_records for s in shards),
            "fsyncs": sum(s.wal.fsyncs for s in shards),
            "plan_hits": sum(s.plan_cache_hits for s in shards),
            "plan_misses": sum(s.plan_cache_misses for s in shards),
            "vacuum_runs": sum(s.vacuum_runs for s in shards),
            "deadlocks": sum(s.locks.deadlocks_detected for s in shards),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        out.update(self.tier_counters())
        return out

    def tier_counters(self) -> Dict[str, float]:
        return {}


class InlineTier(Tier):
    def __init__(self) -> None:
        self.db, _ = load_sales_database(row_scale=ROW_SCALE)
        # The bulk load bypassed the WAL: without a checkpoint the loaded
        # rows are not in the durable base image and crash() loses them.
        self.db.checkpoint()
        self.shards = [self.db]
        self.client = EngineClient(self.db)

    def crash_recover(self) -> List[Any]:
        self.db.crash()
        return [self.db.recover()]


class FleetTier(Tier):
    def __init__(self) -> None:
        self.fleet, _ = load_sales_fleet(N_SHARDS, row_scale=ROW_SCALE)
        self.shards = self.fleet.shards
        self.client = FleetClient(self.fleet)
        self._commits_before_crash = (0, 0)

    def crash_recover(self) -> List[Any]:
        # crash() replaces the coordinator, whose counts start again at 0
        self._commits_before_crash = self._commits()
        self.fleet.crash()
        return self.fleet.recover().shard_reports

    def _commits(self) -> Tuple[int, int]:
        coordinator = self.fleet.coordinator
        return (
            self._commits_before_crash[0] + coordinator.single_commits,
            self._commits_before_crash[1] + coordinator.cross_commits,
        )

    def tier_counters(self) -> Dict[str, float]:
        single, cross = self._commits()
        return {"single_commits": single, "cross_commits": cross}


class SocketTier(FleetTier):
    """The fleet behind a ``SQLServer`` with the default ``ServerConfig``
    (qos on), client and server on one event loop: what is measured is
    the program, not hand-offs between threads."""

    def __init__(self, lanes: int) -> None:
        super().__init__()
        # select() takes its timeout in microseconds; epoll rounds it up
        # to a millisecond, which on the open loop would make every
        # transaction up to 1 ms late before it is even sent
        self.loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
        self.server = SQLServer(self.fleet)
        host, port = self.loop.run_until_complete(self.server.start())
        self.clients = [
            AsyncSQLClient(host, port, client_name=f"bench.{lane}")
            for lane in range(lanes)
        ]
        for client in self.clients:
            self.loop.run_until_complete(client.connect())

    def replay(self, lanes, tally, mark, base, dues=None) -> SliceOut:
        if dues is None:
            per_lane = self.loop.run_until_complete(
                replay_async(self.clients, lanes, tally, mark, base)
            )
            late: List[float] = []
        else:
            per_lane, late = self.loop.run_until_complete(
                replay_open(self.clients, lanes, dues, tally, mark, base)
            )
        latencies = [value for lane, _results in per_lane for value in lane]
        txns = [txn for lane in lanes for txn in lane]
        results = [item for _lane, found in per_lane for item in found]
        return latencies, txns, results, late

    def stop_serving(self) -> None:
        if self.loop.is_closed():
            return
        for client in self.clients:
            self.loop.run_until_complete(client.close())
        self.loop.run_until_complete(self.server.stop())
        self.loop.close()

    def tier_counters(self) -> Dict[str, float]:
        server, controller = self.server, self.server.controller
        return {
            **super().tier_counters(),
            "server_statements": server.statements,
            "server_shed": server.shed,
            "server_expired": server.expired,
            "admitted": controller.admitted,
            "admission_shed": controller.shed,
            "peak_queue_depth": controller.peak_queue_depth,
        }


def make_tier(spec: Spec) -> Tier:
    if spec.tier == "inline":
        return InlineTier()
    if spec.tier == "fleet":
        return FleetTier()
    return SocketTier(lanes=2)


def slice_input(spec: Spec, script, seed: int, first_block: int, n_txns: int):
    """The lanes of one slice starting at ``first_block`` (per lane), and
    their arrival schedule on the open-loop workload."""
    per_lane = n_txns // script.lanes
    n_blocks = per_lane // BLOCK
    lanes = [script.txns(lane, first_block, n_blocks) for lane in range(script.lanes)]
    dues = None
    if spec.tier == "open":
        rate = OPEN_RATE / script.lanes
        dues = [
            poisson_dues(seed, lane, first_block, len(txns), rate)
            for lane, txns in enumerate(lanes)
        ]
    return lanes, dues, n_blocks
