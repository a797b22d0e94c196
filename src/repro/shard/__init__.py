"""Sharded engine fleet: hash partitioning plus cross-shard 2PC.

The package scales the single-node engine *out*: a
:class:`~repro.shard.fleet.ShardedDatabase` fronts N real
:class:`~repro.engine.database.Database` instances, a
:class:`~repro.shard.router.ShardRouter` hashes each table's partition
key to an owning shard (single-shard statements take a fast path), and
a :class:`~repro.shard.coordinator.TxnCoordinator` runs presumed-abort
two-phase commit for the transactions that touch more than one shard.

Durability follows the textbook protocol: PREPARE records on every
writing participant but the last agent (the lowest-id writer, whose
DECISION is its vote), the coordinator's commit DECISION logged on each
participant's WAL (group-committed to amortize the fsync point), and a
fleet-level recovery pass that resolves in-doubt branches after a crash
by consulting the union of durable decisions.
"""

from repro.engine.errors import ShardUnavailableError
from repro.shard.coordinator import (
    PHASES,
    CoordinatorCrash,
    GlobalTransaction,
    TxnCoordinator,
)
from repro.shard.driver import ShardRunResult, run_inline, run_multiprocess, run_scaleout
from repro.shard.fleet import (
    FleetRecoveryReport,
    ShardedDatabase,
    load_sales_fleet,
    load_sales_shard,
    sales_router,
)
from repro.shard.router import ShardError, ShardRouter, stable_hash
from repro.shard.workload import ShardSalesWorkload

__all__ = [
    "PHASES",
    "CoordinatorCrash",
    "ShardUnavailableError",
    "GlobalTransaction",
    "TxnCoordinator",
    "ShardRunResult",
    "run_inline",
    "run_multiprocess",
    "run_scaleout",
    "FleetRecoveryReport",
    "ShardedDatabase",
    "load_sales_fleet",
    "load_sales_shard",
    "sales_router",
    "ShardError",
    "ShardRouter",
    "stable_hash",
    "ShardSalesWorkload",
]
