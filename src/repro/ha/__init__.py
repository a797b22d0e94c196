"""Shard-level high availability: replication, failover, verification.

The package layers availability on top of the sharded fleet:

* :mod:`repro.ha.replication` -- synchronous WAL shipping from each
  shard primary to a warm standby (``sync`` / ``semisync`` ack modes);
* :mod:`repro.ha.lease` -- the lease-based failure
  detector bounding how long a dead primary goes unnoticed;
* :mod:`repro.ha.cluster` -- :class:`HAFleet`, which promotes a fresh
  standby through the engine's own restart path and reroutes traffic,
  surfacing a bounded window of retryable errors;
* :mod:`repro.ha.history` / :mod:`repro.ha.workload` -- a Jepsen-style
  operation history over cross-shard *pairs* plus the checker that
  proves atomicity, monotonicity, and durability of acked commits;
* :mod:`repro.ha.crashmatrix` -- the systematic sweep of every 2PC
  phase boundary x {coordinator, participant, replica} x failover mode,
  pinned to zero violations;
* :mod:`repro.ha.evaluator` -- the R-Score: availability delivered
  through a primary kill, zeroed by any consistency violation.
"""

from repro.ha.cluster import HAFleet, HAShard
from repro.ha.evaluator import HAEvaluator, HAResult
from repro.ha.history import CheckReport, History, HistoryChecker, Op, Violation
from repro.ha.lease import LeaderLease, LeaseConfig
from repro.ha.replication import ACK_MODES, WalShipper, bootstrap_standby
from repro.ha.workload import PairWorkload, build_pairs_fleet, pairs_schema, place_pairs
from repro.sim.events import VirtualClock

__all__ = [
    "HAFleet",
    "HAShard",
    "HAEvaluator",
    "HAResult",
    "CheckReport",
    "History",
    "HistoryChecker",
    "Op",
    "Violation",
    "LeaderLease",
    "LeaseConfig",
    "VirtualClock",
    "ACK_MODES",
    "WalShipper",
    "bootstrap_standby",
    "PairWorkload",
    "build_pairs_fleet",
    "pairs_schema",
    "place_pairs",
]
