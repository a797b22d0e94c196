"""The R-Score: availability delivered through an automated failover.

The evaluator builds an :class:`~repro.ha.cluster.HAFleet`, drives the
PAIRS workload through a :class:`~repro.core.resilience.ResilientSession`
sharing the fleet's virtual clock, and kills one shard's primary
mid-run via a chaos :class:`~repro.chaos.plan.FaultPlan`.  Because the
session's ``advance`` callback is :meth:`HAFleet.advance`, every retry
backoff moves virtual time forward *and* runs the failure detector --
the client's own patience is what lets the lease expire and the
promotion happen, exactly as in a real deployment.

Scoring::

    availability = acked client calls / attempted client calls
    R            = availability   if the history checker finds zero
                                  violations (and the final state is
                                  clean), else 0.0

A system that stays up by fracturing pairs scores zero: availability
bought with broken consistency is not availability.  The unavailability
window is also measured (kill -> detection -> serving again) and must
sit under the analytic bound ``lease + replay + backoff slack``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.core.resilience import AttemptResult, ResilientSession, RetryPolicy
from repro.engine.errors import EngineError
from repro.ha.cluster import HAFleet
from repro.ha.history import HistoryChecker, Violation
from repro.ha.lease import LeaseConfig
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.obs import NULL_OBSERVER, Observer
from repro.perf.openloop import parse_arrival, replay_closed_run
from repro.sim.events import VirtualClock
from repro.sim.rng import RngRegistry, derive_seed

#: modelled service time of one client operation (virtual seconds)
OP_LATENCY_S = 0.004


@dataclass
class HAResult:
    """One HA run: traffic through a primary kill, checked end to end."""

    ack_mode: str
    txns: int
    acked: int
    failed: int
    reads_ok: int
    failovers: int
    restarts: int
    #: (killed_at, detected_at, served_at) per completed failover
    outages: List[Tuple[float, float, float]] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    duration_s: float = 0.0
    kill_at_s: float = 0.0
    #: analytic ceiling on the outage: lease + replay + backoff slack
    bound_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    #: per transfer call: (virtual start time, acked) -- the raw series
    #: the failover bench derives pre-kill vs post-recovery TPS from
    transfer_log: List[Tuple[float, bool]] = field(default_factory=list)
    #: arrival process the run was driven under
    arrival: str = "closed"
    #: CO-free sojourn percentiles in virtual ms (open arrivals only):
    #: the closed run's transfers replayed from *scheduled* arrivals, so
    #: the failover outage's backlog shows up in the tail instead of
    #: being omitted
    openloop_latency_ms: Dict[str, float] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def availability(self) -> float:
        if self.txns == 0:
            return 0.0
        return self.acked / self.txns

    @property
    def unavailable_s(self) -> float:
        return sum(served - killed for killed, _detected, served in self.outages)

    @property
    def r_score(self) -> float:
        """Availability, zeroed by any consistency violation."""
        return self.availability if self.consistent else 0.0

    def tps_between(self, t0: float, t1: float) -> float:
        """Acked transfers per virtual second over ``[t0, t1)``."""
        if t1 <= t0:
            return 0.0
        acked = sum(1 for t, ok in self.transfer_log if ok and t0 <= t < t1)
        return acked / (t1 - t0)

    @property
    def pre_kill_tps(self) -> float:
        return self.tps_between(0.0, self.kill_at_s)

    @property
    def post_recovery_tps(self) -> float:
        """Steady-state throughput after service resumed.

        Measured from the first acked transfer at or past the promoted
        shard's ``served_at`` -- the straddling retry call's final
        backoff can overshoot the recovery point, and that slack is the
        outage's tail, not the recovered rate.
        """
        if not self.outages:
            return self.tps_between(self.kill_at_s, self.duration_s)
        served_at = max(served for _k, _d, served in self.outages)
        first_acked = min(
            (t for t, ok in self.transfer_log if ok and t >= served_at),
            default=served_at,
        )
        return self.tps_between(first_acked, self.duration_s)


class HAEvaluator:
    """Drive the PAIRS workload through a mid-run primary kill."""

    def __init__(
        self,
        n_shards: int = 2,
        txns: int = 240,
        n_pairs: int = 6,
        ack_mode: str = "sync",
        lease: Optional[LeaseConfig] = None,
        seed: int = 42,
        observer: Optional[Observer] = None,
        arrival: str = "closed",
    ):
        self.n_shards = n_shards
        self.txns = txns
        self.n_pairs = n_pairs
        self.ack_mode = ack_mode
        self.arrival = parse_arrival(arrival)
        self.lease = lease or LeaseConfig()
        # The kill lands ~40% into the projected run, so there is a
        # solid steady-state window on both sides of the outage.
        self.kill_at_s = 0.4 * (txns * 2 * OP_LATENCY_S)
        self.seed = seed
        self.obs = observer or NULL_OBSERVER

    def run(self) -> HAResult:
        clock = VirtualClock()
        plan = FaultPlan(
            specs=(FaultSpec(
                kind=FaultKind.PRIMARY_CRASH,
                target="shard:0",
                start_s=self.kill_at_s,
                duration_s=0.0,
            ),),
            seed=self.seed,
            name="ha-primary-kill",
        )
        fleet, pairs = build_pairs_fleet(
            n_shards=self.n_shards,
            n_pairs=self.n_pairs,
            fleet_cls=HAFleet,
            lease=self.lease,
            ack_mode=self.ack_mode,
            clock=clock,
            chaos=ChaosInjector(plan, observer=self.obs),
            observer=self.obs,
            name="ha-eval",
        )
        fleet.start_replication()
        workload = PairWorkload(
            fleet, pairs,
            seed=derive_seed(self.seed, f"ha.eval.{self.ack_mode}"),
            reraise_unavailable=True,
        )
        # Backoffs sized to the detector: the retry schedule of a single
        # call comfortably covers lease expiry plus promotion replay.
        policy = RetryPolicy(
            max_attempts=6,
            base_backoff_s=self.lease.heartbeat_s,
            multiplier=2.0,
            max_backoff_s=self.lease.lease_s,
            jitter=0.2,
        )
        session = ResilientSession(
            ["fleet"],
            policy=policy,
            clock=clock,
            rng=RngRegistry(derive_seed(self.seed, "ha.session")).stream("backoff"),
            breaker_reset_s=self.lease.lease_s,
            observer=self.obs,
            advance=fleet.advance,
        )

        acked = failed = reads_ok = 0
        transfer_log: List[Tuple[float, bool]] = []
        # per transfer: the virtual time until the next transfer may
        # start (its call plus the read that follows every other one),
        # whichever of the two calls the outage lands in
        service_s: List[float] = []
        for i in range(self.txns):
            started_at = clock.now
            outcome = session.call(self._attempt(fleet, workload.transfer))
            call_acked = bool(outcome.ok and outcome.value)
            transfer_log.append((started_at, call_acked))
            if call_acked:
                acked += 1
            else:
                failed += 1
            if i % 2 == 0:
                read = session.call(self._attempt(fleet, workload.read))
                if read.ok and read.value is not None:
                    reads_ok += 1
            service_s.append(clock.now - started_at)

        openloop_ms: Dict[str, float] = {}
        if self.arrival.is_open:
            openloop_ms = replay_closed_run(
                self.arrival, service_s, clock.now,
                RngRegistry(
                    derive_seed(self.seed, "ha.eval.arrival")
                ).stream(self.arrival.kind),
            ).histogram.latency_summary_ms()

        # Let any in-flight unavailability window lapse, then check the
        # final state with plain auto-commit reads.
        for group in fleet.groups.values():
            if group.down_until is not None and clock.now < group.down_until:
                fleet.advance(group.down_until - clock.now + 1e-9)
        report = HistoryChecker().check(workload.history, workload.final_stamps())

        result = HAResult(
            ack_mode=self.ack_mode,
            txns=self.txns,
            acked=acked,
            failed=failed,
            reads_ok=reads_ok,
            failovers=sum(g.failovers for g in fleet.groups.values()),
            restarts=sum(g.restarts for g in fleet.groups.values()),
            outages=[g_outage for g in fleet.groups.values() for g_outage in g.outages],
            violations=list(report.violations),
            duration_s=clock.now,
            kill_at_s=self.kill_at_s,
            counts=workload.history.counts(),
            transfer_log=transfer_log,
            arrival=self.arrival.describe(),
            openloop_latency_ms=openloop_ms,
        )
        replay_s = max(
            (served - detected for _k, detected, served in result.outages),
            default=0.0,
        )
        result.bound_s = (
            self.lease.lease_s
            + replay_s
            + 2 * policy.max_backoff_s * (1 + policy.jitter)
        )
        if self.obs.enabled:
            self.obs.count("ha.eval.runs")
        return result

    @staticmethod
    def _attempt(
        fleet: HAFleet, op: Callable[[], object]
    ) -> Callable[[str], AttemptResult]:
        """Wrap a workload op as a latency-modelled session attempt."""
        def attempt(_endpoint: str) -> AttemptResult:
            # Poll first so a chaos kill due at the current virtual time
            # fires before the op, never in the middle of its 2PC.
            fleet.poll()
            try:
                value = op()
            except EngineError as error:
                error.latency_s = OP_LATENCY_S  # failed attempts cost time too
                raise
            return AttemptResult(ok=True, value=value, latency_s=OP_LATENCY_S)
        return attempt
