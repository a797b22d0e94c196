"""Shard-level HA: primary/standby pairs with automated failover.

:class:`HAFleet` extends the sharded fleet with one warm standby per
shard, kept current by synchronous WAL shipping
(:class:`~repro.ha.replication.WalShipper`).  Leadership is a
time-bounded lease on a shared :class:`~repro.sim.events.VirtualClock`:
a primary whose WAL died stops renewing, and the first :meth:`poll`
after the lease expires triggers failover.

Promotion reuses the engine's own restart path literally -- the standby
``crash()``s and ``recover()``s, replaying the shipped log through the
same ARIES redo/undo code a restarted primary would run -- then the
fleet resolves the promoted shard's in-doubt branches against the
fleet-wide DECISION union and lets the coordinator finish any
transactions a participant crash left half-decided.  A standby that
disconnected (died, or missed records) is *stale* and never promoted;
the fleet falls back to restarting the failed primary in place, which
is always safe because the primary's own log is durable.

Availability is modelled, not wall-clock: promotion marks the shard
down until ``detection + replayed_records / replay_rate``, and every
statement arriving before that point raises a retryable
:class:`~repro.engine.errors.ShardUnavailableError` -- so the client's
retry/backoff stack (which advances the same virtual clock) governs
the outage end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaos.plan import FaultKind
from repro.engine.database import Database
from repro.engine.errors import EngineError, ShardUnavailableError
from repro.engine.recovery import RecoveryReport
from repro.ha.lease import LeaderLease, LeaseConfig
from repro.ha.replication import WalShipper, bootstrap_standby
from repro.shard.fleet import FleetRecoveryReport, ShardedDatabase
from repro.sim.events import VirtualClock


@dataclass
class HAShard:
    """The replication group serving one shard."""

    shard_id: int
    primary: Database
    standby: Optional[Database]
    shipper: Optional[WalShipper]
    lease: LeaderLease
    #: bumped on every promotion (a fencing token in a real system)
    epoch: int = 1
    #: modelled end of the current unavailability window (None = up)
    down_until: Optional[float] = None
    failovers: int = 0
    restarts: int = 0
    #: virtual time the serving primary was last killed (None = never)
    last_killed_at: Optional[float] = None
    #: completed failovers as (killed_at, detected_at, served_at)
    outages: List[tuple] = field(default_factory=list)

    @property
    def standby_fresh(self) -> bool:
        """Is the standby promotable (alive and missing nothing)?"""
        return (
            self.standby is not None
            and not self.standby.wal.is_dead
            and self.shipper is not None
            and self.shipper.is_fresh
        )


class HAFleet(ShardedDatabase):
    """A sharded fleet where every shard is a primary/standby pair."""

    def __init__(
        self,
        n_shards: int,
        lease: Optional[LeaseConfig] = None,
        ack_mode: str = "sync",
        clock: Optional[VirtualClock] = None,
        **fleet_kwargs,
    ):
        super().__init__(n_shards, **fleet_kwargs)
        self.lease_config = lease or LeaseConfig()
        self.ack_mode = ack_mode
        self.clock = clock or VirtualClock()
        self.groups: Dict[int, HAShard] = {}
        # Every statement routed into an outage window counts one
        # rejection, so resolve the counter once instead of per call.
        self._c_rejected = (
            self.obs.metrics.counter("ha.stmt.rejected")
            if self.obs.enabled
            else None
        )

    # -- replication lifecycle ----------------------------------------------

    def start_replication(self) -> None:
        """Bootstrap a standby for every shard and begin shipping.

        Call once the schema is created and the base data loaded: the
        bootstrap is a base backup, so everything before it travels by
        copy and everything after by log shipping.
        """
        if self.groups:
            raise EngineError("replication already started")
        for shard_id, primary in enumerate(self.shards):
            standby = bootstrap_standby(primary, observer=self.obs)
            shipper = WalShipper(
                primary, standby, mode=self.ack_mode, observer=self.obs
            )
            self.groups[shard_id] = HAShard(
                shard_id=shard_id,
                primary=primary,
                standby=standby,
                shipper=shipper,
                lease=LeaderLease(self.lease_config, now=self.clock.now),
            )
        if self.obs.enabled:
            self.obs.count("ha.replication_started")

    def resync(self, shard_id: int) -> None:
        """Re-seed a shard's standby from its current primary.

        The recovery path after any event that left the standby stale
        (standby death, divergence, a promotion that consumed it).
        Requires a quiesced primary -- a base backup is a checkpoint.
        """
        group = self._group(shard_id)
        if group.shipper is not None:
            group.shipper.detach()
        primary = self.shards[shard_id]
        group.primary = primary
        group.standby = bootstrap_standby(primary, observer=self.obs)
        group.shipper = WalShipper(
            primary, group.standby, mode=self.ack_mode, observer=self.obs
        )
        if self.obs.enabled:
            self.obs.count("ha.resyncs")

    def _group(self, shard_id: int) -> HAShard:
        try:
            return self.groups[shard_id]
        except KeyError:
            raise EngineError(
                f"shard {shard_id} has no replication group; "
                "call start_replication() first"
            ) from None

    # -- fault entry points --------------------------------------------------

    def kill_primary(self, shard_id: int) -> None:
        """Take a shard's serving primary down (process kill)."""
        primary = self.shards[shard_id]
        if not primary.wal.is_dead:
            primary.wal.kill()
            group = self.groups.get(shard_id)
            if group is not None:
                group.last_killed_at = self.clock.now
        if self.obs.enabled:
            self.obs.count("ha.primary_killed")

    def kill_standby(self, shard_id: int) -> None:
        """Take a shard's standby down; the primary keeps serving."""
        group = self._group(shard_id)
        if group.standby is not None and not group.standby.wal.is_dead:
            group.standby.wal.kill()
        if self.obs.enabled:
            self.obs.count("ha.standby_killed")

    # -- failure detection and failover --------------------------------------

    def advance(self, delta_s: float) -> None:
        """Move virtual time forward and run the failure detector."""
        self.clock.advance(delta_s)
        self.poll()

    def poll(self) -> None:
        """One detector pass: consume due chaos kills, renew leases of
        live primaries, fail over the ones whose lease expired dead."""
        now = self.clock.now
        for shard_id in sorted(self.groups):
            group = self.groups[shard_id]
            self._consume_chaos(shard_id, group, now)
            if not self.shards[shard_id].wal.is_dead:
                group.lease.renew(now)
            elif group.lease.expired(now):
                self._fail_over(shard_id, group, now)

    def _consume_chaos(self, shard_id: int, group: HAShard, now: float) -> None:
        if self.chaos is None:
            return
        target = f"shard:{shard_id}"
        if self.chaos.take_once(FaultKind.PRIMARY_CRASH, target, now):
            self.kill_primary(shard_id)
        if self.chaos.take_once(FaultKind.REPLICA_CRASH, target, now):
            self.kill_standby(shard_id)

    def _fail_over(self, shard_id: int, group: HAShard, now: float) -> None:
        """The dead primary's lease expired: promote or restart."""
        promoted = group.standby_fresh
        with self.obs.span("failover", "ha", track="ha"):
            if promoted:
                report = self._promote(shard_id, group)
            else:
                report = self._restart_primary(shard_id, group)
            self._resolve_in_doubt([report], [shard_id])
        replay_s = self.lease_config.replay_s(report.records_scanned)
        served_at = now + replay_s
        group.down_until = served_at
        group.lease.renew(served_at)
        killed_at = group.last_killed_at if group.last_killed_at is not None else now
        group.outages.append((killed_at, now, served_at))
        if self.obs.enabled:
            # The outage anatomy, laid down on the *virtual* timeline.
            # The whole failover decision runs inside one poll() call,
            # so the wall-clock "failover" span above only shows the
            # promotion compute; these complete-spans reconstruct the
            # phases a client actually waits through -- kill, lease
            # expiry (detection), promote/restart decision, modelled
            # log replay, first served statement.
            attrs = {"shard": shard_id, "epoch": group.epoch}
            self.obs.event(
                "failover.lease_expired", "ha", ts=now, track="ha", attrs=attrs
            )
            if killed_at < now:
                self.obs.complete(
                    "failover.detect", "ha", killed_at, now,
                    track="ha", attrs=attrs,
                )
            self.obs.event(
                "failover.promoted" if promoted else "failover.restarted",
                "ha", ts=now, track="ha",
                attrs={**attrs, "records_scanned": report.records_scanned},
            )
            if replay_s > 0.0:
                self.obs.complete(
                    "failover.replay", "ha", now, served_at,
                    track="ha", attrs={**attrs, "replay_s": replay_s},
                )
            self.obs.event(
                "failover.served", "ha", ts=served_at, track="ha", attrs=attrs
            )
            self.obs.event(
                "failover.complete", "ha", track="ha",
                attrs={
                    "shard": shard_id, "epoch": group.epoch,
                    "replay_s": replay_s, "promoted": promoted,
                },
            )

    def _promote(self, shard_id: int, group: HAShard) -> RecoveryReport:
        """Make the standby the serving primary.

        Literally the engine restart path: the standby drops volatile
        state and replays its (shipped) log, which by the shipping
        invariant contains every acked record of the old primary.
        """
        group.shipper.detach()
        standby = group.standby
        standby.crash()
        report = standby.recover()
        # The coordinator holds its own reference to the shard list.
        self.shards[shard_id] = standby
        self.coordinator.shards[shard_id] = standby
        group.primary = standby
        group.standby = None
        group.shipper = None
        group.epoch += 1
        group.failovers += 1
        if self.obs.enabled:
            self.obs.count("failover.promotions")
        return report

    def _restart_primary(self, shard_id: int, group: HAShard) -> RecoveryReport:
        """No promotable standby: restart the primary on its own log.

        Always safe -- the primary's durable log is authoritative -- at
        the price of a longer outage (a real restart, not a warm
        takeover).  The standby stays stale; :meth:`resync` re-seeds it.
        """
        report = self._recover_shard(shard_id)
        group.epoch += 1
        group.restarts += 1
        if self.obs.enabled:
            self.obs.count("failover.restarts")
        return report

    # -- statement gating ----------------------------------------------------

    def _shard_db(self, shard_id: int) -> Database:
        group = self.groups.get(shard_id)
        if group is not None and group.down_until is not None:
            if self.clock.now < group.down_until:
                if self._c_rejected is not None:
                    self._c_rejected.inc()
                raise ShardUnavailableError(
                    f"shard {shard_id} is failing over "
                    f"(epoch {group.epoch}, up at t={group.down_until:.3f}s)",
                    shard_id=shard_id,
                )
            group.down_until = None
        return self.shards[shard_id]

    # -- fleet recovery ------------------------------------------------------

    def recover(self, failover: bool = False) -> FleetRecoveryReport:
        """Fleet recovery, optionally promoting instead of restarting.

        With ``failover=False`` this is the base fleet behaviour: every
        shard restarts in place on its own durable log.  With
        ``failover=True`` a dead primary with a fresh standby is
        *promoted* instead -- the crash matrix uses this to prove the
        replica path preserves every acked commit.  Either way the pass
        ends with fleet-wide in-doubt resolution and the coordinator's
        dangling transactions settled, and it stays idempotent.
        """
        reports: List[RecoveryReport] = []
        for shard_id in range(self.n_shards):
            group = self.groups.get(shard_id)
            if (
                failover
                and group is not None
                and self.shards[shard_id].wal.is_dead
                and group.standby_fresh
            ):
                reports.append(self._promote(shard_id, group))
            else:
                reports.append(self._recover_shard(shard_id))
        fleet_report = self._resolve_in_doubt(reports)
        for group in self.groups.values():
            group.down_until = None
            group.lease.renew(self.clock.now)
        return fleet_report
