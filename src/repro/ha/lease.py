"""Lease-based leadership for HA shard pairs.

Failure detection here is deliberately boring: the primary holds a
time-bounded lease and renews it on a heartbeat cadence; a primary that
stops renewing (because its WAL is dead) is declared failed the first
time anyone looks *after* the lease expired.  Everything runs against a
shared :class:`~repro.sim.events.VirtualClock`, so the detection delay
-- and therefore the unavailability window the failover bench asserts
on -- is an exact, reproducible function of the lease parameters, never
of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

#: modelled WAL replay rate (records / virtual second) of a promoted
#: standby; a DR restore replays its archive at the same rate
REPLAY_RATE_RECORDS_S = 50_000.0


@dataclass(frozen=True)
class LeaseConfig:
    """Tunables of the failure detector and the promotion time model.

    ``lease_s`` bounds detection delay: a dead primary is declared
    failed at most one lease after its last renewal.  ``heartbeat_s``
    is the renewal cadence (must leave slack below the lease).  The
    log suffix a promoted standby replays costs modelled seconds at
    :data:`REPLAY_RATE_RECORDS_S`; together these bound the
    unavailability window:
    ``lease_s + replayed_records / REPLAY_RATE_RECORDS_S``.
    """

    lease_s: float = 0.5
    heartbeat_s: float = 0.1

    def __post_init__(self) -> None:
        if self.lease_s <= 0 or self.heartbeat_s <= 0:
            raise ValueError("lease_s and heartbeat_s must be positive")
        if self.heartbeat_s >= self.lease_s:
            raise ValueError(
                f"heartbeat ({self.heartbeat_s}s) must renew faster than the "
                f"lease expires ({self.lease_s}s)"
            )

    def replay_s(self, records: int) -> float:
        """Modelled time to replay ``records`` log records at promotion."""
        return max(0, records) / REPLAY_RATE_RECORDS_S


class LeaderLease:
    """The primary's time-bounded claim to leadership of one shard."""

    def __init__(self, config: LeaseConfig, now: float = 0.0):
        self.config = config
        self.renewed_at = now
        self.expires_at = now + config.lease_s
        self.renewals = 0

    def renew(self, now: float) -> bool:
        """Heartbeat: extend the lease if the cadence is due.

        Renewals more frequent than ``heartbeat_s`` are coalesced, so
        the detection delay stays a function of the configuration, not
        of how often the fleet happens to be polled.
        """
        if now - self.renewed_at < self.config.heartbeat_s and self.renewals > 0:
            return False
        self.renewed_at = now
        self.expires_at = now + self.config.lease_s
        self.renewals += 1
        return True

    def expired(self, now: float) -> bool:
        return now >= self.expires_at
