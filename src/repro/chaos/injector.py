"""The fault registry: answers "what is broken right now?".

:class:`ChaosInjector` is the single source of truth every layer
consults: the replication pipeline asks whether a replica's link is
partitioned or degraded before scheduling a delivery, the replayer asks
whether the node is stalled or gray before applying, and the client's
endpoint wrappers ask whether a target is reachable before serving a
request.  All queries are pure functions of the plan and the current
(virtual) time, so a chaos run is exactly as deterministic as its
:class:`~repro.chaos.plan.FaultPlan`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import NULL_OBSERVER, Observer

#: cap on the modelled retransmit blow-up of a lossy link
MAX_LOSS = 0.95
#: a gray node at intensity 1.0 is this many times slower
GRAY_SLOWDOWN = 10.0


class ChaosInjector:
    """Evaluates a :class:`FaultPlan` against query time-points."""

    def __init__(self, plan: FaultPlan, observer: Optional[Observer] = None):
        self.plan = plan
        self.obs = observer or NULL_OBSERVER
        #: how often each kind was observed biting (observability only)
        self.observed: Dict[str, int] = {}
        #: specs whose first bite was already traced (one marker each)
        self._bitten: Set[Tuple] = set()
        #: one-shot specs (see :meth:`take_once`) that already fired
        self._fired: Set[Tuple] = set()
        # The scheduled fault windows are known up-front: emit them as
        # complete spans so the timeline shows fault -> degradation ->
        # recovery causality even before anything consults the injector.
        if self.obs.enabled:
            for spec in plan.specs:
                self.obs.complete(
                    spec.kind.value, "chaos", spec.start_s, spec.end_s,
                    track="chaos",
                    attrs={"target": spec.target, "intensity": spec.intensity},
                )
                self.obs.count(f"chaos.fault.{spec.kind.value}")

    def _note(self, spec: FaultSpec, now: Optional[float] = None) -> None:
        self.observed[spec.kind.value] = self.observed.get(spec.kind.value, 0) + 1
        if self.obs.enabled and now is not None:
            key = spec.canonical()
            if key not in self._bitten:
                self._bitten.add(key)
                self.obs.event(
                    "fault.bite", "chaos", ts=now, track="chaos",
                    attrs={"kind": spec.kind.value, "target": spec.target},
                )

    # -- network path to a target -------------------------------------------

    def partitioned(self, target: str, now: float) -> bool:
        """Is the path to ``target`` severed at ``now``?"""
        for kind in (FaultKind.PARTITION, FaultKind.FLAP):
            for spec in self.plan.active(now, kind=kind, target=target):
                self._note(spec, now)
                return True
        return False

    def heal_at(self, target: str, now: float) -> float:
        """End of the current unreachable window for ``target``.

        Returns ``now`` when the target is reachable.  For a flapping
        link this is the end of the current down half-period, not the
        end of the whole fault window.
        """
        heal = now
        for kind in (FaultKind.PARTITION, FaultKind.FLAP):
            for spec in self.plan.active(now, kind=kind, target=target):
                heal = max(heal, spec.heal_at(now))
        return heal

    def delay_factor(self, target: str, now: float) -> float:
        """Multiplier on network transfer time to ``target``.

        DELAY spikes multiply latency by ``1 + intensity``; LOSS models
        retransmits as the expected ``1 / (1 - p)`` send count.
        """
        factor = 1.0
        for spec in self.plan.active(now, kind=FaultKind.DELAY, target=target):
            self._note(spec, now)
            factor *= 1.0 + spec.intensity
        for spec in self.plan.active(now, kind=FaultKind.LOSS, target=target):
            self._note(spec, now)
            factor *= 1.0 / (1.0 - min(MAX_LOSS, spec.intensity))
        return factor

    # -- the target node itself ---------------------------------------------

    def slowdown(self, target: str, now: float) -> float:
        """Service-time multiplier of a gray (slow-but-alive) node."""
        factor = 1.0
        for spec in self.plan.active(now, kind=FaultKind.GRAY, target=target):
            self._note(spec, now)
            factor *= 1.0 + spec.intensity * (GRAY_SLOWDOWN - 1.0)
        return factor

    def stalled_until(self, target: str, now: float) -> Optional[float]:
        """End of the current replay stall of ``target`` (None if none)."""
        ends = [
            spec.end_s
            for spec in self.plan.active(now, kind=FaultKind.STALL, target=target)
        ]
        if not ends:
            return None
        for spec in self.plan.active(now, kind=FaultKind.STALL, target=target):
            self._note(spec, now)
        return max(ends)

    # -- one-shot faults ------------------------------------------------------

    def take_once(
        self, kind: FaultKind, target: str, now: Optional[float] = None
    ) -> bool:
        """One-shot: has a ``kind`` fault aimed at ``target`` come due?

        A crash or a corruption is an event, not a window: each spec
        fires at most once, so the recovery, retried job or scrub pass
        that follows cannot re-trip the fault it is cleaning up after.
        Callers on the DES clock pass ``now`` and the spec fires once its
        ``start_s`` has passed (``PRIMARY_CRASH`` / ``REPLICA_CRASH`` on
        ``"shard:1"``, ``ARCHIVE_CORRUPT`` on ``"archive:0"``).  The 2PC
        coordinator and the backup/restore jobs run outside that clock:
        a ``COORD_CRASH`` / ``BACKUP_CRASH`` / ``RESTORE_CRASH`` target
        names a phase boundary, reaching it *is* the trigger, and time
        windows are ignored.
        """
        for spec in self.plan.by_kind(kind):
            key = spec.canonical()
            if (
                spec.target == target
                and key not in self._fired
                and (now is None or now >= spec.start_s)
            ):
                self._fired.add(key)
                self._note(spec, now)
                return True
        return False

    # -- DR archive windows ----------------------------------------------------

    def archive_lagging(self, target: str, now: float) -> bool:
        """Is ``target``'s archiver forced into lagged (buffering) mode?

        Window semantics, not one-shot: while active the archiver
        buffers instead of shipping synchronously, so a disaster inside
        the window loses the buffered tail (RPO > 0).
        """
        for spec in self.plan.active(now, kind=FaultKind.ARCHIVE_LAG, target=target):
            self._note(spec, now)
            return True
        return False
