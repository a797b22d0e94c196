"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a seeded, ordered list of :class:`FaultSpec`
entries -- *what* goes wrong, *where*, *when*, and *how hard*.  Plans
are pure data: the same plan injected twice produces byte-identical
fault schedules (:meth:`FaultPlan.fingerprint` hashes the canonical
serialization), which is what makes chaos runs reproducible and A-Score
comparisons meaningful.

Fault kinds span the three layers the testbed injects into:

* **engine** -- ``CRASH`` (crash point at a WAL append), ``TORN_WRITE``
  (half-written tail record), ``BIT_FLIP`` (corrupted retained record);
* **cloud DES** -- ``PARTITION`` (target unreachable), ``DELAY`` and
  ``LOSS`` (network degradation), ``STALL`` (replica stops applying),
  ``FLAP`` (link toggles up/down), ``GRAY`` (slow node: alive but
  degraded);
* the **client** layer reacts to all of them through the resilience
  stack rather than having faults of its own.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.rng import RngRegistry


class FaultKind(enum.Enum):
    # engine layer
    CRASH = "crash"
    TORN_WRITE = "torn_write"
    BIT_FLIP = "bit_flip"
    # cloud DES layer
    PARTITION = "partition"
    DELAY = "delay"
    LOSS = "loss"
    STALL = "stall"
    FLAP = "flap"
    GRAY = "gray"
    # shard layer: the transaction coordinator dies at a 2PC phase
    # boundary (``target`` names the phase, e.g. "after_prepare")
    COORD_CRASH = "coord_crash"
    # HA layer: a shard's primary (or its standby) is killed at
    # ``start_s``; ``target`` names the shard, e.g. "shard:1".  One-shot
    # -- a crash is an event, not a window, and never re-fires on the
    # recovery run.
    PRIMARY_CRASH = "primary_crash"
    REPLICA_CRASH = "replica_crash"
    # serving layer: the SQL-over-socket tier misbehaves at the
    # connection level.  CONN_DROP hangs up on a connection abruptly
    # (per-statement with probability ``intensity``, possibly
    # mid-pipeline); CONN_STALL freezes statement processing for
    # ``intensity``-scaled pauses inside the window.
    CONN_DROP = "conn_drop"
    CONN_STALL = "conn_stall"
    # DR layer.  ARCHIVE_CORRUPT flips a bit in an archived segment of
    # ``target`` (one-shot at ``start_s``); ARCHIVE_LAG makes the
    # archiver of ``target`` buffer instead of shipping inside the
    # window (an RPO > 0 disaster surface); BACKUP_CRASH/RESTORE_CRASH
    # kill the backup/restore job at a phase boundary (``target`` names
    # the phase, e.g. "after_image", one-shot like COORD_CRASH).
    ARCHIVE_CORRUPT = "archive_corrupt"
    ARCHIVE_LAG = "archive_lag"
    BACKUP_CRASH = "backup_crash"
    RESTORE_CRASH = "restore_crash"


#: kinds applied to the engine's WAL rather than the DES substrate
ENGINE_KINDS = (FaultKind.CRASH, FaultKind.TORN_WRITE, FaultKind.BIT_FLIP)
#: kinds applied to the shard-fleet transaction coordinator
COORDINATOR_KINDS = (FaultKind.COORD_CRASH,)
#: kinds degrading the network path to a target
NETWORK_KINDS = (FaultKind.PARTITION, FaultKind.DELAY, FaultKind.LOSS, FaultKind.FLAP)
#: kinds degrading the target node itself
NODE_KINDS = (FaultKind.STALL, FaultKind.GRAY)
#: kinds injected at the SQL-over-socket serving tier
SERVE_KINDS = (FaultKind.CONN_DROP, FaultKind.CONN_STALL)
#: kinds injected into the backup/archive/restore (DR) layer
DR_KINDS = (
    FaultKind.ARCHIVE_CORRUPT,
    FaultKind.ARCHIVE_LAG,
    FaultKind.BACKUP_CRASH,
    FaultKind.RESTORE_CRASH,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault: kind, target, window, and intensity.

    ``intensity`` is kind-specific: the loss probability for ``LOSS``,
    the relative slowdown for ``GRAY``/``DELAY`` (1.0 doubles latency),
    unused for binary faults.  ``period_s`` only matters for ``FLAP``
    (the up/down toggle period; 0 defaults to a quarter of the window).
    """

    kind: FaultKind
    target: str
    start_s: float
    duration_s: float
    intensity: float = 1.0
    period_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_s < 0 or self.duration_s < 0:
            raise ValueError(f"fault window must be non-negative: {self}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1]: {self}")
        if self.period_s < 0:
            raise ValueError(f"period must be non-negative: {self}")

    @property
    def end_s(self) -> float:
        return self.start_s + self.duration_s

    @property
    def flap_period_s(self) -> float:
        """Effective toggle period of a FLAP fault."""
        return self.period_s if self.period_s > 0 else max(1e-9, self.duration_s / 4.0)

    def in_window(self, now: float) -> bool:
        return self.start_s <= now < self.end_s

    def active_at(self, now: float) -> bool:
        """Is the fault *biting* at ``now``?

        Identical to :meth:`in_window` except for ``FLAP``, which is
        only down during the odd half-periods of its window (it starts
        down, heals, goes down again, ...).
        """
        if not self.in_window(now):
            return False
        if self.kind is FaultKind.FLAP:
            phase = int((now - self.start_s) / self.flap_period_s)
            return phase % 2 == 0
        return True

    def heal_at(self, now: float) -> float:
        """When the current outage of this fault ends (FLAP: half-period)."""
        if self.kind is FaultKind.FLAP and self.in_window(now):
            phase = int((now - self.start_s) / self.flap_period_s)
            return min(self.end_s, self.start_s + (phase + 1) * self.flap_period_s)
        return self.end_s

    def canonical(self) -> Tuple:
        return (
            self.kind.value, self.target,
            round(self.start_s, 9), round(self.duration_s, 9),
            round(self.intensity, 9), round(self.period_s, 9),
        )


class FaultPlan:
    """An ordered, seeded collection of faults."""

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0, name: str = "plan"):
        self.specs: Tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda spec: spec.canonical())
        )
        self.seed = seed
        self.name = name

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def horizon_s(self) -> float:
        """End of the last fault window (0 for an empty plan)."""
        return max((spec.end_s for spec in self.specs), default=0.0)

    def active(
        self,
        now: float,
        kind: Optional[FaultKind] = None,
        target: Optional[str] = None,
    ) -> List[FaultSpec]:
        """Faults biting at ``now``, optionally filtered by kind/target."""
        return [
            spec for spec in self.specs
            if spec.active_at(now)
            and (kind is None or spec.kind is kind)
            and (target is None or spec.target == target)
        ]

    def by_kind(self, *kinds: FaultKind) -> List[FaultSpec]:
        return [spec for spec in self.specs if spec.kind in kinds]

    def fingerprint(self) -> str:
        """SHA-256 over the canonical fault schedule (and seed).

        Two runs of the same seeded generation produce identical
        fingerprints; this is the determinism contract chaos benchmarks
        assert on.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.name}:{self.seed}".encode("utf-8"))
        for spec in self.specs:
            digest.update(repr(spec.canonical()).encode("utf-8"))
        return digest.hexdigest()

    def describe(self) -> List[str]:
        """Human-readable schedule, one line per fault."""
        return [
            f"{spec.start_s:8.2f}s +{spec.duration_s:6.2f}s  "
            f"{spec.kind.value:<10s} {spec.target:<12s} intensity={spec.intensity:g}"
            for spec in self.specs
        ]

    # -- generation ----------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        duration_s: float,
        targets: Sequence[str],
        n_faults: int = 4,
        name: str = "generated",
    ) -> "FaultPlan":
        """A random-but-deterministic plan from a master seed.

        Draws come from the dedicated ``chaos.plan`` RNG stream, so the
        plan never perturbs (and is never perturbed by) workload RNGs
        sharing the same master seed.
        """
        if not targets:
            raise ValueError("need at least one fault target")
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        rng = RngRegistry(seed).stream("chaos.plan")
        kinds = NETWORK_KINDS + NODE_KINDS
        specs = []
        for _ in range(n_faults):
            kind = kinds[rng.randrange(len(kinds))]
            target = targets[rng.randrange(len(targets))]
            fault_s = min(duration_s, rng.uniform(2.0, 20.0))
            start_s = rng.uniform(0.0, max(1e-9, duration_s - fault_s))
            specs.append(FaultSpec(
                kind=kind,
                target=target,
                start_s=start_s,
                duration_s=fault_s,
                intensity=round(rng.uniform(0.2, 0.9), 6),
                period_s=round(fault_s / 4.0, 6) if kind is FaultKind.FLAP else 0.0,
            ))
        return cls(specs, seed=seed, name=name)
