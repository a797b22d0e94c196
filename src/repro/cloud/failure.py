"""Fail-over simulation: node failure injection and recovery timelines.

Mirrors the paper's *restart model*: a node failure is injected while a
constant workload runs; the simulator produces (i) a phase log of the
cluster manager's recovery pipeline (Figure 7) and (ii) a TPS timeline
from which the evaluator measures

* **F-Score** -- failure injection until the service first responds
  again (TPS > 0), and
* **R-Score** -- service restoration until TPS returns to the
  pre-failure level (cache warm-up).

The pipeline durations are *derived*, not scripted: detection comes
from the heartbeat interval, redo from the log backlog accumulated
since the last checkpoint divided by the replay rate, undo from the
number of in-flight transactions, and warm-up from re-running the
throughput model with partially warm caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import estimate_throughput
from repro.cloud.workload_model import WorkloadMix

#: log records produced per writing transaction (begin + data + commit)
RECORDS_PER_WRITE_TXN = 3.0
#: a timeline that never recovers is cut here
MAX_DURATION_S = 600.0


@dataclass(frozen=True)
class FailoverPhase:
    """One phase of the recovery pipeline."""

    name: str
    start_s: float
    end_s: float
    description: str

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class FailoverResult:
    """Outcome of one failure injection."""

    arch_name: str
    inject_s: float
    service_restored_s: float
    tps_recovered_s: float
    steady_tps: float
    phases: List[FailoverPhase] = field(default_factory=list)
    timeline: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def f_score_s(self) -> float:
        """Seconds from injection to first successful request."""
        return self.service_restored_s - self.inject_s

    @property
    def r_score_s(self) -> float:
        """Seconds from service restoration to full TPS recovery."""
        return self.tps_recovered_s - self.service_restored_s

    @property
    def total_s(self) -> float:
        return self.tps_recovered_s - self.inject_s


class FailoverSimulator:
    """Injects a restart failure and replays the recovery pipeline."""

    def __init__(
        self,
        arch: Architecture,
        workload: WorkloadMix,
        concurrency: int = 150,
        recovery_threshold: float = 0.95,
    ):
        self.arch = arch
        self.workload = workload
        self.concurrency = concurrency
        self.recovery_threshold = recovery_threshold
        self._steady = estimate_throughput(arch, workload, concurrency).tps

    @property
    def steady_tps(self) -> float:
        return self._steady

    # -- pipeline construction ----------------------------------------------------

    def _service_phases(self, node: str, inject_s: float) -> List[FailoverPhase]:
        """The outage pipeline: from injection to first served request."""
        recovery = self.arch.recovery
        storage = self.arch.storage
        phases: List[FailoverPhase] = []
        t = inject_s

        detect_end = t + recovery.heartbeat_s
        phases.append(
            FailoverPhase("detect", t, detect_end,
                          "heartbeat misses reveal the failed node")
        )
        t = detect_end

        if node == "ro":
            restart_end = t + recovery.ro_restart_s
            phases.append(
                FailoverPhase("restart", t, restart_end,
                              "replica process restarts and reattaches")
            )
            t = restart_end
            catchup = self._redo_backlog_s()
            if catchup > 0:
                phases.append(
                    FailoverPhase("catchup", t, t + catchup,
                                  "replica replays the log shipped during the outage")
                )
                t += catchup
            return phases

        # RW failure: prepare -> switch over (or restart) -> redo -> undo
        prepare_end = t + recovery.prepare_s
        phases.append(
            FailoverPhase("prepare", t, prepare_end,
                          "cluster manager freezes requests, collects page/checkpoint LSNs")
        )
        t = prepare_end

        if storage.redo_pushdown or self.arch.remote_buffer_bytes > 0:
            switch_end = t + recovery.promote_s
            phases.append(
                FailoverPhase("switch_over", t, switch_end,
                              "an RO node is promoted to RW; the old RW restarts as RO")
            )
            t = switch_end
        else:
            restart_end = t + recovery.restart_s
            phases.append(
                FailoverPhase("restart", t, restart_end,
                              "failed primary restarts in place (ARIES restart)")
            )
            t = restart_end

        redo_s = self._redo_backlog_s()
        if redo_s > 0:
            phases.append(
                FailoverPhase("redo", t, t + redo_s,
                              "log since the last checkpoint is replayed")
            )
            t += redo_s

        undo_s = self.concurrency / self.arch.recovery.undo_rate_txns_s
        phases.append(
            FailoverPhase("undo", t, t + undo_s,
                          "in-flight transactions are rolled back from undo logs")
        )
        return phases

    def _service_restored_at(self, phases: List[FailoverPhase]) -> float:
        """When the first request succeeds.

        With a surviving remote buffer pool (CDB4) the promoted RW node
        serves new requests while the undo scan proceeds in the
        background, so service restores at the end of switch-over.
        """
        if (
            self.arch.recovery.remote_buffer_survives
            and phases
            and phases[-1].name == "undo"
        ):
            return phases[-1].start_s
        return phases[-1].end_s

    def _redo_backlog_s(self) -> float:
        """Seconds of redo replay owed at the failure point."""
        recovery = self.arch.recovery
        interval = self.arch.checkpoint_interval_s
        if (
            interval <= 0
            or self.arch.storage.redo_pushdown
            or recovery.remote_buffer_survives
        ):
            # Storage (or the surviving remote buffer pool) already holds
            # the materialised pages; nothing to redo.
            return 0.0
        write_tps = self._steady * self.workload.write_fraction
        backlog_records = write_tps * RECORDS_PER_WRITE_TXN * interval / 2.0
        return backlog_records / recovery.redo_rate_records_s

    # -- the run ----------------------------------------------------------------------

    def run(
        self,
        node: str = "rw",
        inject_at_s: float = 30.0,
        tick_s: float = 0.5,
    ) -> FailoverResult:
        """Inject a ``node`` failure and trace TPS until full recovery."""
        if node not in ("rw", "ro"):
            raise ValueError(f"node must be 'rw' or 'ro', got {node!r}")
        recovery = self.arch.recovery
        phases = self._service_phases(node, inject_at_s)
        service_restored = self._service_restored_at(phases)

        warm_tau = (
            recovery.warmup_tau_rw_s if node == "rw" else recovery.warmup_tau_ro_s
        )
        # During an RO outage writes continue on the primary; only the
        # read share routed to the replica is lost.
        outage_floor = 0.0 if node == "rw" else self._steady * (
            self.workload.write_fraction + (1 - self.workload.write_fraction) * 0.5
        )
        target = self.recovery_threshold * self._steady

        # Post-restoration throughput follows the buffer warm-up ramp:
        # re-priming the caches and the background redo/undo work both
        # throttle foreground transactions, easing off exponentially.
        timeline: List[Tuple[float, float]] = []
        tps_recovered: Optional[float] = None
        t = 0.0
        while t <= MAX_DURATION_S:
            if t < inject_at_s:
                tps = self._steady
            elif t < service_restored:
                tps = outage_floor
            else:
                since = t - service_restored
                ramp = 1.0 - math.exp(-since / warm_tau) if warm_tau > 0 else 1.0
                tps = outage_floor + (self._steady - outage_floor) * ramp
                if tps_recovered is None and tps >= target:
                    tps_recovered = t
            timeline.append((t, tps))
            if tps_recovered is not None and t > tps_recovered + 5.0:
                break
            t += tick_s
        if tps_recovered is None:
            tps_recovered = MAX_DURATION_S
        return FailoverResult(
            arch_name=self.arch.name,
            inject_s=inject_at_s,
            service_restored_s=service_restored,
            tps_recovered_s=tps_recovered,
            steady_tps=self._steady,
            phases=phases,
            timeline=timeline,
        )
