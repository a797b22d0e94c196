"""Fail-over evaluator (paper Sections II-E and III-E).

Runs the restart-model failure injection on the RW node and on an RO
node while a constant read-write workload executes, then reports the
paper's two recovery metrics:

* **F-Score** -- average seconds from failure injection to service
  restoration (first successful request), per Equation (3).
* **R-Score** -- average seconds from service restoration to the TPS
  recovering its pre-failure level, per Equation (4).

The underlying timeline comes from
:class:`repro.cloud.failure.FailoverSimulator`; this evaluator measures
the scores *from the TPS timeline*, the way the paper's testbed does,
rather than reading the pipeline parameters directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cloud.architectures import Architecture
from repro.cloud.failure import FailoverResult, FailoverSimulator
from repro.cloud.workload_model import WorkloadMix


@dataclass
class FailoverScores:
    """F/R scores for one architecture (one row of Table VIII)."""

    arch_name: str
    f_rw_s: float
    f_ro_s: float
    r_rw_s: float
    r_ro_s: float

    @property
    def f_avg_s(self) -> float:
        return (self.f_rw_s + self.f_ro_s) / 2.0

    @property
    def r_avg_s(self) -> float:
        return (self.r_rw_s + self.r_ro_s) / 2.0

    @property
    def total_s(self) -> float:
        return self.f_rw_s + self.f_ro_s + self.r_rw_s + self.r_ro_s


def _measure_from_timeline(result: FailoverResult, threshold: float) -> tuple[float, float]:
    """(F, R) measured off the TPS timeline.

    F: first time after injection with TPS above the outage floor.
    R: from that point until TPS >= threshold x steady.
    """
    steady = result.steady_tps
    floor = min(tps for t, tps in result.timeline if t >= result.inject_s)
    service_at: Optional[float] = None
    recovered_at: Optional[float] = None
    for t, tps in result.timeline:
        if t < result.inject_s:
            continue
        if service_at is None:
            if tps > floor + 1e-9 and t > result.inject_s:
                service_at = t
        elif recovered_at is None and tps >= threshold * steady:
            recovered_at = t
            break
    if service_at is None:
        service_at = result.service_restored_s
    if recovered_at is None:
        recovered_at = result.tps_recovered_s
    return service_at - result.inject_s, recovered_at - service_at


class FailOverEvaluator:
    """Injects RW and RO failures and scores the recovery."""

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

    def run(self) -> FailoverScores:
        simulator = FailoverSimulator(
            self.arch,
            self.workload,
            self.concurrency,
            recovery_threshold=self.recovery_threshold,
        )
        scores = {}
        for node in ("rw", "ro"):
            result = simulator.run(node=node)
            scores[f"f_{node}"], scores[f"r_{node}"] = _measure_from_timeline(
                result, self.recovery_threshold
            )
        return FailoverScores(
            arch_name=self.arch.name,
            f_rw_s=scores["f_rw"],
            f_ro_s=scores["f_ro"],
            r_rw_s=scores["r_rw"],
            r_ro_s=scores["r_ro"],
        )
