"""Elasticity evaluator (paper Sections II-C and III-C).

Four deterministic patterns with peaks and valleys are generated
proportionally to a reference concurrency ``tau`` (the concurrency at
which the tested database saturates):

* (a) **single peak**  (0, 100%, 0)         -- an ETL-style spike
* (b) **large spike**  (10%, 80%, 10%)      -- a hot-selling product
* (c) **single valley** (40%, 20%, 40%)     -- declining sales
* (d) **zero valley**  (50%, 0, 50%)        -- pause-and-resume probe

Each slot is one minute.  The evaluator steps the simulation clock one
second at a time, feeding the instantaneous demand to the
architecture's autoscaler and reading TPS from the throughput model at
the *allocated* resources.  Cost integrates allocated resources at RUC
prices (clouds charge while scaling!), split into execution cost (the
demand-matched part) and scaling cost (over-allocation during policy
lag).  Scaling times per slot transition are measured from the
allocation timeline -- Table VI falls out of this log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.architectures import Architecture
from repro.cloud.autoscaler import Autoscaler
from repro.cloud.mva_model import estimate_throughput, required_vcores
from repro.cloud.specs import ComputeAllocation, ScalingKind
from repro.cloud.workload_model import WorkloadMix
from repro.core.collector import PerformanceCollector
from repro.core.pricing import allocation_cost

#: one slot is one minute (paper Section II-C)
SLOT_SECONDS = 60.0
#: the run's time step: the autoscaler and the cost meter see one tick
TICK_S = 1.0


@dataclass(frozen=True)
class ElasticPattern:
    """A named pattern: concurrency proportions of tau, one per slot."""

    key: str
    name: str
    proportions: Tuple[float, ...]
    description: str

    def concurrency_slots(self, tau: int) -> List[int]:
        return [int(round(p * tau)) for p in self.proportions]


ELASTIC_PATTERNS: Dict[str, ElasticPattern] = {
    "single_peak": ElasticPattern(
        "single_peak", "Single Peak", (0.0, 1.0, 0.0),
        "a single spike, e.g. an ETL maintenance job",
    ),
    "large_spike": ElasticPattern(
        "large_spike", "Large Spike", (0.1, 0.8, 0.1),
        "small ramps around a large spike (hot-selling product)",
    ),
    "single_valley": ElasticPattern(
        "single_valley", "Single Valley", (0.4, 0.2, 0.4),
        "demand dips mid-run (declined sales after a price change)",
    ),
    "zero_valley": ElasticPattern(
        "zero_valley", "Zero Valley", (0.5, 0.0, 0.5),
        "demand pauses entirely (out of stock), probing pause-and-resume",
    ),
}


def custom_pattern(key: str, proportions: Sequence[float]) -> ElasticPattern:
    """User-defined pattern (the props-file extensibility path)."""
    return ElasticPattern(
        key=key,
        name=key,
        proportions=tuple(proportions),
        description="user-defined pattern",
    )


@dataclass
class SlotTransition:
    """Scaling behaviour at one slot boundary (Table VI rows)."""

    from_concurrency: int
    to_concurrency: int
    change_at_s: float
    settled_at_s: Optional[float]
    scaling_cost: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.from_concurrency}->{self.to_concurrency}"

    @property
    def scaling_time_s(self) -> Optional[float]:
        if self.settled_at_s is None:
            return None
        return self.settled_at_s - self.change_at_s


@dataclass
class ElasticityResult:
    """Everything measured during one pattern run."""

    arch_name: str
    pattern: ElasticPattern
    collector: PerformanceCollector
    avg_tps: float
    execution_cost: float
    scaling_cost: float
    elastic_cost: float          # cpu + memory + iops share (E1 denominator)
    transitions: List[SlotTransition] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        """Figure 6's total cost: execution plus scaling (elastic share)."""
        return self.execution_cost + self.scaling_cost

    @property
    def e1_score(self) -> float:
        if self.elastic_cost <= 0:
            return 0.0
        return self.avg_tps / self.elastic_cost


class ElasticityEvaluator:
    """Runs elastic patterns against one architecture."""

    def __init__(
        self,
        arch: Architecture,
        workload: WorkloadMix,
        slot_seconds: float = SLOT_SECONDS,
        measure_window_s: float = 600.0,
    ):
        self.arch = arch
        self.workload = workload
        self.slot_seconds = slot_seconds
        self.measure_window_s = measure_window_s

    # -- helpers ---------------------------------------------------------------

    def saturation_concurrency(self, max_probe: int = 2048) -> int:
        """The tau probe: smallest concurrency reaching ~95% of capacity.

        Mirrors the paper's procedure of finding the concurrency at
        which a tested database reaches its resource limit: double the
        offered load until throughput stops growing, then binary-search
        the knee.
        """
        allocation = self.arch.instance.max_allocation

        def tps_at(n: int) -> float:
            return estimate_throughput(self.arch, self.workload, n, allocation).tps

        previous = 0.0
        n = 8
        plateau = max_probe
        while n <= max_probe:
            tps = tps_at(n)
            if previous > 0 and tps < previous * 1.02:
                plateau = n
                break
            previous = tps
            n *= 2
        capacity = tps_at(plateau)
        low, high = max(1, plateau // 4), plateau
        while low < high:
            mid = (low + high) // 2
            if tps_at(mid) >= 0.95 * capacity:
                high = mid
            else:
                low = mid + 1
        return low

    def _tps_at(
        self,
        demand: int,
        allocation: ComputeAllocation,
        cache: Dict[Tuple[int, float], float],
    ) -> float:
        if demand <= 0 or allocation.is_paused:
            return 0.0
        key = (demand, round(allocation.vcores, 3))
        tps = cache.get(key)
        if tps is None:
            tps = estimate_throughput(
                self.arch, self.workload, demand, allocation
            ).tps
            cache[key] = tps
        return tps

    # -- the run -------------------------------------------------------------------

    def run(self, pattern: ElasticPattern, tau: int) -> ElasticityResult:
        """Run one pattern; the paper's cost window is ten minutes from
        the pattern start, so the run continues with zero demand after
        the last slot -- that idle tail is exactly where gradual
        scale-down policies keep billing and pause-and-resume saves.
        """
        slots = pattern.concurrency_slots(tau)
        pattern_duration = len(slots) * self.slot_seconds
        duration = max(pattern_duration, self.measure_window_s)
        # Proactive policies receive the slot schedule as their forecast
        # (the previous run's pattern -- a perfect predictor).
        forecast = [
            (index * self.slot_seconds, demand)
            for index, demand in enumerate(slots)
        ] + [(pattern_duration, 0)]
        autoscaler = Autoscaler(self.arch, self.workload, forecast=forecast)
        collector = PerformanceCollector()
        tps_cache: Dict[Tuple[int, float], float] = {}
        target_cache: Dict[int, float] = {}

        can_pause = self.arch.scaling.kind is ScalingKind.CU_PAUSE_RESUME

        def target_vcores(demand: int) -> float:
            if demand <= 0:
                # The policy floor: pause-capable systems can reach zero,
                # the rest can only fall to their minimum allocation.
                return 0.0 if can_pause else self.arch.instance.min_allocation.vcores
            if demand not in target_cache:
                target_cache[demand] = required_vcores(
                    self.arch, self.workload, demand
                )
            return target_cache[demand]

        transitions: List[SlotTransition] = []
        execution_cost = 0.0
        scaling_cost = 0.0
        elastic_cost = 0.0

        t = 0.0
        previous_demand = 0
        open_transition: Optional[SlotTransition] = None
        while t < duration:
            slot_index = int(t // self.slot_seconds)
            demand = slots[slot_index] if slot_index < len(slots) else 0
            if t > 0 and demand != previous_demand and t % self.slot_seconds < TICK_S:
                open_transition = SlotTransition(
                    from_concurrency=previous_demand,
                    to_concurrency=demand,
                    change_at_s=t,
                    settled_at_s=None,
                )
                transitions.append(open_transition)
            previous_demand = demand

            allocation = autoscaler.step(t, demand)
            tps = self._tps_at(demand, allocation, tps_cache)
            # Serverless scale-ups arrive with a cold(er) buffer: damp TPS
            # while the cache re-warms (tau from the scaling policy).
            warm_tau = self.arch.scaling.scaling_warm_tau_s
            if warm_tau > 0 and tps > 0:
                last_up = None
                for event in reversed(autoscaler.events):
                    if event.trigger in ("scale_up", "resume"):
                        last_up = event.time_s
                        break
                if last_up is not None and t >= last_up:
                    tps *= 1.0 - math.exp(-max(TICK_S, t - last_up) / warm_tau)

            # Cost: charge the allocated resources at RUC prices.  The
            # share matching the demand target is execution cost; any
            # surplus while the policy catches up is scaling cost.
            iops_alloc = self.arch.provisioned.iops * (
                allocation.vcores / max(self.arch.provisioned.vcores, 1e-9)
            )
            tick_cost = allocation_cost(
                allocation.vcores,
                allocation.memory_gb,
                iops=iops_alloc,
                duration_s=TICK_S,
            )
            elastic_cost += tick_cost
            target = target_vcores(demand)
            if self.arch.scaling.kind is ScalingKind.FIXED:
                # Fixed instances never scale: everything is execution cost.
                target = allocation.vcores
            surplus_vcores = max(0.0, allocation.vcores - target)
            surplus_cost = allocation_cost(
                surplus_vcores,
                surplus_vcores
                * (allocation.memory_gb / allocation.vcores if allocation.vcores else 0.0),
                duration_s=TICK_S,
            )
            scaling_cost += min(surplus_cost, tick_cost)
            execution_cost += tick_cost - min(surplus_cost, tick_cost)

            if open_transition is not None:
                settled = (
                    abs(allocation.vcores - target) < 1e-9
                    or (demand <= 0 and allocation.is_paused)
                )
                fixed = self.arch.scaling.kind is ScalingKind.FIXED
                if settled or fixed:
                    open_transition.settled_at_s = t + TICK_S if not fixed else t
                    open_transition = None

            collector.record(
                t,
                tps,
                vcores=allocation.vcores,
                memory_gb=allocation.memory_gb,
                cost_delta=tick_cost,
                demand=demand,
            )
            t += TICK_S

        # Scaling decisions become collector annotations, so exports and
        # reports can line the allocation steps up with the TPS series.
        for event in autoscaler.events:
            collector.note(
                event.time_s,
                f"{event.trigger}: {event.from_vcores:g} -> {event.to_vcores:g} vcores",
            )

        # Figure 6 reports average throughput over the *pattern* (costs
        # keep accruing over the full ten-minute window).
        avg_tps = collector.avg_tps(0.0, pattern_duration)
        for transition in transitions:
            end = transition.settled_at_s or duration
            # scaling cost attributed per transition: surplus window length
            transition.scaling_cost = scaling_cost * (
                (end - transition.change_at_s) / duration
            )
        return ElasticityResult(
            arch_name=self.arch.name,
            pattern=pattern,
            collector=collector,
            avg_tps=avg_tps,
            execution_cost=execution_cost,
            scaling_cost=scaling_cost,
            elastic_cost=elastic_cost,
            transitions=transitions,
        )

    def run_all(
        self, tau: int, patterns: Optional[Sequence[str]] = None
    ) -> Dict[str, ElasticityResult]:
        keys = list(patterns) if patterns else list(ELASTIC_PATTERNS)
        return {key: self.run(ELASTIC_PATTERNS[key], tau) for key in keys}
