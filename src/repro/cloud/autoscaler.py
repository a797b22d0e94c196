"""Autoscaling policies of the systems-under-test.

The elasticity evaluator steps a simulation clock one second at a time
and asks the autoscaler for the current compute allocation given the
instantaneous client demand.  Four policies cover the paper's SUTs:

* ``FIXED`` -- provisioned instances (AWS RDS, CDB4) never move.
* ``THRESHOLD_GRADUAL`` -- CDB1: scales *up* quickly once demand
  exceeds the current capacity, but scales *down* one step at a time on
  a slow cadence (the paper measures 479-536 s top-to-bottom).
* ``ON_DEMAND`` -- CDB2: re-fits the allocation to demand on a fixed
  control cadence, in both directions, with a 0.5 vCore floor.
* ``CU_PAUSE_RESUME`` -- CDB3: compute-unit steps with immediate
  scale-up, sluggish partial scale-down (it ignores short valleys), a
  pause-to-zero after sustained idleness, and a small resume penalty.
* ``PROACTIVE`` -- Moneyball/Seagull-style forecasting (the paper cites
  it as the proactive scaling its SUTs do *not* exhibit): given a
  demand forecast (e.g. the previous run's slot schedule), the policy
  pre-scales ``lead_s`` seconds ahead of each demand change and falls
  back to on-demand re-fitting when demand deviates from the forecast.

The autoscaler records every allocation change; evaluators derive
per-slot scaling times and scaling costs (Table VI) from that event
log rather than from the policy parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import required_vcores
from repro.cloud.specs import ComputeAllocation, ScalingKind
from repro.cloud.workload_model import WorkloadMix

#: CDB3: demand must stay low this long before a partial scale-down.  A
#: constant: no output moved for any value from 0 s to 10^6 s.
DOWN_STABILIZATION_S = 180.0


@dataclass(frozen=True)
class ScalingEvent:
    """One applied allocation change."""

    time_s: float
    from_vcores: float
    to_vcores: float
    trigger: str  # "scale_up" | "scale_down" | "pause" | "resume"


class Autoscaler:
    """Stateful allocation controller for one instance."""

    def __init__(
        self,
        arch: Architecture,
        workload: WorkloadMix,
        forecast: Optional[Sequence[Tuple[float, int]]] = None,
    ):
        """``forecast`` is a step schedule of (start_s, demand) pairs,
        consumed by the PROACTIVE policy (ignored by the others)."""
        self.arch = arch
        self.workload = workload
        self.policy = arch.scaling
        self.forecast = sorted(forecast) if forecast else None
        spec = arch.instance
        self._mem_per_core = (
            spec.max_allocation.memory_gb / spec.max_allocation.vcores
            if spec.max_allocation.vcores
            else 0.0
        )
        if self.policy.kind is ScalingKind.FIXED:
            self.allocation = spec.max_allocation
        else:
            self.allocation = spec.min_allocation
        self.events: List[ScalingEvent] = []
        self._last_control_s = float("-inf")
        self._idle_since: Optional[float] = None
        self._lower_demand_since: Optional[float] = None
        self._last_step_down_s = float("-inf")
        self._pending_target: Optional[float] = None
        self._pending_apply_at: float = 0.0
        self._resuming_until: Optional[float] = None
        self._target_cache: dict[int, float] = {}
        self._saturation_cache: dict[int, bool] = {}
        #: control windows where demand needed more vcores than the
        #: instance can ever provide -- scaling is out of moves and only
        #: overload protection (shedding, brownout) can help
        self.overload_windows = 0
        #: True while demand exceeds what the max allocation can serve
        self.is_overloaded = False

    # -- public API ------------------------------------------------------------

    @property
    def is_paused(self) -> bool:
        return self.allocation.is_paused

    def step(self, now_s: float, demand_concurrency: int) -> ComputeAllocation:
        """Advance to ``now_s`` with the current demand; returns allocation."""
        self._note_saturation(demand_concurrency)
        kind = self.policy.kind
        if kind is ScalingKind.FIXED:
            return self.allocation
        if kind is ScalingKind.THRESHOLD_GRADUAL:
            self._threshold_gradual(now_s, demand_concurrency)
        elif kind is ScalingKind.ON_DEMAND:
            self._on_demand(now_s, demand_concurrency)
        elif kind is ScalingKind.CU_PAUSE_RESUME:
            self._cu_pause_resume(now_s, demand_concurrency)
        elif kind is ScalingKind.PROACTIVE:
            self._proactive(now_s, demand_concurrency)
        return self.allocation

    def _note_saturation(self, demand: int) -> None:
        if demand <= 0:
            self.is_overloaded = False
            return
        saturated = self._saturation_cache.get(demand)
        if saturated is None:
            # ``required_vcores`` clamps at the instance ceiling, so the
            # regular target can never exceed it; probe with headroom
            # above the ceiling to see whether demand actually fits.
            max_vcores = self.arch.instance.max_allocation.vcores
            unbounded = required_vcores(
                self.arch, self.workload, demand, self.policy.up_threshold,
                max_vcores=4.0 * max_vcores,
            )
            saturated = unbounded > max_vcores + 1e-9
            self._saturation_cache[demand] = saturated
        if saturated and not self.is_overloaded:
            self.overload_windows += 1
        self.is_overloaded = saturated

    # -- shared helpers -----------------------------------------------------------

    def _allocation_for(self, vcores: float) -> ComputeAllocation:
        spec = self.arch.instance
        if vcores <= 0:
            return ComputeAllocation(0.0, 0.0)
        return spec.clamp(ComputeAllocation(vcores, vcores * self._mem_per_core))

    def _apply(self, now_s: float, vcores: float, trigger: str) -> None:
        target = (
            ComputeAllocation(0.0, 0.0)
            if vcores <= 0
            else self._allocation_for(vcores)
        )
        if (target.vcores, target.memory_gb) == (
            self.allocation.vcores,
            self.allocation.memory_gb,
        ):
            return
        self.events.append(
            ScalingEvent(
                time_s=now_s,
                from_vcores=self.allocation.vcores,
                to_vcores=target.vcores,
                trigger=trigger,
            )
        )
        self.allocation = target

    def _target_vcores(self, demand: int) -> float:
        if demand <= 0:
            return self.arch.instance.min_allocation.vcores
        cached = self._target_cache.get(demand)
        if cached is None:
            cached = required_vcores(
                self.arch, self.workload, demand, self.policy.up_threshold
            )
            self._target_cache[demand] = cached
        return cached

    # -- CDB1: fast up, gradual down ----------------------------------------------

    def _threshold_gradual(self, now_s: float, demand: int) -> None:
        policy = self.policy
        target = self._target_vcores(demand)
        if target > self.allocation.vcores:
            # Arm (or keep) a pending scale-up that applies after the
            # reaction delay.
            if self._pending_target is None or self._pending_target < target:
                self._pending_target = target
                self._pending_apply_at = now_s + policy.reaction_s
            if now_s >= self._pending_apply_at:
                self._apply(now_s, self._pending_target, "scale_up")
                self._pending_target = None
        else:
            self._pending_target = None
            if target < self.allocation.vcores:
                if now_s - self._last_step_down_s >= policy.gradual_step_s:
                    step = max(self.arch.instance.vcore_step, 1.0)
                    self._apply(
                        now_s, self.allocation.vcores - step, "scale_down"
                    )
                    self._last_step_down_s = now_s

    # -- CDB2: periodic re-fit -------------------------------------------------------

    def _on_demand(self, now_s: float, demand: int) -> None:
        policy = self.policy
        if now_s - self._last_control_s < policy.reaction_s:
            return
        self._last_control_s = now_s
        target = self._target_vcores(demand)
        if target > self.allocation.vcores:
            self._apply(now_s, target, "scale_up")
        elif target < self.allocation.vcores:
            self._apply(now_s, target, "scale_down")

    # -- proactive: forecast-driven pre-scaling ---------------------------------------------

    def _forecast_demand(self, at_s: float) -> Optional[int]:
        """The forecast's demand at ``at_s`` (step semantics), if any."""
        if not self.forecast:
            return None
        demand = None
        for start_s, value in self.forecast:
            if start_s > at_s:
                break
            demand = value
        return demand

    def _proactive(self, now_s: float, demand: int) -> None:
        policy = self.policy
        if now_s - self._last_control_s < policy.reaction_s:
            return
        self._last_control_s = now_s
        predicted = self._forecast_demand(now_s + policy.lead_s)
        # provision for the worse of "what the forecast says is coming"
        # and "what is actually here" (reactive fallback on misprediction)
        effective = max(demand, predicted if predicted is not None else 0)
        target = self._target_vcores(effective)
        if target > self.allocation.vcores:
            self._apply(now_s, target, "scale_up")
        elif target < self.allocation.vcores:
            self._apply(now_s, target, "scale_down")

    # -- CDB3: CU steps + pause/resume --------------------------------------------------

    def _cu_pause_resume(self, now_s: float, demand: int) -> None:
        policy = self.policy
        # resume path: a paused instance sees demand -> start resuming
        if self.allocation.is_paused:
            if demand > 0:
                if self._resuming_until is None:
                    self._resuming_until = now_s + policy.resume_s
                if now_s >= self._resuming_until:
                    self._resuming_until = None
                    self._idle_since = None
                    self._apply(now_s, self._target_vcores(demand), "resume")
            return
        # pause path: sustained zero demand
        if demand <= 0:
            if self._idle_since is None:
                self._idle_since = now_s
            if now_s - self._idle_since >= policy.pause_after_s:
                self._apply(now_s, 0.0, "pause")
            return
        self._idle_since = None
        # CU control happens on a coarse cadence
        if now_s - self._last_control_s < policy.reaction_s:
            return
        self._last_control_s = now_s
        target = self._target_vcores(demand)
        if target > self.allocation.vcores:
            self._lower_demand_since = None
            self._apply(now_s, target, "scale_up")
        elif target < self.allocation.vcores:
            # Partial scale-down only after the demand stayed low for a
            # stabilisation window -- short valleys are ignored, exactly
            # the paper's observation on the Single Valley pattern.
            if self._lower_demand_since is None:
                self._lower_demand_since = now_s
            elif now_s - self._lower_demand_since >= DOWN_STABILIZATION_S:
                self._lower_demand_since = None
                self._apply(now_s, target, "scale_down")
        else:
            self._lower_demand_since = None
