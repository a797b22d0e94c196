"""Performance collector: time series of TPS, allocation and cost.

Every dynamic evaluator (elasticity, fail-over, multi-tenancy) records
into a collector; the metric layer reads averages and integrals out of
it.  The series are step functions over simulation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.resources import TimeSeries


@dataclass
class CollectorSummary:
    """Window aggregates produced by :meth:`PerformanceCollector.summary`."""

    start_s: float
    end_s: float
    avg_tps: float
    peak_tps: float
    total_cost: float

    @classmethod
    def zeroed(cls, start_s: float, end_s: float) -> "CollectorSummary":
        """The well-defined summary of nothing: every aggregate is 0.0.

        Returned for empty collectors and degenerate (zero-length or
        inverted) windows, where averages would otherwise divide by a
        zero-length window and the peak would leak values from outside
        the requested range.
        """
        return cls(
            start_s=start_s,
            end_s=end_s,
            avg_tps=0.0,
            peak_tps=0.0,
            total_cost=0.0,
        )


class PerformanceCollector:
    """Accumulates step-function series during a simulated run."""

    def __init__(self) -> None:
        self.tps = TimeSeries()
        self.vcores = TimeSeries()
        self.memory_gb = TimeSeries()
        self.cost = TimeSeries()          # cumulative dollars
        self.demand = TimeSeries()        # offered concurrency
        self._total_cost = 0.0
        self.events: List[Tuple[float, str]] = []

    def record(
        self,
        time_s: float,
        tps: float,
        vcores: float = 0.0,
        memory_gb: float = 0.0,
        cost_delta: float = 0.0,
        demand: Optional[int] = None,
    ) -> None:
        self.tps.record(time_s, tps)
        self.vcores.record(time_s, vcores)
        self.memory_gb.record(time_s, memory_gb)
        self._total_cost += cost_delta
        self.cost.record(time_s, self._total_cost)
        if demand is not None:
            self.demand.record(time_s, demand)

    def note(self, time_s: float, message: str) -> None:
        """Free-form event annotation (scaling events, failures)."""
        self.events.append((time_s, message))

    @property
    def total_cost(self) -> float:
        return self._total_cost

    def avg_tps(self, start_s: float, end_s: float) -> float:
        return self.tps.average(start_s, end_s)

    def peak_tps(self) -> float:
        return max(self.tps.values, default=0.0)

    def cost_between(self, start_s: float, end_s: float) -> float:
        if len(self.cost) == 0 or end_s <= start_s:
            return 0.0
        return self.cost.value_at(end_s) - self.cost.value_at(start_s)

    def summary(self, start_s: float, end_s: float) -> CollectorSummary:
        if len(self.tps) == 0 or end_s <= start_s:
            return CollectorSummary.zeroed(start_s, end_s)
        return CollectorSummary(
            start_s=start_s,
            end_s=end_s,
            avg_tps=self.tps.average(start_s, end_s),
            peak_tps=self.peak_tps(),
            total_cost=self.cost_between(start_s, end_s),
        )

    def series(self, name: str) -> TimeSeries:
        """Access a series by name ('tps', 'vcores', 'memory_gb', ...)."""
        series = getattr(self, name, None)
        if not isinstance(series, TimeSeries):
            raise KeyError(f"no series named {name!r}")
        return series
