"""Exact Mean Value Analysis (MVA) for closed queueing networks.

The cloud substrate estimates steady-state throughput of a database
instance under ``N`` concurrent clients by modelling the instance as a
closed queueing network: the CPU, the I/O channel, the commit/log path
and the network are *queueing centres*; pure latencies (RDMA hops,
storage round-trips that overlap with other work) are *delay centres*.

Exact MVA recurrence (Reiser & Lavenberg, 1980), for ``n = 1..N``::

    R_k(n) = D_k * (1 + Q_k(n-1))     queueing centre
    R_k(n) = D_k                      delay centre
    X(n)   = n / (Z + sum_k R_k(n))
    Q_k(n) = X(n) * R_k(n)

Multi-server centres (a CPU with ``c`` vCores) use the Seidmann
transformation: a ``c``-server centre with demand ``D`` is replaced by a
single-server queueing centre with demand ``D/c`` plus a delay centre
with demand ``D*(c-1)/c``.  The transformation is exact at the
asymptotes and within a few percent elsewhere, which is ample for a
benchmark whose claims are about *shapes* and *ranks*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class Center:
    """One service centre of the closed network.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"cpu"``).
    demand:
        Total service demand per job in seconds (visits x service time).
    kind:
        ``"queue"`` for a queueing centre, ``"delay"`` for an
        infinite-server (pure latency) centre.
    servers:
        Number of identical servers at a queueing centre.
    """

    name: str
    demand: float
    kind: str = "queue"
    servers: float = 1.0

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError(f"centre {self.name!r} has negative demand")
        if self.kind not in ("queue", "delay"):
            raise ValueError(f"centre kind must be 'queue' or 'delay', got {self.kind!r}")
        if self.servers <= 0:
            raise ValueError(f"centre {self.name!r} needs servers > 0")


@dataclass
class MvaSolution:
    """Steady-state solution of the network at one population."""

    throughput: float
    response_time: float
    utilizations: Dict[str, float] = field(default_factory=dict)

    def bottleneck(self) -> str:
        """Name of the centre with the highest utilisation."""
        return max(self.utilizations, key=self.utilizations.get)


class ClosedNetwork:
    """A single-class closed queueing network solved by exact MVA."""

    def __init__(self, centers: Sequence[Center], think_time: float = 0.0):
        if think_time < 0:
            raise ValueError("think time must be non-negative")
        if not centers:
            raise ValueError("a network needs at least one centre")
        names = [center.name for center in centers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate centre names: {names}")
        self.centers = list(centers)
        self.think_time = think_time
        self._expanded = self._expand_multiserver(self.centers)

    @staticmethod
    def _expand_multiserver(centers: Sequence[Center]) -> List[Center]:
        """Apply the Seidmann transformation to multi-server centres."""
        expanded: List[Center] = []
        for center in centers:
            if center.kind == "queue" and center.servers != 1:
                c = center.servers
                expanded.append(Center(center.name, center.demand / c, "queue"))
                # Fractional capacity (c < 1, e.g. a 0.5-vCore serverless
                # instance) only slows the queueing part; there is no
                # parallelism to model with a shadow delay centre.
                if center.demand > 0 and c > 1:
                    expanded.append(
                        Center(f"{center.name}~delay", center.demand * (c - 1) / c, "delay")
                    )
            else:
                expanded.append(center)
        return expanded

    def solve(self, population: int) -> MvaSolution:
        """Exact MVA at integral population ``population``."""
        if population < 0:
            raise ValueError("population must be >= 0")
        if population == 0:
            return MvaSolution(
                throughput=0.0,
                response_time=0.0,
                utilizations={c.name: 0.0 for c in self.centers},
            )
        queue_lengths = {center.name: 0.0 for center in self._expanded}
        throughput = 0.0
        residences: Dict[str, float] = {}
        for n in range(1, population + 1):
            residences = {}
            for center in self._expanded:
                if center.kind == "delay":
                    residences[center.name] = center.demand
                else:
                    residences[center.name] = center.demand * (1.0 + queue_lengths[center.name])
            total_response = sum(residences.values())
            throughput = n / (self.think_time + total_response)
            for center in self._expanded:
                queue_lengths[center.name] = throughput * residences[center.name]

        return self._fold(throughput, residences)

    def _fold(self, throughput: float, residences: Dict[str, float]) -> MvaSolution:
        """Fold Seidmann shadow centres back into their originals."""
        folded_residence: Dict[str, float] = {}
        utilizations: Dict[str, float] = {}
        for center in self.centers:
            shadow = f"{center.name}~delay"
            residence = residences.get(center.name, 0.0) + residences.get(shadow, 0.0)
            folded_residence[center.name] = residence
            if center.kind == "delay" or center.demand == 0:
                utilizations[center.name] = 0.0
            else:
                utilizations[center.name] = min(
                    1.0, throughput * center.demand / center.servers
                )
        return MvaSolution(
            throughput=throughput,
            response_time=sum(folded_residence.values()),
            utilizations=utilizations,
        )
