"""``CloudDatabase``: one provisioned deployment of an architecture.

It bundles an :class:`~repro.cloud.architectures.Architecture` with a
current compute allocation and replica count, and answers steady-state
throughput questions for that deployment.
"""

from __future__ import annotations

from typing import Optional

from repro.cloud.architectures import Architecture, get as get_architecture
from repro.cloud.mva_model import ThroughputEstimate, estimate_throughput
from repro.cloud.specs import ComputeAllocation
from repro.cloud.workload_model import WorkloadMix


class CloudDatabase:
    """A deployed instance (RW node + ``n_replicas`` RO nodes)."""

    def __init__(
        self,
        arch: Architecture | str,
        n_replicas: int = 1,
        allocation: Optional[ComputeAllocation] = None,
    ):
        self.arch = get_architecture(arch) if isinstance(arch, str) else arch
        if n_replicas < 0:
            raise ValueError("replica count cannot be negative")
        self.n_replicas = n_replicas
        self.allocation = allocation or self.arch.instance.max_allocation

    @property
    def name(self) -> str:
        return self.arch.name

    @property
    def display_name(self) -> str:
        return self.arch.display_name

    # -- steady state ------------------------------------------------------------

    def estimate(self, workload: WorkloadMix, concurrency: int) -> ThroughputEstimate:
        """Steady-state operating point under ``concurrency`` clients at
        the current allocation."""
        return estimate_throughput(self.arch, workload, concurrency, self.allocation)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CloudDatabase {self.arch.name} "
            f"{self.allocation.vcores}vC/{self.allocation.memory_gb}GB "
            f"+{self.n_replicas}RO>"
        )
