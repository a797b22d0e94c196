"""``CloudDatabase``: one provisioned deployment of an architecture.

It bundles an :class:`~repro.cloud.architectures.Architecture` with a
current compute allocation and replica count, and answers steady-state
throughput questions for that deployment.
"""

from __future__ import annotations


from repro.cloud.architectures import Architecture, get as get_architecture
from repro.cloud.mva_model import ThroughputEstimate, estimate_throughput
from repro.cloud.workload_model import WorkloadMix


class CloudDatabase:
    """A deployed instance at its largest compute allocation."""

    def __init__(self, arch: Architecture | str):
        self.arch = get_architecture(arch) if isinstance(arch, str) else arch
        self.allocation = self.arch.instance.max_allocation

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
            f"{self.allocation.vcores}vC/{self.allocation.memory_gb}GB>"
        )
