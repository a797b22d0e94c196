"""Multi-tenant resource scheduling models.

Three deployment models from the paper:

* **Isolated instances** (AWS RDS, CDB1, CDB4): one full instance per
  tenant.  Heavy tenants never disturb light ones, but resources cannot
  move between tenants, so staggered workloads waste capacity -- and
  the bill triples (network and IOPS are per instance).
* **Elastic pool** (CDB2): tenants share a pool of vCores/memory.  The
  scheduler re-fits per-tenant shares to demand every slot; when the
  pool is overcommitted every tenant pays a contention penalty, when a
  single tenant is active it can borrow the whole pool.
* **Branches** (CDB3): copy-on-write branches share storage but have
  stringently isolated compute; idle branches pause (scale to zero) and
  resume cold on the next slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import estimate_throughput, required_vcores
from repro.cloud.specs import ComputeAllocation, TenancyKind
from repro.cloud.workload_model import WorkloadMix


@dataclass
class TenantSlotResult:
    """Per-tenant outcome of one time slot."""

    demand: int
    tps: float
    allocation: ComputeAllocation


@dataclass
class SlotResult:
    """One slot across all tenants."""

    tenants: List[TenantSlotResult]

    @property
    def total_tps(self) -> float:
        return sum(tenant.tps for tenant in self.tenants)


def _cold_slot_fraction(tau_s: float, slot_s: float) -> float:
    """Average throughput fraction over a slot that starts cache-cold.

    TPS ramps as ``1 - exp(-t / tau)``; integrating over the slot gives
    ``1 - (tau / T) * (1 - exp(-T / tau))``.
    """
    import math

    if slot_s <= 0 or tau_s <= 0:
        return 1.0
    return 1.0 - (tau_s / slot_s) * (1.0 - math.exp(-slot_s / tau_s))


class TenantScheduler:
    """Schedules one slot at a time for ``n_tenants`` tenants."""

    def __init__(
        self,
        arch: Architecture,
        workload: WorkloadMix,
        n_tenants: int,
        slot_seconds: float = 60.0,
    ):
        if n_tenants < 1:
            raise ValueError("need at least one tenant")
        self.arch = arch
        self.workload = workload
        self.n_tenants = n_tenants
        self.slot_seconds = slot_seconds
        self._paused = [False] * n_tenants

    def run_slots(self, demand_matrix: Sequence[Sequence[int]]) -> List[SlotResult]:
        """Run every slot; ``demand_matrix[tenant][slot]`` is concurrency."""
        n_slots = len(demand_matrix[0])
        if any(len(row) != n_slots for row in demand_matrix):
            raise ValueError("all tenants need the same number of slots")
        results = []
        for slot in range(n_slots):
            demands = [int(row[slot]) for row in demand_matrix]
            results.append(self.schedule_slot(demands))
        return results

    def schedule_slot(self, demands: Sequence[int]) -> SlotResult:
        if len(demands) != self.n_tenants:
            raise ValueError(
                f"expected {self.n_tenants} demands, got {len(demands)}"
            )
        kind = self.arch.tenancy.kind
        if kind is TenancyKind.ISOLATED:
            tenants = self._isolated(demands)
        elif kind is TenancyKind.ELASTIC_POOL:
            tenants = self._elastic_pool(demands)
        elif kind is TenancyKind.BRANCH:
            tenants = self._branch(demands)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown tenancy kind {kind}")
        return SlotResult(tenants=tenants)

    # -- isolated instances ----------------------------------------------------

    def _isolated(self, demands: Sequence[int]) -> List[TenantSlotResult]:
        allocation = self.arch.instance.max_allocation
        tenants = []
        for demand in demands:
            estimate = estimate_throughput(
                self.arch, self.workload, demand, allocation
            )
            tenants.append(
                TenantSlotResult(demand=demand, tps=estimate.tps, allocation=allocation)
            )
        return tenants

    # -- shared elastic pool -------------------------------------------------------

    def _elastic_pool(self, demands: Sequence[int]) -> List[TenantSlotResult]:
        pool_vcores = self.arch.instance.max_allocation.vcores * self.n_tenants
        mem_per_core = (
            self.arch.instance.max_allocation.memory_gb
            / self.arch.instance.max_allocation.vcores
        )
        desired = [
            required_vcores(
                self.arch, self.workload, demand, max_vcores=pool_vcores
            )
            if demand > 0
            else 0.0
            for demand in demands
        ]
        total_desired = sum(desired)
        if total_desired <= pool_vcores:
            # Contention-free: everyone gets what they asked for, and the
            # spare capacity is shared among active tenants on demand.
            spare = pool_vcores - total_desired
            active = sum(1 for d in desired if d > 0) or 1
            shares = [
                d + (spare / active if d > 0 else 0.0) for d in desired
            ]
            efficiency = 1.0
        else:
            overcommit = total_desired / pool_vcores - 1.0
            efficiency = max(
                0.15, 1.0 - self.arch.tenancy.overcommit_penalty * min(1.5, overcommit)
            )
            shares = [pool_vcores * d / total_desired for d in desired]
        tenants = []
        for demand, share in zip(demands, shares):
            allocation = ComputeAllocation(share, share * mem_per_core)
            if demand <= 0 or share <= 0:
                estimate_tps = 0.0
            else:
                estimate_tps = estimate_throughput(
                    self.arch,
                    self.workload,
                    demand,
                    allocation,
                    efficiency_factor=efficiency,
                ).tps
            tenants.append(
                TenantSlotResult(demand=demand, tps=estimate_tps, allocation=allocation)
            )
        return tenants

    # -- copy-on-write branches -------------------------------------------------------

    def _branch(self, demands: Sequence[int]) -> List[TenantSlotResult]:
        allocation = self.arch.instance.max_allocation
        resume_s = self.arch.scaling.resume_s
        tau = self.arch.recovery.warmup_tau_rw_s + 10.0  # LFC refill is slow
        tenants = []
        for index, demand in enumerate(demands):
            if demand <= 0:
                # Idle branches pause: no compute allocated, no cost.
                self._paused[index] = True
                tenants.append(
                    TenantSlotResult(
                        demand=0, tps=0.0, allocation=ComputeAllocation(0.0, 0.0)
                    )
                )
                continue
            resumed_cold = self._paused[index]
            self._paused[index] = False
            estimate = estimate_throughput(
                self.arch, self.workload, demand, allocation
            )
            tps = estimate.tps
            if resumed_cold:
                usable = max(0.0, self.slot_seconds - resume_s)
                ramp = _cold_slot_fraction(tau, usable)
                tps *= (usable / self.slot_seconds) * ramp
            tenants.append(
                TenantSlotResult(demand=demand, tps=tps, allocation=allocation)
            )
        return tenants
