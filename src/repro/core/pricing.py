"""Resource Unit Cost (RUC) -- paper Section II-F, Table III.

The RUC normalises cost across providers: a standard hourly price per
basic resource unit (1 vCore, 1 GB RAM, 1 GB storage, 100 IOPS, 1 Gbps
network), derived by fixing the CPU:RAM price ratio from hardware
prices (0.95 : 0.05) and averaging the per-unit prices of the four
vendors.  Every provisioned package then costs

    cost/hour = vcores * CPU + memory * MEM + storage * STO
              + iops/100 * IOPS + gbps * NET(kind)

The *actual cost* model (the starred scores in Table IX) instead uses
each vendor's own price list including billing minimums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.cloud.specs import NetworkKind, PricingModel, ProvisionedPackage

#: Table III: resource unit cost per hour (USD)
CPU_VCORE_HOUR = 0.1847
MEMORY_GB_HOUR = 0.0095
STORAGE_GB_HOUR = 0.000853
IOPS_100_HOUR = 0.00015
TCP_GBPS_HOUR = 0.07696
RDMA_GBPS_HOUR = 0.23088

#: the CPU:RAM ratio fixed from hardware prices (Section II-F)
CPU_RAM_RATIO = (0.95, 0.05)


@dataclass(frozen=True)
class RucRow:
    """One row of Table III."""

    unit: str
    cost_per_hour: float
    reference: str


RUC_TABLE: List[RucRow] = [
    RucRow("CPU (vCore)", CPU_VCORE_HOUR, "Aurora/PolarDB/HyperScale/Neon"),
    RucRow("Memory (GB)", MEMORY_GB_HOUR, "Aurora/PolarDB/HyperScale/Neon"),
    RucRow("Storage (GB)", STORAGE_GB_HOUR, "Aurora/PolarDB/HyperScale/Neon"),
    RucRow("IOPS (100)", IOPS_100_HOUR, "AWS RDS IOPS Pricing"),
    RucRow("TCP/IP Network (Gbps)", TCP_GBPS_HOUR, "Huawei S1730S-S24T4X-QA2 10G"),
    RucRow("RDMA Network (Gbps)", RDMA_GBPS_HOUR, "MELLANOX MSB7890-ES2F 100G"),
]


def network_unit_price(kind: NetworkKind) -> float:
    return RDMA_GBPS_HOUR if kind is NetworkKind.RDMA else TCP_GBPS_HOUR


def package_cost_per_hour(package: ProvisionedPackage) -> float:
    """RUC cost of a provisioned bundle, per hour."""
    return (
        package.vcores * CPU_VCORE_HOUR
        + package.memory_gb * MEMORY_GB_HOUR
        + package.storage_gb * STORAGE_GB_HOUR
        + package.iops / 100.0 * IOPS_100_HOUR
        + package.network_gbps * network_unit_price(package.network_kind)
    )


def package_cost_per_minute(package: ProvisionedPackage) -> float:
    return package_cost_per_hour(package) / 60.0


def package_cost_breakdown_per_minute(package: ProvisionedPackage) -> Dict[str, float]:
    """Per-resource cost per minute (the detail columns of Table V)."""
    return {
        "cpu": package.vcores * CPU_VCORE_HOUR / 60.0,
        "memory": package.memory_gb * MEMORY_GB_HOUR / 60.0,
        "storage": package.storage_gb * STORAGE_GB_HOUR / 60.0,
        "iops": package.iops / 100.0 * IOPS_100_HOUR / 60.0,
        "network": package.network_gbps
        * network_unit_price(package.network_kind)
        / 60.0,
    }


def allocation_cost(
    vcores: float,
    memory_gb: float,
    iops: float = 0.0,
    duration_s: float = 1.0,
) -> float:
    """RUC cost of holding an allocation for ``duration_s`` seconds.

    This is the integrand of the elasticity evaluator's cost curves
    (cloud services charge for *allocated* resources, including while
    scaling).
    """
    per_hour = (
        vcores * CPU_VCORE_HOUR
        + memory_gb * MEMORY_GB_HOUR
        + iops / 100.0 * IOPS_100_HOUR
    )
    return per_hour * duration_s / 3600.0


def actual_cost(
    pricing: PricingModel,
    package: ProvisionedPackage,
    duration_s: float,
) -> float:
    """Vendor-billed cost of a run, including the billing minimum.

    AWS RDS bills at least ten minutes, the elastic pool at least an
    hour -- which is why the starred scores of Table IX rank the systems
    differently than the RUC-normalised ones.
    """
    billed_s = max(duration_s, pricing.min_billing_s)
    per_hour = (
        package.vcores * pricing.vcore_hour
        + package.memory_gb * pricing.memory_gb_hour
        + package.storage_gb * pricing.storage_gb_hour
        + package.iops / 100.0 * pricing.iops_100_hour
        + package.network_gbps * pricing.network_gbps_hour
    )
    return per_hour * billed_s / 3600.0
