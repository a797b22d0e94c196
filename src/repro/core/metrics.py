"""The "PERFECT" metric framework (paper Section II-G).

Seven scores quantify a cloud database's service quality:

* **P-Score** -- productivity: average TPS per resource-unit cost (1).
* **E1-Score** -- scale-up/down elasticity: TPS per elastic cost (2).
* **F-Score** -- fail-over: injection -> service restoration (3).
* **R-Score** -- recovery: service restoration -> TPS restored (4).
* **E2-Score** -- scale-out elasticity: TPS gained per added RO node (5).
* **C-Score** -- replication lag for consistency (6).
* **T-Score** -- multi-tenancy: geometric-mean tenant TPS per cost (7).

They combine into the unified **O-Score** (8)::

    O = SF * lg(P * T * E1 * E2 / (R * F * C))

Each score can also be computed against the vendors' *actual* prices
(the starred variants of Table IX), which reranks the systems because
billing minimums and per-vendor price lists dominate short runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.cloud.architectures import Architecture
from repro.cloud.mva_model import estimate_throughput
from repro.cloud.specs import ProvisionedPackage
from repro.cloud.workload_model import WorkloadMix
from repro.core.pricing import actual_cost

#: the E2 normalisation factor delta of Equation (5)
E2_DELTA = 1000.0
#: client threads E2 measures scale-out at (the paper's 150)
E2_CONCURRENCY = 150


def p_score_actual(
    avg_tps: float, arch: Architecture, package: ProvisionedPackage,
    duration_s: float = 600.0,
) -> float:
    """P-Score* with the vendor's billed cost for a ``duration_s`` run."""
    billed = actual_cost(arch.pricing, package, duration_s)
    per_minute = billed / (duration_s / 60.0)
    return avg_tps / per_minute if per_minute > 0 else 0.0


def scale_out_tps(
    arch: Architecture,
    workload: WorkloadMix,
    concurrency: int,
    n_ro_nodes: int,
) -> float:
    """Total TPS with ``n_ro_nodes`` read replicas added.

    Writers stay on the RW node; each added replica serves the
    read-only share of the mix at the architecture's replica
    efficiency (shared-storage replicas contend on page services, an
    RDS replica owns a full local copy).
    """
    base = estimate_throughput(arch, workload, concurrency).tps
    read_fraction = 1.0 - workload.write_fraction
    return base * (1.0 + n_ro_nodes * read_fraction * arch.replica_efficiency)


def e2_score(arch: Architecture, workload: WorkloadMix) -> float:
    """Equation (5): TPS gained by adding one RO node, over delta."""
    base = scale_out_tps(arch, workload, E2_CONCURRENCY, 0)
    return (scale_out_tps(arch, workload, E2_CONCURRENCY, 1) - base) / E2_DELTA


def o_score(
    p: float,
    t: float,
    e1: float,
    e2: float,
    r_s: float,
    f_s: float,
    c_ms: float,
    scale_factor: float = 1.0,
) -> float:
    """Equation (8): ``SF * lg(P*T*E1*E2 / (R*F*C))``.

    R and F are in seconds, C in milliseconds (the paper's units in
    Table IX).  Non-positive inputs make the score undefined; they are
    clamped to tiny positives so a system that never recovered scores
    terribly instead of crashing the report.
    """
    eps = 1e-9
    numerator = max(p, eps) * max(t, eps) * max(e1, eps) * max(e2, eps)
    denominator = max(r_s, eps) * max(f_s, eps) * max(c_ms, eps)
    return scale_factor * math.log10(numerator / denominator)


@dataclass
class PerfectScores:
    """One architecture's row of Table IX."""

    arch_name: str
    p: float = 0.0
    p_star: float = 0.0
    e1: float = 0.0
    e1_star: float = 0.0
    e2: float = 0.0
    r_s: float = 0.0
    f_s: float = 0.0
    c_ms: float = 0.0
    t: float = 0.0
    t_star: float = 0.0
    scale_factor: float = 1.0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def o(self) -> float:
        return o_score(
            self.p, self.t, self.e1, self.e2,
            self.r_s, self.f_s, self.c_ms, self.scale_factor,
        )

    @property
    def o_star(self) -> float:
        return o_score(
            self.p_star, self.t_star, self.e1_star, self.e2,
            self.r_s, self.f_s, self.c_ms, self.scale_factor,
        )

    def as_row(self) -> tuple:
        return (
            self.arch_name, round(self.p), round(self.p_star),
            round(self.e1), round(self.e1_star),
            round(self.r_s, 1), round(self.f_s, 1), round(self.e2, 1),
            round(self.c_ms, 1), round(self.t), round(self.t_star),
            round(self.o, 2), round(self.o_star, 2),
        )
