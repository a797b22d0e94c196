"""Deterministic multi-layer fault injection (the chaos layer).

A :class:`~repro.chaos.plan.FaultPlan` is a declarative, seeded
schedule of faults; a :class:`~repro.chaos.injector.ChaosInjector`
evaluates it at query time-points for the replication pipeline and
the client resilience stack.  Determinism
contract: the plan's :meth:`~repro.chaos.plan.FaultPlan.fingerprint`
pins the exact fault schedule, so equal seeds produce byte-identical
chaos runs.
"""

from repro.chaos.availability import AScore, AvailabilityEvaluator
from repro.chaos.injector import GRAY_SLOWDOWN, MAX_LOSS, ChaosInjector
from repro.chaos.plan import (
    ENGINE_KINDS,
    NETWORK_KINDS,
    NODE_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
)

__all__ = [
    "AScore",
    "AvailabilityEvaluator",
    "ChaosInjector",
    "ENGINE_KINDS",
    "FaultKind",
    "FaultPlan",
    "FaultSpec",
    "GRAY_SLOWDOWN",
    "MAX_LOSS",
    "NETWORK_KINDS",
    "NODE_KINDS",
]
