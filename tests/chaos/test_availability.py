"""End-to-end availability under chaos: goodput, failover, breakers."""

import pytest

from repro.chaos.availability import AvailabilityEvaluator
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.cloud.architectures import get as get_architecture


def evaluate(plan, **kwargs):
    defaults = dict(n_clients=4, duration_s=plan.horizon_s + 10.0, row_scale=0.001)
    defaults.update(kwargs)
    return AvailabilityEvaluator(get_architecture("cdb1"), plan, **defaults).run()


def test_replica_partition_goodput_survives_and_breaker_recloses():
    """The acceptance scenario: during an injected replica partition the
    session keeps goodput above zero by backing off and failing over to
    the primary, the replica's breaker opens under the fault, and it
    re-closes after the partition heals."""
    plan = FaultPlan(
        [FaultSpec(FaultKind.PARTITION, "replica:0", start_s=5.0, duration_s=10.0)],
        seed=9, name="replica-partition",
    )
    score = evaluate(plan, duration_s=25.0)

    assert score.requests > 200
    # goodput > 0 *during the partition window*, not just overall
    assert score.goodput_between(5.0, 15.0) > 0.0
    assert score.goodput > 0.9
    # the breaker demonstrably opened under the fault...
    assert score.breaker_opened >= 1
    # ...and re-closed once probes succeeded after the heal
    assert score.breaker_reclosed >= 1


def test_primary_partition_fails_writes_but_reads_survive():
    plan = FaultPlan(
        [FaultSpec(FaultKind.PARTITION, "primary", start_s=5.0, duration_s=5.0)],
        seed=9, name="primary-partition",
    )
    score = evaluate(plan, duration_s=20.0)
    # writes have nowhere to fail over, so some requests fail...
    assert score.failed > 0
    # ...but reads keep the lights on throughout the window
    assert score.goodput_between(5.0, 10.0) > 0.0


def test_healthy_run_is_perfect():
    plan = FaultPlan([], seed=1, name="empty")
    score = evaluate(plan, duration_s=10.0)
    assert score.requests > 0
    assert score.goodput == 1.0
    assert score.error_budget_burn == 0.0
    assert score.breaker_opened == 0


def test_same_seed_same_score_different_seed_differs():
    kwargs = dict(duration_s=30.0, targets=["primary", "replica:0"], n_faults=4)
    plan = FaultPlan.generate(seed=5, **kwargs)
    one = evaluate(plan, duration_s=35.0)
    two = evaluate(plan, duration_s=35.0)
    assert one.plan_fingerprint == two.plan_fingerprint
    assert one.requests == two.requests
    assert one.goodput == two.goodput
    assert one.samples == two.samples

    other_plan = FaultPlan.generate(seed=6, **kwargs)
    assert other_plan.fingerprint() != plan.fingerprint()


def test_gray_primary_can_burn_the_error_budget():
    """A hard gray fault makes the primary slower than the attempt
    timeout: requests burn budget even though the node is 'alive'.
    Three overlapping full-intensity windows compound (10x each)."""
    plan = FaultPlan(
        [FaultSpec(FaultKind.GRAY, "primary", start_s=2.0, duration_s=10.0, intensity=1.0)]
        * 3,
        seed=3, name="gray",
    )
    score = evaluate(plan, duration_s=16.0)
    assert score.failed > 0
    assert score.error_budget_burn > 0.0
    # stale reads off the healthy replica still succeed
    assert score.goodput_between(2.0, 12.0) > 0.0


def test_slo_validation():
    plan = FaultPlan([], seed=1)
    with pytest.raises(ValueError):
        AvailabilityEvaluator(get_architecture("cdb1"), plan, slo=1.0)
    with pytest.raises(ValueError):
        AvailabilityEvaluator(get_architecture("cdb1"), plan, n_clients=0)
