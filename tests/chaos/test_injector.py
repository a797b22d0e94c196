"""The injector's pure time-point queries."""

import pytest

from repro.chaos.injector import GRAY_SLOWDOWN, MAX_LOSS, ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec


def make(*specs):
    return ChaosInjector(FaultPlan(specs))


def test_partitioned_and_heal():
    inj = make(FaultSpec(FaultKind.PARTITION, "replica:0", start_s=5.0, duration_s=10.0))
    assert not inj.partitioned("replica:0", 4.0)
    assert inj.partitioned("replica:0", 5.0)
    assert not inj.partitioned("replica:0", 15.0)
    assert not inj.partitioned("primary", 7.0)
    assert inj.heal_at("replica:0", 7.0) == 15.0
    assert inj.heal_at("replica:0", 20.0) == 20.0  # healthy: heal is "now"


def test_flap_counts_as_partition_only_when_down():
    inj = make(FaultSpec(
        FaultKind.FLAP, "replica:0", start_s=0.0, duration_s=8.0, period_s=2.0
    ))
    assert inj.partitioned("replica:0", 1.0)
    assert not inj.partitioned("replica:0", 3.0)
    assert inj.heal_at("replica:0", 1.0) == 2.0


def test_delay_and_loss_multiply():
    inj = make(
        FaultSpec(FaultKind.DELAY, "replica:0", start_s=0.0, duration_s=10.0, intensity=1.0),
        FaultSpec(FaultKind.LOSS, "replica:0", start_s=0.0, duration_s=10.0, intensity=0.5),
    )
    # delay doubles, 50% loss doubles again (1 / (1 - 0.5))
    assert inj.delay_factor("replica:0", 5.0) == pytest.approx(4.0)
    assert inj.delay_factor("replica:0", 15.0) == 1.0


def test_loss_is_capped():
    inj = make(FaultSpec(
        FaultKind.LOSS, "x", start_s=0.0, duration_s=1.0, intensity=1.0
    ))
    assert inj.delay_factor("x", 0.5) == pytest.approx(1.0 / (1.0 - MAX_LOSS))


def test_gray_slowdown():
    inj = make(FaultSpec(
        FaultKind.GRAY, "primary", start_s=0.0, duration_s=10.0, intensity=1.0
    ))
    assert inj.slowdown("primary", 5.0) == pytest.approx(GRAY_SLOWDOWN)
    assert inj.slowdown("primary", 15.0) == 1.0


def test_stalled_until():
    inj = make(FaultSpec(FaultKind.STALL, "replica:0", start_s=2.0, duration_s=6.0))
    assert inj.stalled_until("replica:0", 1.0) is None
    assert inj.stalled_until("replica:0", 3.0) == 8.0
    assert inj.stalled_until("replica:0", 9.0) is None


def test_observed_counters_record_bites():
    inj = make(FaultSpec(FaultKind.PARTITION, "x", start_s=0.0, duration_s=1.0))
    inj.partitioned("x", 0.5)
    inj.partitioned("x", 0.6)
    inj.partitioned("x", 2.0)  # outside the window: not observed
    assert inj.observed == {"partition": 2}
