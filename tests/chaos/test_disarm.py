"""Crash faults are events: every one-shot trigger disarms after firing.

Covers ``ChaosInjector.take_once`` for COORD_CRASH, PRIMARY_CRASH and
REPLICA_CRASH, and the armed crash points and phase actions of the
three ``PhaseFaults`` hosts (2PC coordinator, backup job, restore job)
-- a fired fault must never re-trip during the recovery that follows it.
"""

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BACKUP_PHASES, BackupCrash, BackupJob
from repro.dr.restore import RESTORE_PHASES, RestoreCrash, RestoreJob
from repro.engine.errors import SimulatedCrash
from repro.ha.workload import build_pairs_fleet
from repro.shard.coordinator import PHASES, CoordinatorCrash

from tests.shard.test_2pc import load_keys
from tests.shard.test_router import kv_fleet


def injector(*specs):
    return ChaosInjector(FaultPlan(specs, seed=1, name="disarm"))


class TestCoordCrashOneShot:
    def test_fires_once_per_spec(self):
        chaos = injector(
            FaultSpec(FaultKind.COORD_CRASH, "after_prepare", 0.0, 0.0)
        )
        assert chaos.take_once(FaultKind.COORD_CRASH, "after_prepare")
        assert not chaos.take_once(FaultKind.COORD_CRASH, "after_prepare")

    def test_other_phases_untouched(self):
        chaos = injector(
            FaultSpec(FaultKind.COORD_CRASH, "after_prepare", 0.0, 0.0)
        )
        assert not chaos.take_once(FaultKind.COORD_CRASH, "mid_commit")
        assert chaos.take_once(FaultKind.COORD_CRASH, "after_prepare")

    def test_two_specs_fire_independently(self):
        chaos = injector(
            FaultSpec(FaultKind.COORD_CRASH, "after_prepare", 0.0, 0.0),
            FaultSpec(FaultKind.COORD_CRASH, "mid_commit", 0.0, 0.0),
        )
        assert chaos.take_once(FaultKind.COORD_CRASH, "after_prepare")
        assert chaos.take_once(FaultKind.COORD_CRASH, "mid_commit")
        assert not chaos.take_once(FaultKind.COORD_CRASH, "after_prepare")
        assert not chaos.take_once(FaultKind.COORD_CRASH, "mid_commit")

    def test_recovery_after_chaos_crash_does_not_retrip(self):
        """End to end: the chaos-armed coordinator crash fires once; the
        recovery and the traffic after it run clean."""
        fleet = kv_fleet(
            2,
            chaos=injector(
                FaultSpec(FaultKind.COORD_CRASH, "after_prepare", 0.0, 0.0)
            ),
        )
        by_shard = load_keys(fleet)

        def cross_write(value):
            gtxn = fleet.begin()
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [value, keys[0]], gtxn=gtxn
                )
            gtxn.commit()

        with pytest.raises(SimulatedCrash):
            cross_write(1)
        fleet.crash()
        fleet.recover()
        cross_write(2)  # the same phase boundary passes silently now


class TestNodeCrashOneShot:
    @pytest.mark.parametrize(
        "kind", [FaultKind.PRIMARY_CRASH, FaultKind.REPLICA_CRASH]
    )
    def test_fires_once_after_start(self, kind):
        chaos = injector(FaultSpec(kind, "shard:1", 2.0, 0.0))
        assert not chaos.take_once(kind, "shard:1", 1.9)
        assert chaos.take_once(kind, "shard:1", 2.0)
        # never again, no matter how often the detector polls
        for now in (2.0, 2.5, 100.0):
            assert not chaos.take_once(kind, "shard:1", now)

    def test_target_must_match(self):
        chaos = injector(FaultSpec(FaultKind.PRIMARY_CRASH, "shard:1", 0.0, 0.0))
        assert not chaos.take_once(FaultKind.PRIMARY_CRASH, "shard:0", 5.0)
        assert chaos.take_once(FaultKind.PRIMARY_CRASH, "shard:1", 5.0)


class TestArmedCoordinatorDisarms:
    def test_arm_crash_is_one_shot(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        fleet.coordinator.arm_crash("after_prepare")
        assert fleet.coordinator.armed
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute(
                "UPDATE kv SET V = ? WHERE K = ?", [1, keys[0]], gtxn=gtxn
            )
        with pytest.raises(SimulatedCrash):
            gtxn.commit()
        assert not fleet.coordinator.armed

    def test_arm_action_is_one_shot(self):
        fleet = kv_fleet(2)
        by_shard = load_keys(fleet)
        fired = []
        fleet.coordinator.arm_action("before_prepare", lambda: fired.append(1))
        assert fleet.coordinator.armed

        def cross_write(value):
            gtxn = fleet.begin()
            for keys in by_shard:
                fleet.execute(
                    "UPDATE kv SET V = ? WHERE K = ?", [value, keys[0]], gtxn=gtxn
                )
            gtxn.commit()

        cross_write(1)
        assert fired == [1]
        assert not fleet.coordinator.armed
        cross_write(2)
        assert fired == [1]  # ran exactly once


def cross_writer(fleet):
    by_shard = load_keys(fleet)

    def cross_write():
        gtxn = fleet.begin()
        for keys in by_shard:
            fleet.execute("UPDATE kv SET V = V + 1 WHERE K = ?", [keys[0]], gtxn=gtxn)
        gtxn.commit()

    return cross_write


def coordinator_host(chaos=None):
    fleet = kv_fleet(2, chaos=chaos)

    def recover():
        fleet.crash()
        fleet.recover()

    return fleet.coordinator, cross_writer(fleet), recover


def backup_host(chaos=None):
    fleet, _pairs = build_pairs_fleet(n_shards=2, n_pairs=2, name="faults")
    backup = BackupJob(fleet, FleetArchiver(fleet, mode="sync"), chaos=chaos)
    return backup, backup.run, fleet.recover


def restore_host(chaos=None):
    fleet, _pairs = build_pairs_fleet(n_shards=2, n_pairs=2, name="faults")
    archiver = FleetArchiver(fleet, mode="sync")
    restore = RestoreJob(BackupJob(fleet, archiver).run(), archiver, chaos=chaos)
    # a torn restore leaves its inputs intact: recovery is just the re-run
    return restore, restore.run, lambda: None


@pytest.mark.parametrize("make_host,phases,crash_class,chaos_kind", [
    pytest.param(coordinator_host, PHASES, CoordinatorCrash,
                 FaultKind.COORD_CRASH, id="TxnCoordinator"),
    pytest.param(backup_host, BACKUP_PHASES, BackupCrash,
                 FaultKind.BACKUP_CRASH, id="BackupJob"),
    pytest.param(restore_host, RESTORE_PHASES, RestoreCrash,
                 FaultKind.RESTORE_CRASH, id="RestoreJob"),
])
class TestPhaseFaults:
    """The one phase-fault mechanism, on each of the three hosts that
    inherit it: ``make_host`` returns (host, run one pass through every
    boundary, recover after a crash)."""

    def test_unknown_phase_names_the_hosts_own(
        self, make_host, phases, crash_class, chaos_kind
    ):
        host, _run, _recover = make_host()
        for arm in (host.arm_crash, lambda phase: host.arm_action(phase, list)):
            with pytest.raises(ValueError) as exc_info:
                arm("mid_flight")
            assert f"{'mid_flight'!r}; one of {phases}" in str(exc_info.value)
        assert not host.armed

    def test_action_then_crash_at_one_boundary_both_one_shot(
        self, make_host, phases, crash_class, chaos_kind
    ):
        host, run, recover = make_host()
        phase = phases[1]
        fired = []
        host.arm_crash(phase)
        host.arm_action(phase, lambda: fired.append(phase))
        assert host.armed
        with pytest.raises(crash_class, match=f"crashed at {phase}"):
            run()
        assert fired == [phase]  # the action ran before the boundary raised
        assert not host.armed
        recover()
        run()  # the same boundary passes silently now
        assert fired == [phase]

    def test_chaos_scheduled_crash_fires_once(
        self, make_host, phases, crash_class, chaos_kind
    ):
        chaos = injector(FaultSpec(chaos_kind, phases[-1], 0.0, 0.0))
        host, run, recover = make_host(chaos)
        assert not host.armed  # scheduled, not armed
        with pytest.raises(crash_class, match=f"crashed at {phases[-1]}"):
            run()
        recover()
        run()  # the recovery that follows must not re-trip it
        assert chaos.observed == {chaos_kind.value: 1}
