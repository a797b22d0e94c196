"""DR fault kinds are events too: one-shot triggers disarm after firing.

``test_disarm.py`` for the DR kinds of ``take_once``: ``BACKUP_CRASH`` /
``RESTORE_CRASH`` fire at most once per spec (the retried job after
recovery must run clean), and ``ARCHIVE_CORRUPT`` flips its bit exactly
once (the scrub pass that follows must not find the segment
re-corrupted).  ``ARCHIVE_LAG`` is the deliberate exception -- a
window, not an event.
"""

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.dr.archive import FleetArchiver
from repro.dr.backup import BackupCrash, BackupJob
from repro.ha.workload import build_pairs_fleet


def injector(*specs):
    return ChaosInjector(FaultPlan(specs, seed=1, name="dr-disarm"))


class TestDrCrashOneShot:
    def test_backup_crash_fires_once_per_spec(self):
        chaos = injector(
            FaultSpec(FaultKind.BACKUP_CRASH, "after_pin", 0.0, 0.0)
        )
        assert chaos.take_once(FaultKind.BACKUP_CRASH, "after_pin")
        assert not chaos.take_once(FaultKind.BACKUP_CRASH, "after_pin")

    def test_other_phases_untouched(self):
        chaos = injector(
            FaultSpec(FaultKind.BACKUP_CRASH, "after_pin", 0.0, 0.0)
        )
        assert not chaos.take_once(FaultKind.BACKUP_CRASH, "after_image")
        assert chaos.take_once(FaultKind.BACKUP_CRASH, "after_pin")

    def test_backup_and_restore_specs_fire_independently(self):
        chaos = injector(
            FaultSpec(FaultKind.BACKUP_CRASH, "after_pin", 0.0, 0.0),
            FaultSpec(FaultKind.RESTORE_CRASH, "after_replay", 0.0, 0.0),
        )
        assert chaos.take_once(FaultKind.BACKUP_CRASH, "after_pin")
        assert chaos.take_once(FaultKind.RESTORE_CRASH, "after_replay")
        assert not chaos.take_once(FaultKind.BACKUP_CRASH, "after_pin")
        assert not chaos.take_once(FaultKind.RESTORE_CRASH, "after_replay")

    def test_chaos_armed_backup_crash_does_not_retrip(self):
        """End to end: the chaos spec kills the first backup run; the
        retried run on the recovered fleet goes through clean."""
        chaos = injector(
            FaultSpec(FaultKind.BACKUP_CRASH, "after_image", 0.0, 0.0)
        )
        fleet, _pairs = build_pairs_fleet(n_shards=2, n_pairs=2, name="drdis")
        archiver = FleetArchiver(fleet, mode="sync")
        backup = BackupJob(fleet, archiver, chaos=chaos, name="drdis")
        with pytest.raises(BackupCrash):
            backup.run()
        fleet.recover()
        manifest = backup.run()
        assert manifest.total_rows == 4


class TestArchiveCorruptOneShot:
    def test_fires_once_after_its_start(self):
        chaos = injector(
            FaultSpec(FaultKind.ARCHIVE_CORRUPT, "archive:0", 1.0, 0.0)
        )
        assert not chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:0", now=0.5)
        assert chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:0", now=1.5)
        assert not chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:0", now=2.0)

    def test_targets_are_independent(self):
        chaos = injector(
            FaultSpec(FaultKind.ARCHIVE_CORRUPT, "archive:0", 0.0, 0.0),
            FaultSpec(FaultKind.ARCHIVE_CORRUPT, "archive:1", 0.0, 0.0),
        )
        assert chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:0", now=0.0)
        assert chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:1", now=0.0)
        assert not chaos.take_once(FaultKind.ARCHIVE_CORRUPT, "archive:0", now=9.0)


class TestArchiveLagWindow:
    def test_lag_is_a_window_not_an_event(self):
        chaos = injector(
            FaultSpec(FaultKind.ARCHIVE_LAG, "archive:0", 1.0, 2.0)
        )
        assert not chaos.archive_lagging("archive:0", now=0.5)
        assert chaos.archive_lagging("archive:0", now=1.5)
        # still inside the window: a window re-reports, it never disarms
        assert chaos.archive_lagging("archive:0", now=2.5)
        assert not chaos.archive_lagging("archive:0", now=3.5)
