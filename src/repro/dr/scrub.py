"""The scrubber: CRC-verify archives and live WAL, repair what it can.

Storage rot is silent until something reads the rotten byte -- usually
the restore that needed it.  The scrubber is the proactive read: it
walks every archived record and every retained live-WAL record,
re-verifies the per-record CRC the engine has carried since append
time, and repairs failures from the redundant copy:

* an archive's primary copy repairs from its mirror
  (:meth:`~repro.dr.archive.ShardArchive.repair`);
* a live-WAL record repairs from the archive's verified copy
  (:meth:`~repro.engine.wal.WriteAheadLog.repair_record`) -- the
  archive is upstream of truncation, so an intact copy usually exists.

A record with *no* intact copy anywhere is reported unrepairable;
replay refuses to cross it, so the scrub report is the early warning
that a restore to that range would come up short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.dr.archive import FleetArchiver, ShardArchive
from repro.engine.database import Database
from repro.engine.errors import WalCorruptionError
from repro.engine.wal import corrupt_records
from repro.obs import NULL_OBSERVER, Observer


@dataclass
class ScrubReport:
    """One scrub pass over a fleet's archives and live logs."""

    archive_records: int = 0
    wal_records: int = 0
    archive_repaired: int = 0
    wal_repaired: int = 0
    #: (shard_name, lsn) with no intact copy anywhere
    unrepairable: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def scanned(self) -> int:
        return self.archive_records + self.wal_records

    @property
    def repaired(self) -> int:
        return self.archive_repaired + self.wal_repaired

    @property
    def clean(self) -> bool:
        return not self.unrepairable


def scrub_archive(
    archive: ShardArchive, report: Optional[ScrubReport] = None
) -> ScrubReport:
    """Verify every archived record; repair primaries from the mirror."""
    report = report or ScrubReport()
    report.archive_records += len(archive)
    for record in archive.corrupt_records():
        if archive.repair(record.lsn):
            report.archive_repaired += 1
        else:
            report.unrepairable.append((archive.shard_name, record.lsn))
    return report


def scrub_wal(
    db: Database,
    archive: Optional[ShardArchive] = None,
    report: Optional[ScrubReport] = None,
) -> ScrubReport:
    """Verify the retained live WAL; repair from the archive's copy."""
    report = report or ScrubReport()
    wal = db.wal
    records = wal.records_from(wal.first_retained_lsn)
    report.wal_records += len(records)
    for record in corrupt_records(records):
        fixed = False
        if archive is not None and archive.has(record.lsn):
            try:
                wal.repair_record(archive.verified_copy(record.lsn))
                fixed = True
            except (WalCorruptionError, ValueError):
                # both archive copies rotten, or the LSN fell out of the
                # retained window between scan and repair
                fixed = False
        if fixed:
            report.wal_repaired += 1
        else:
            report.unrepairable.append((db.name, record.lsn))
    return report


def scrub_fleet(
    fleet,
    archiver: FleetArchiver,
    observer: Optional[Observer] = None,
) -> ScrubReport:
    """One full scrub pass: every shard's archive, then its live WAL."""
    obs = observer or NULL_OBSERVER
    report = ScrubReport()
    for shard, archive in zip(fleet.shards, archiver.archives):
        scrub_archive(archive, report)
        scrub_wal(shard, archive, report)
    if obs.enabled:
        obs.count("dr.scrubs")
        if report.repaired:
            obs.event(
                "dr.scrub.repair", "dr", track="dr",
                attrs={"repaired": report.repaired,
                       "unrepairable": len(report.unrepairable)},
            )
    return report
