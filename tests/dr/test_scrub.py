"""The scrubber: proactive CRC verification with repair.

Three repair sources, one escalation: an archive primary repairs from
its mirror, a live-WAL record repairs from the archive's verified
copy, and a record with no intact copy anywhere is reported
unrepairable -- the early warning that replay would refuse the range.
"""

import dataclasses

from repro.dr.archive import FleetArchiver, WalArchiver
from repro.dr.scrub import scrub_archive, scrub_fleet, scrub_wal
from repro.engine.database import Database
from repro.engine.types import Column, ColumnType, Schema
from repro.ha.replication import WalShipper, bootstrap_standby
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.shard.fleet import ShardedDatabase
from repro.sim.rng import derive_seed


def fresh_db(name="scrub"):
    db = Database(name)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def archived_db(name="scrub"):
    db = fresh_db(name)
    archiver = WalArchiver(db)
    for k in (1, 2, 3):
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
    return db, archiver


class TestScrubArchive:
    def test_repairs_a_flipped_bit_from_the_mirror(self):
        db, archiver = archived_db()
        archive = archiver.archive
        lsn = archive.first_lsn + 2
        archive.flip_bit(lsn, bit=4)
        report = scrub_archive(archive)
        assert report.archive_records == len(archive)
        assert report.archive_repaired == 1
        assert report.clean
        assert archive.record(lsn).is_intact

    def test_clean_archive_scrubs_clean(self):
        db, archiver = archived_db()
        report = scrub_archive(archiver.archive)
        assert report.repaired == 0
        assert report.clean
        assert report.scanned == len(archiver.archive)

    def test_both_copies_rotten_is_unrepairable(self):
        db, archiver = archived_db()
        archive = archiver.archive
        lsn = archive.first_lsn + 1
        archive.flip_bit(lsn, bit=4)
        mirror = archive._mirror[lsn]
        archive._mirror[lsn] = dataclasses.replace(mirror, crc=mirror.crc ^ 1)
        report = scrub_archive(archive)
        assert report.repaired == 0
        assert not report.clean
        assert report.unrepairable == [(db.name, lsn)]


class TestScrubWal:
    def test_repairs_a_live_record_from_the_archive(self):
        db, archiver = archived_db()
        lsn = db.wal.last_lsn - 1
        db.wal.flip_bit(lsn)
        assert not db.wal.record_at(lsn).is_intact
        report = scrub_wal(db, archiver.archive)
        assert report.wal_repaired == 1
        assert report.clean
        assert db.wal.record_at(lsn).is_intact

    def test_no_archive_copy_is_unrepairable(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        lsn = db.wal.last_lsn
        db.wal.flip_bit(lsn)
        report = scrub_wal(db, archive=None)
        assert report.wal_repaired == 0
        assert report.unrepairable == [(db.name, lsn)]


class TestScrubFleet:
    def test_one_pass_covers_every_archive_and_live_log(self):
        fleet, pairs = build_pairs_fleet(n_shards=2, n_pairs=2, name="scrubf")
        archiver = FleetArchiver(fleet, mode="sync")
        workload = PairWorkload(
            fleet, pairs, seed=derive_seed(3, "scrub.fleet")
        )
        for _ in range(3):
            assert workload.transfer()
        archiver.catch_up()
        # one rotten record in each layer, different shards
        archiver.archives[0].flip_bit(archiver.archives[0].last_lsn, bit=2)
        wal = fleet.shards[1].wal
        wal.flip_bit(wal.last_lsn)
        report = scrub_fleet(fleet, archiver)
        assert report.archive_repaired == 1
        assert report.wal_repaired == 1
        assert report.clean
        assert report.scanned == report.archive_records + report.wal_records
        # the scrubbed rig restores cleanly end to end
        from repro.dr.backup import BackupJob
        from repro.dr.restore import RestoreJob

        manifest = BackupJob(fleet, archiver, name="scrubf").run()
        archiver.catch_up()
        restored, restore_report = RestoreJob(
            manifest, archiver, name="scrubf"
        ).run()
        assert restore_report.rows_loaded == 4

    def test_whole_valued_float_cells_survive_every_real_path(self):
        """Rows of whole-valued DECIMAL/TIMESTAMP cells (``10.0``,
        ``-0.0``) are checksummed type-exactly.  Every path a record
        really takes hands on the object ``append`` built, so none of
        them may mistake a re-offer for a rewind or a healthy copy for
        rot: sync ingest, the truncate hook's re-offer, ``catch_up``,
        HA shipping and a scrub pass."""
        fleet = ShardedDatabase(1, name="wholefloat")
        fleet.create_table(Schema(
            "LEDGER",
            (Column("L_ID", ColumnType.INT, nullable=False),
             Column("L_AMOUNT", ColumnType.DECIMAL, default=0.0),
             Column("L_TS", ColumnType.TIMESTAMP)),
            primary_key="L_ID",
        ))
        shard = fleet.shards[0]
        archiver = FleetArchiver(fleet, mode="sync")
        archive = archiver.archives[0]
        standby = bootstrap_standby(shard)
        shipper = WalShipper(shard, standby)

        def write(base):
            for l_id, amount, ts in ((base, 10.0, 1000.0), (base + 1, -0.0, 0.0)):
                fleet.execute(
                    "INSERT INTO ledger (L_ID, L_AMOUNT, L_TS) VALUES (?, ?, ?)",
                    [l_id, amount, ts],
                )
            fleet.execute(
                "UPDATE ledger SET L_AMOUNT = L_AMOUNT + ? WHERE L_ID = ?",
                [5.0, base],
            )
            fleet.execute("DELETE FROM ledger WHERE L_ID = ?", [base + 1])

        write(1)
        assert len(archive) == shard.wal.last_lsn  # sync ingest kept up
        shard.checkpoint(truncate_wal=True)  # the hook re-offers the prefix
        write(11)
        assert archiver.catch_up() == 0  # everything retained is archived
        assert archive.duplicates > 0
        assert (archive.rewinds, archive.healed) == (0, 0)
        assert shipper.is_fresh and shipper.shipped == shard.wal.last_lsn
        report = scrub_fleet(fleet, archiver)
        assert report.repaired == 0 and report.clean
        copies = [
            *archive.records_between(0, archive.last_lsn),
            *shard.wal.records_from(shard.wal.first_retained_lsn),
            *standby.wal.records_from(standby.wal.first_retained_lsn),
        ]
        assert any(
            isinstance(cell, float) and cell.is_integer()
            for record in copies for cell in record.after or ()
        )
        assert all(record.is_intact for record in copies)
