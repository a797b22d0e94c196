"""WAL archiving: ingest semantics, lag, truncation, catch-up.

The archive's correctness rests on three ingest rules -- duplicate
re-offers are no-ops, a reused LSN with a different payload rewinds the
dead timeline, and a rotted primary heals in place from its mirror --
plus the completeness hooks (pre-truncate ingestion, ``catch_up``)
that guarantee replay never finds a gap.
"""

import dataclasses

import pytest

from repro.dr.archive import FleetArchiver, ShardArchive, WalArchiver
from repro.engine.database import Database
from repro.engine.errors import EngineError, WalCorruptionError
from repro.engine.types import Column, ColumnType, Schema


def fresh_db(name="arch"):
    db = Database(name)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def insert(db, k):
    db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])


class TestShardArchiveIngest:
    def test_duplicate_reoffer_is_a_noop(self):
        db = fresh_db()
        archive = ShardArchive(db.name)
        record = None
        insert(db, 1)
        for record in db.wal.records_from(db.wal.first_retained_lsn):
            assert archive.ingest(record)
        before = len(archive)
        assert not archive.ingest(record)
        assert len(archive) == before
        assert archive.duplicates == 1
        assert archive.rewinds == 0

    def test_corrupt_incoming_record_is_refused(self):
        db = fresh_db()
        archive = ShardArchive(db.name)
        insert(db, 1)
        good = db.wal.record_at(db.wal.last_lsn)
        bad = dataclasses.replace(good, crc=good.crc ^ 1)
        with pytest.raises(WalCorruptionError, match="CRC"):
            archive.ingest(bad)
        assert len(archive) == 0

    def test_reused_lsn_rewinds_the_dead_timeline(self):
        """After ``discard_from`` the engine reuses LSNs; the archived
        suffix belonged to a dead timeline and must be dropped."""
        db = fresh_db()
        archiver = WalArchiver(db)
        for k in (1, 2, 3):
            insert(db, k)
        archive = archiver.archive
        end_before = archive.last_lsn
        # discard the last insert's records, then write a different one
        # into the same LSNs
        chain_head = db.wal.transaction_chain(
            db.wal.record_at(end_before).txn_id, end_before
        )[-1].lsn
        db.wal.discard_from(chain_head)
        insert(db, 9)
        assert archive.rewinds == 1
        assert archive.rewound_records > 0
        # the archive tracks the live timeline exactly
        assert archive.last_lsn == db.wal.last_lsn
        live = {r.lsn: r for r in db.wal.records_from(db.wal.first_retained_lsn)}
        for lsn in range(chain_head, archive.last_lsn + 1):
            assert archive.record(lsn) == live[lsn]

    def test_rotted_primary_heals_from_matching_reoffer(self):
        """Same LSN, different payload, but only because the primary
        rotted: a re-offer matching the intact mirror heals in place
        instead of rewinding away the suffix."""
        db = fresh_db()
        archiver = WalArchiver(db)
        for k in (1, 2, 3):
            insert(db, k)
        archive = archiver.archive
        lsn = archive.first_lsn + 1
        end = archive.last_lsn
        archive.flip_bit(lsn, bit=3)
        assert not archive.record(lsn).is_intact
        assert archive.ingest(db.wal.record_at(lsn))
        assert archive.healed == 1
        assert archive.rewinds == 0
        assert archive.record(lsn).is_intact
        # nothing above the healed record was thrown away
        assert archive.last_lsn == end
        assert not archive.missing_between(archive.first_lsn - 1, end)


class TestShardArchiveReads:
    def _archive_with_gap(self):
        db = fresh_db()
        records = []
        for k in (1, 2, 3, 4):
            insert(db, k)
        records = list(db.wal.records_from(db.wal.first_retained_lsn))
        archive = ShardArchive(db.name)
        skipped = records[len(records) // 2]
        for record in records:
            if record.lsn != skipped.lsn:
                archive.ingest(record)
        return archive, records, skipped

    def test_records_between_raises_on_gap(self):
        archive, records, skipped = self._archive_with_gap()
        with pytest.raises(EngineError, match="gap"):
            archive.records_between(records[0].lsn - 1, records[-1].lsn)
        assert archive.missing_between(
            records[0].lsn - 1, records[-1].lsn
        ) == [skipped.lsn]

    def test_records_between_raises_on_corruption(self):
        db = fresh_db()
        archiver = WalArchiver(db)
        for k in (1, 2):
            insert(db, k)
        archive = archiver.archive
        archive.flip_bit(archive.first_lsn + 1)
        with pytest.raises(WalCorruptionError, match="scrub"):
            archive.records_between(archive.first_lsn - 1, archive.last_lsn)

    def test_records_between_returns_the_contiguous_range(self):
        db = fresh_db()
        archiver = WalArchiver(db)
        for k in (1, 2, 3):
            insert(db, k)
        archive = archiver.archive
        out = archive.records_between(archive.first_lsn - 1, archive.last_lsn)
        assert [r.lsn for r in out] == list(
            range(archive.first_lsn, archive.last_lsn + 1)
        )

    def test_missing_record_read_raises(self):
        archive = ShardArchive("empty")
        with pytest.raises(EngineError, match="no LSN"):
            archive.record(5)
        assert not archive.has(5)
        assert archive.first_lsn == 0
        assert archive.last_lsn == 0

    def test_flip_bit_repair_verified_copy(self):
        db = fresh_db()
        archiver = WalArchiver(db)
        insert(db, 1)
        archive = archiver.archive
        lsn = archive.last_lsn
        archive.flip_bit(lsn, bit=7)
        assert archive.first_corrupt_lsn() == lsn
        # the mirror still serves an intact copy, and repairs the primary
        assert archive.verified_copy(lsn).is_intact
        assert archive.repair(lsn)
        assert archive.first_corrupt_lsn() is None
        assert archive.record(lsn).is_intact


class TestWalArchiverModes:
    def test_sync_ships_on_append(self):
        db = fresh_db()
        archiver = WalArchiver(db, mode="sync")
        insert(db, 1)
        assert archiver.archive.last_lsn == db.wal.last_lsn
        assert archiver.flush() == 0  # nothing was buffered

    def test_lagged_buffers_until_flush(self):
        db = fresh_db()
        archiver = WalArchiver(db, mode="lagged")
        for k in (1, 2):
            insert(db, k)
        assert len(archiver.archive) == 0
        assert archiver.flush() == db.wal.last_lsn  # the whole log was buffered
        assert archiver.flush() == 0
        assert archiver.archive.last_lsn == db.wal.last_lsn

    def test_drop_pending_returns_the_rpo_exposure(self):
        db = fresh_db()
        archiver = WalArchiver(db, mode="lagged")
        insert(db, 1)
        assert archiver.drop_pending() == db.wal.last_lsn  # the whole log
        assert archiver.drop_pending() == 0
        assert archiver.flush() == 0
        assert len(archiver.archive) == 0

    def test_truncation_ingests_the_doomed_prefix(self):
        """Checkpoint truncation must pass the dropped prefix through
        the archive -- in lagged mode that is the only copy left."""
        db = fresh_db()
        archiver = WalArchiver(db, mode="lagged")
        for k in (1, 2, 3):
            insert(db, k)
        assert len(archiver.archive) == 0
        db.checkpoint(truncate_wal=True)
        boundary = db.wal.first_retained_lsn
        assert boundary > 1
        # every truncated record is archived; the buffer kept only what
        # the log still retains
        assert not archiver.archive.missing_between(0, boundary - 1)
        assert all(
            record.lsn >= boundary for record in archiver._pending
        )

    def test_catch_up_heals_append_gaps_from_the_live_log(self):
        db = fresh_db()
        for k in (1, 2):
            insert(db, k)
        # attach late: the appends above never reached the listeners
        archiver = WalArchiver(db)
        assert len(archiver.archive) == 0
        added = archiver.catch_up()
        assert added == db.wal.retained_records
        assert archiver.archive.last_lsn == db.wal.last_lsn

    def test_detach_stops_the_feed(self):
        db = fresh_db()
        archiver = WalArchiver(db)
        insert(db, 1)
        end = archiver.archive.last_lsn
        archiver.detach()
        insert(db, 2)
        assert archiver.archive.last_lsn == end

    def test_invalid_mode_rejected(self):
        db = fresh_db()
        with pytest.raises(ValueError, match="archive mode"):
            WalArchiver(db, mode="eventual")


class TestFleetArchiver:
    def test_one_archiver_per_shard_and_mode_control(self):
        from repro.ha.workload import build_pairs_fleet

        fleet, _pairs = build_pairs_fleet(n_shards=2, n_pairs=2, name="archf")
        archiver = FleetArchiver(fleet, mode="sync")
        assert len(archiver.archives) == 2
        assert archiver.mode == "sync"
        # the fleet was loaded before the archivers attached: catch_up
        # seals each archive to its shard's durable horizon
        assert archiver.catch_up() > 0
        for shard, archive in zip(fleet.shards, archiver.archives):
            assert archive.last_lsn == shard.wal.last_lsn
        archiver.detach()
