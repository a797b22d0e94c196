"""WAL truncation-boundary API hardening.

The truncation boundary (``first_retained_lsn``) is where silent
corruption hides: a chain walk, tail discard, or point read that
quietly crosses it operates on half a transaction.  These tests pin
the hardened contracts: every boundary crossing raises instead of
shortening, ``reset_for_restore()`` is the one sanctioned way back to
a pristine log, and ``in_doubt_txns()`` reports exactly the chains a
consistent cut must not straddle.
"""

import pytest

from repro.engine.database import Database
from repro.engine.errors import WalCorruptionError
from repro.engine.types import Column, ColumnType, Schema
from repro.engine.wal import LogKind


def fresh_db(name="walb"):
    db = Database(name)
    db.create_table(Schema(
        "KV",
        (Column("K", ColumnType.INT, nullable=False),
         Column("V", ColumnType.INT, default=0)),
        primary_key="K",
    ))
    return db


def _truncating_checkpoint(db):
    db.checkpoint(truncate_wal=True)
    return db.wal.first_retained_lsn


class TestTransactionChainBoundary:
    def test_chain_crossing_truncation_raises(self):
        """A chain whose tail was truncated must refuse to walk, not
        return a silently shortened (= corrupt) undo list."""
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        first_lsn = db.wal.last_lsn
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=txn)
        last_lsn = db.wal.last_lsn
        txn.commit()
        # force the truncation point between the two chain records
        db.wal.truncate(first_lsn + 1)
        assert db.wal.first_retained_lsn > first_lsn
        with pytest.raises(ValueError, match="truncation"):
            db.wal.transaction_chain(txn.txn_id, last_lsn)

    def test_chain_fully_retained_still_walks(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [2, 2], txn=txn)
        last_lsn = db.wal.last_lsn
        chain = db.wal.transaction_chain(txn.txn_id, last_lsn)
        assert [record.lsn for record in chain] == sorted(
            (record.lsn for record in chain), reverse=True
        )
        assert all(record.txn_id == txn.txn_id for record in chain)
        txn.commit()


class TestRetainedWindowEdges:
    def test_reads_at_exactly_first_retained_lsn(self):
        db = fresh_db()
        for k in range(1, 6):
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        boundary = _truncating_checkpoint(db)
        assert boundary > 1
        # at the boundary: fine
        assert db.wal.record_at(boundary).lsn == boundary
        assert next(iter(db.wal.records_from(boundary))).lsn == boundary
        # one below: refused
        with pytest.raises(ValueError):
            db.wal.record_at(boundary - 1)
        with pytest.raises(ValueError):
            list(db.wal.records_from(boundary - 1))

    def test_discard_from_below_boundary_raises(self):
        db = fresh_db()
        for k in range(1, 6):
            db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [k, k])
        boundary = _truncating_checkpoint(db)
        with pytest.raises(ValueError, match="retained"):
            db.wal.discard_from(boundary - 1)
        # exactly at the boundary discards the whole retained window
        retained = db.wal.retained_records
        dropped = db.wal.discard_from(boundary)
        assert dropped == retained
        assert db.wal.retained_records == 0


class TestResetForRestore:
    def test_start_from_requires_pristine_log(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        with pytest.raises(ValueError, match="reset_for_restore"):
            db.wal.start_from(100)

    def test_reset_then_start_from_positions_the_sequence(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.wal.reset_for_restore()
        assert db.wal.retained_records == 0
        assert db.wal.in_flight_txns() == set()
        db.wal.start_from(50)
        assert db.wal.first_retained_lsn == 50
        assert db.wal.last_lsn == 49

    def test_reset_revives_a_dead_log(self):
        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        db.wal.kill()
        assert db.wal.is_dead
        db.wal.reset_for_restore()
        assert not db.wal.is_dead


class TestInDoubtTxns:
    def test_prepared_branch_is_in_doubt(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1], txn=txn)
        db.prepare_commit(txn, gtid="g1")
        in_doubt = db.wal.in_doubt_txns()
        assert txn.txn_id in in_doubt
        assert db.wal.record_at(in_doubt[txn.txn_id]).kind is LogKind.PREPARE
        txn.commit()
        assert txn.txn_id not in db.wal.in_doubt_txns()

    def test_settled_loser_is_not_in_doubt(self):
        """Recovery undoes a loser and logs its ABORT, closing its chain
        in the WAL's open map (it used to stay there forever): it does
        not read as in flight or in doubt, and holds no live handle."""
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [9, 9], txn=txn)
        db.crash()
        db.recover()
        assert txn.txn_id not in db.wal.in_flight_txns()
        assert txn.txn_id not in db.wal.in_doubt_txns()
        assert txn.txn_id not in db.txns.active

    def test_dangling_prepare_survives_crash_as_in_doubt(self):
        db = fresh_db()
        txn = db.begin()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [7, 7], txn=txn)
        db.prepare_commit(txn, gtid="g7")
        db.crash()
        report = db.recover()
        assert txn.txn_id in report.in_doubt
        assert txn.txn_id in db.wal.in_doubt_txns()


class TestRepairRecord:
    def test_repair_record_contracts(self):
        import dataclasses

        db = fresh_db()
        db.execute("INSERT INTO kv (K, V) VALUES (?, ?)", [1, 1])
        lsn = db.wal.last_lsn
        good = db.wal.record_at(lsn)
        corrupted = db.wal.flip_bit(lsn)
        assert not corrupted.is_intact
        # a corrupt replacement is refused
        with pytest.raises(WalCorruptionError):
            db.wal.repair_record(corrupted)
        # an out-of-window replacement is refused
        displaced = dataclasses.replace(good, lsn=lsn + 100)
        with pytest.raises(ValueError, match="not retained"):
            db.wal.repair_record(displaced)
        # the verified copy heals in place
        db.wal.repair_record(good)
        assert db.wal.record_at(lsn).is_intact
