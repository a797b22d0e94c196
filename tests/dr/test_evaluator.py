"""The ``--eval dr`` evaluator: RPO/RTO semantics, both archive modes.

Sync archiving must measure RPO zero and a perfect DR score with the
mid-run ``ARCHIVE_CORRUPT`` flip repaired by the scrubber; lagged
archiving must lose exactly its buffered tail, price it as a non-zero
RPO, and keep the time-travel anomalies the RPO explains out of the
violation count.  The deterministic counters of the pinned full-size
shape are asserted exactly.
"""

import pytest

from repro.dr.evaluator import DREvaluator


def run(archive_mode, txns=80, seed=42):
    return DREvaluator(
        txns=txns, n_pairs=3, archive_mode=archive_mode, seed=seed,
    ).run()


class TestSyncMode:
    def test_sync_archiving_has_zero_rpo(self):
        result = run("sync")
        assert result.acked > 0
        assert result.rpo_txns == 0
        assert result.lag_lost_records == 0
        assert result.consistent
        assert result.dr_score == 1.0
        # liveness: the restored fleet served checked traffic
        assert result.post_transfers > 0
        assert result.post_reads > 0

    def test_sync_run_exercises_corruption_and_scrub(self):
        result = run("sync")
        assert result.scrub is not None
        assert result.scrub.repaired == 1
        assert result.scrub.clean

    def test_rto_is_measured_and_modelled(self):
        result = run("sync")
        assert result.restore is not None
        assert result.rto_wall_s > 0
        assert result.rto_virtual_s > 0
        assert result.restore.rows_loaded == 2 * 3
        assert result.restore.records_replayed > 0


class TestLaggedMode:
    def test_lagged_archiving_prices_the_buffered_tail(self):
        result = run("lagged")
        assert result.lag_lost_records > 0
        assert result.rpo_txns > 0
        assert result.rpo_txns < result.acked
        assert 0.0 < result.dr_score < 1.0

    def test_time_travel_anomalies_are_explained_by_the_rpo(self):
        """Restoring to an earlier point reads as lost updates and
        non-monotonic reads; with a non-zero RPO those are the RPO, not
        violations."""
        result = run("lagged")
        assert result.rpo_explained_violations > 0
        assert result.consistent
        assert result.dr_score == pytest.approx(
            1.0 - result.rpo_txns / result.acked
        )


class TestConfigurationAndBench:
    def test_bad_archive_mode_rejected(self):
        with pytest.raises(ValueError, match="archive mode"):
            DREvaluator(archive_mode="eventual")

    def test_determinism_at_a_fixed_seed(self):
        first = run("sync", txns=40)
        second = run("sync", txns=40)
        assert first.acked == second.acked
        assert first.archived_records == second.archived_records
        assert first.restore.records_replayed == second.restore.records_replayed
        assert first.fsyncs == second.fsyncs

    def test_pinned_shape_counters(self):
        """2 shards / 160 txns / 4 pairs / sync at seed 42: every
        counter is an exact integer, so drift is a behaviour change."""
        result = DREvaluator(
            n_shards=2, txns=160, n_pairs=4, archive_mode="sync", seed=42,
        ).run()
        assert (result.acked, result.failed, result.rpo_txns) == (160, 0, 0)
        # 1632 before read-only commits stopped flushing: the two
        # final_stamps() passes on the restored fleet are 4 pairs x 2
        # rows x 2 = 16 autocommit SELECTs, each formerly an fsync
        # point.  Then two-writer transfers went from 6 fsyncs to 3 (a
        # last agent, one PREPARE fewer, no COMMIT flush): 160 acked on
        # the source fleet, 96 of them replayed past the backup barrier
        # on the restored one (a shipped record pays what it paid on
        # the primary), and 12 post-restore transfers.  Then each of
        # those went from 3 to 2: only the last agent forces its DECISION.
        assert result.fsyncs == 1632 - 16 - 4 * (160 + 96 + 12)
        # one PREPARE fewer per transfer archived, and per one replayed
        assert result.archived_records == 1948 - 160
        assert result.restore.records_replayed == 1154 - 96
