"""The backup/restore crash-point sweep, pinned.

CI runs the quick (coordinator-only) matrix; the full 16-cell sweep is
the ``python -m repro.dr.crashmatrix`` smoke job.  What the tests pin:
every cell passes with zero history violations, the fault actually
fires, and the fingerprint is identical across runs at a fixed seed --
the determinism contract regressions show up against.
"""

import pytest

from repro.dr.crashmatrix import CELLS, TARGETS, run_cell, run_matrix


class TestSingleCells:
    def test_backup_coordinator_crash_cell(self):
        cell = run_cell("backup", "after_pin", "coordinator")
        assert cell.fault_fired
        assert cell.retried
        assert cell.passed

    def test_backup_shard_kill_cell(self):
        cell = run_cell("backup", "after_image", "shard")
        assert cell.fault_fired
        assert cell.passed

    def test_restore_coordinator_crash_cell(self):
        cell = run_cell("restore", "after_replay", "coordinator")
        assert cell.fault_fired
        assert cell.retried
        assert cell.passed
        assert cell.rows_restored > 0
        assert cell.records_replayed > 0

    def test_restore_shard_kill_cell(self):
        cell = run_cell("restore", "after_load", "shard")
        assert cell.fault_fired
        assert cell.passed

    def test_unknown_cell_and_target_rejected(self):
        with pytest.raises(ValueError, match="unknown cell"):
            run_cell("backup", "mid_flight", "coordinator")
        with pytest.raises(ValueError, match="unknown target"):
            run_cell("backup", "after_pin", "operator")


#: the determinism contract at ``--seed 7`` (quick flag -> (cells,
#: full SHA-256 fingerprint)); see ``tests/ha/test_crashmatrix.py``.
#: Re-pinned once when the 2PC last agent stopped logging a PREPARE:
#: every cell replays 3 records fewer (one PREPARE per two-writer
#: transfer past the backup barrier), with zero violations before and
#: after.
PINNED = {
    False: (16, "d26c78ea4c17ae6c521a0efcf8e7a531f0c31af44a3d76dfcc1060be42fb2fe8"),
    True: (8, "77704d96537ce694b0ea26af21f09d92471c0b4ccf22c4f42666b5cefe80fa55"),
}


class TestQuickMatrix:
    @pytest.mark.parametrize("quick", [False, True])
    def test_seed_7_fingerprint_is_pinned(self, quick):
        result = run_matrix(seed=7, quick=quick)
        assert result.passed, "\n".join(result.describe())
        assert (len(result.cells), result.fingerprint()) == PINNED[quick]

    def test_quick_matrix_passes_and_is_deterministic(self):
        first = run_matrix(seed=7, quick=True)
        assert len(first.cells) == len(CELLS)
        assert first.passed, "\n".join(first.describe())
        assert not first.violations
        second = run_matrix(seed=7, quick=True)
        assert first.fingerprint() == second.fingerprint()

    def test_cells_cover_every_phase_boundary(self):
        result = run_matrix(seed=7, quick=True)
        swept = {(cell.stage, cell.phase) for cell in result.cells}
        assert swept == set(CELLS)
        assert {cell.target for cell in result.cells} == {"coordinator"}
        assert set(TARGETS) == {"coordinator", "shard"}
