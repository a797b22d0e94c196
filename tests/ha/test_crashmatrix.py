"""Spot checks of the crash matrix plus its determinism contract.

The full sweep runs in CI (``python -m repro.ha.crashmatrix``); here a
few representative cells keep the suite fast while still exercising all
three fault targets end to end.
"""

import pytest

from repro.ha.crashmatrix import TARGETS, run_cell, run_matrix
from repro.shard.coordinator import PHASES


class TestCells:
    @pytest.mark.parametrize("target", TARGETS)
    def test_after_prepare_cell_passes(self, target):
        cell = run_cell("after_prepare", target, failover=True)
        assert cell.fault_fired
        assert cell.violations == []
        assert cell.post_transfers > 0 and cell.post_reads > 0

    def test_blocking_window_cell(self):
        # participant death after prepare with the decision unreachable:
        # the dangling/blocking window, resolved by failover
        cell = run_cell("after_prepare", "participant", failover=True)
        assert cell.passed

    def test_restart_dimension(self):
        cell = run_cell("mid_decision", "coordinator", failover=False)
        assert cell.passed

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown phase"):
            run_cell("before_everything", "participant", failover=True)
        with pytest.raises(ValueError, match="unknown target"):
            run_cell(PHASES[0], "bystander", failover=True)


#: the determinism contract at ``--seed 7``: any change to the fleet,
#: the workload, the protocol or the sweep that moves one of these has
#: to say why (quick flag -> (cells, full SHA-256 fingerprint))
PINNED = {
    False: (42, "be64805f2379310b2192915cbb66136d494fc057ec845ead674fb828b283970d"),
    True: (21, "33ad5c98dff54b1f59678bb5d31ecad1055d06725bdbc5fb19e244260dc89533"),
}


class TestDeterminism:
    @pytest.mark.parametrize("quick", [False, True])
    def test_seed_7_fingerprint_is_pinned(self, quick):
        result = run_matrix(seed=7, quick=quick)
        assert result.passed, "\n".join(result.describe())
        assert (len(result.cells), result.fingerprint()) == PINNED[quick]

    def test_same_seed_same_fingerprint(self):
        first = run_matrix(seed=7, quick=True)
        second = run_matrix(seed=7, quick=True)
        assert first.passed and second.passed
        assert first.fingerprint() == second.fingerprint()

    def test_quick_sweep_covers_all_phases_and_targets(self):
        result = run_matrix(seed=7, quick=True)
        assert len(result.cells) == len(PHASES) * len(TARGETS)
        seen = {(cell.phase, cell.target) for cell in result.cells}
        assert seen == {(p, t) for p in PHASES for t in TARGETS}
        # both ack modes appear in every sweep
        assert {cell.ack_mode for cell in result.cells} == {"sync", "semisync"}
        assert result.violations == []
