"""The crash-schedule sweep: every 2PC phase x fault target x failover.

One *cell* of the matrix builds a fresh two-shard HA fleet, warms the
PAIRS workload up, arms exactly one fault at one 2PC phase boundary --

* ``coordinator`` -- the coordinator process dies at the boundary
  (:meth:`~repro.shard.coordinator.TxnCoordinator.arm_crash`);
* ``participant`` -- a shard primary's WAL is killed at the boundary
  (:meth:`~repro.shard.coordinator.TxnCoordinator.arm_action`);
* ``replica`` -- a shard's *standby* is killed at the boundary, so
  replication breaks mid-protocol while the primary keeps serving --

then drives transfers until the fault fires, recovers the fleet either
in place (``failover=False``) or by promoting standbys over dead
primaries (``failover=True``), drives more traffic to prove liveness,
and hands the full operation history plus the final recovered state to
the :class:`~repro.ha.history.HistoryChecker`.  The acceptance bar is
*zero* violations over the whole sweep, and a byte-identical
fingerprint for a given ``--seed``.

The participant victim alternates with the failover dimension so both
protocol orders are swept: killing shard 0 (first in prepare *and*
decision order) exercises the dangling/blocking window, killing
shard 1 exercises prepare-stage aborts and survivor-side commits.

This module is also the sweep engine of every crash matrix
(:class:`CellResult` and its :meth:`~CellResult.finish` epilogue,
:func:`sweep`, :class:`MatrixResult`, :func:`main`); a matrix adds its
table of cells and the arm/recover body of ``run_cell`` -- here, and
in :mod:`repro.dr.crashmatrix` for backup/restore.

Run as a module for the CI smoke job::

    python -m repro.ha.crashmatrix --quick --seed 7
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.errors import SimulatedCrash
from repro.ha.cluster import HAFleet
from repro.ha.history import HistoryChecker, Violation
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.shard.coordinator import PHASES
from repro.sim.rng import derive_seed

TARGETS = ("coordinator", "participant", "replica")


@dataclass
class CellResult:
    """One cell's outcome, whichever matrix ran it: what every cell
    proves (its fault fired, the recovered fleet serves, the history
    checks out) plus what only its own matrix records."""

    #: the cell's coordinates, as its matrix's table prints them
    label: str
    #: the coordinates and the matrix's own measurements by name,
    #: readable as attributes (``cell.phase``, ``cell.retried``);
    #: ``pinned`` is how the measurements enter the fingerprint
    #: (``|name=value``...), ``columns`` how the printed row shows them
    extras: Dict[str, Any]
    pinned: str = ""
    columns: str = ""
    violations: List[Violation] = field(default_factory=list)
    fault_fired: bool = False
    #: acked transfers / reads after recovery (liveness evidence)
    post_transfers: int = 0
    post_reads: int = 0
    ops: int = 0

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not fields: the extras.
        extras = self.__dict__.get("extras", {})
        if name in extras:
            return extras[name]
        raise AttributeError(name)

    @property
    def passed(self) -> bool:
        return (
            not self.violations
            and self.fault_fired
            and self.post_transfers > 0
            and self.post_reads > 0
        )

    def finish(self, workload: PairWorkload, fault: str) -> "CellResult":
        """The epilogue of every cell: drive four rounds of traffic
        against the recovered fleet, then hand the whole history and the
        final state to the checker.  ``fault`` names what was armed, for
        the violation a never-consumed fault is reported as."""
        for _ in range(4):
            self.post_transfers += 1 if workload.transfer() else 0
            self.post_reads += 1 if workload.read() is not None else 0
        report = HistoryChecker().check(workload.history, workload.final_stamps())
        self.violations = list(report.violations)
        self.ops = len(workload.history)
        if not self.fault_fired:
            self.violations.append(Violation(
                "fault_not_fired", f"armed {fault} never consumed",
            ))
        return self

    def outcome(self) -> str:
        """Everything the sweep's fingerprint pins about this cell."""
        return (
            f"|fired={self.fault_fired}{self.pinned}|t={self.post_transfers}"
            f"|r={self.post_reads}|ops={self.ops}|v={len(self.violations)}"
        )

    def describe(self) -> str:
        return (
            f"{self.label}  {self.columns} "
            f"post={self.post_transfers}/{self.post_reads}  "
            f"{'ok' if self.passed else 'FAIL'}"
        )


@dataclass
class MatrixResult:
    """A whole sweep, of any matrix."""

    seed: int
    cells: List[CellResult] = field(default_factory=list)

    @property
    def violations(self) -> List[Violation]:
        return [violation for cell in self.cells for violation in cell.violations]

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def fingerprint(self) -> str:
        """SHA-256 over every cell's outcome -- the determinism contract."""
        digest = hashlib.sha256()
        digest.update(f"seed={self.seed}".encode())
        for cell in self.cells:
            digest.update(cell.label.encode())
            digest.update(cell.outcome().encode())
        return digest.hexdigest()

    def describe(self) -> List[str]:
        lines = [cell.describe() for cell in self.cells]
        lines.append(
            f"{len(self.cells)} cells, {len(self.violations)} violations, "
            f"fingerprint {self.fingerprint()[:16]}"
        )
        lines.extend(str(violation) for violation in self.violations)
        return lines


def sweep(
    run_cell: Callable[..., CellResult], table: Iterable[Dict[str, Any]], seed: int
) -> MatrixResult:
    """Run every cell of ``table`` -- one mapping of ``run_cell`` keywords
    per cell -- each on a fresh fleet, under one seed."""
    return MatrixResult(seed, [run_cell(seed=seed, **coords) for coords in table])


def main(
    run_matrix: Callable[..., MatrixResult],
    description: str,
    quick_help: str,
    options: Sequence[Tuple[str, Dict[str, Any]]] = (),
    argv: Optional[List[str]] = None,
) -> int:
    """The sweep CLI of every matrix: ``--seed``, ``--quick`` and the
    matrix's own ``options`` (argparse flag, keywords), all handed to
    ``run_matrix`` by name."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true", help=quick_help)
    for flag, keywords in options:
        parser.add_argument(flag, **keywords)
    result = run_matrix(**vars(parser.parse_args(argv)))
    for line in result.describe():
        print(line)
    return 0 if result.passed else 1


# -- the HA matrix -------------------------------------------------------------


def run_cell(
    phase: str,
    target: str,
    failover: bool,
    seed: int = 7,
    ack_mode: str = "sync",
) -> CellResult:
    """Run one cell of the matrix on a fresh fleet."""
    if phase not in PHASES:
        raise ValueError(f"unknown phase {phase!r}")
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    mode = "failover" if failover else "restart"
    cell = CellResult(
        f"{phase:<14s} {target:<11s} {mode:<8s} {ack_mode}",
        dict(phase=phase, target=target, failover=failover, ack_mode=ack_mode),
    )
    label = f"{phase}.{target}.{failover}.{ack_mode}"
    fleet, pairs = build_pairs_fleet(
        n_shards=2, n_pairs=3, fleet_cls=HAFleet,
        ack_mode=ack_mode, name=f"matrix-{target}",
    )
    fleet.start_replication()
    workload = PairWorkload(fleet, pairs, seed=derive_seed(seed, label))
    for _ in range(3):
        workload.transfer()
        workload.read()

    coordinator = fleet.coordinator
    victim = 0 if failover else 1
    if target == "coordinator":
        victim = 1
        coordinator.arm_crash(phase)
    elif target == "participant":
        coordinator.arm_action(phase, lambda: fleet.kill_primary(victim))
    else:
        coordinator.arm_action(phase, lambda: fleet.kill_standby(victim))

    # Every transfer is cross-shard, so the first commit walks all seven
    # boundaries; the loop only spins if an unrelated retryable abort
    # got in first (eight tries per pair).
    for _ in range(24):
        try:
            workload.transfer()
        except SimulatedCrash:
            pass
        if not coordinator.armed:
            cell.fault_fired = True
            break

    # Degraded window: routed statements against the broken fleet must
    # fail *cleanly* (retryable), never leak an engine crash exception.
    for _ in range(2):
        workload.read()

    if target == "replica":
        # The primary never stopped serving; prove it, then re-seed the
        # standby so it is promotable again.
        workload.transfer()
        fleet.resync(victim)
    if failover and target != "participant":
        # The participant cells killed a primary already; the other two
        # need one dead for the failover dimension to mean anything.
        fleet.kill_primary(victim)

    fleet.recover(failover=failover)

    cell.finish(workload, f"{target} fault at {phase}")
    cell.columns = f"ops={cell.ops:<4d}"
    return cell


def run_matrix(
    seed: int = 7,
    quick: bool = False,
    ack_mode: Optional[str] = None,
) -> MatrixResult:
    """Sweep all 7 phases x 3 targets (x 2 failover modes unless quick).

    ``ack_mode`` pins replication to one mode; by default cells
    alternate sync / semisync deterministically so both ship paths are
    in every sweep.
    """
    failover_modes = (True,) if quick else (False, True)
    return sweep(run_cell, seed=seed, table=[
        dict(
            phase=phase, target=target, failover=failover,
            ack_mode=ack_mode or ("semisync" if index % 2 else "sync"),
        )
        for index, (phase, target, failover) in enumerate(
            itertools.product(PHASES, TARGETS, failover_modes)
        )
    ])


if __name__ == "__main__":
    raise SystemExit(main(
        run_matrix,
        "HA crash-schedule sweep (zero tolerated violations)",
        "failover cells only (21 instead of 42)",
        options=[("--ack-mode", dict(
            choices=("sync", "semisync"), default=None,
            help="pin one replication mode (default: alternate both)",
        ))],
    ))
