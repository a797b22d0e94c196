"""The ``--eval dr`` evaluator: RPO and RTO, measured.

The run drives the PAIRS workload over a sharded fleet with a
:class:`~repro.dr.archive.FleetArchiver` attached, takes an online
:class:`~repro.dr.backup.BackupJob` backup mid-run (under live load --
the barrier machinery is exercised, not simulated), keeps writing,
then declares a *disaster*: the fleet is abandoned, anything the
archiver had buffered is lost with it, archives are scrubbed, and a
:class:`~repro.dr.restore.RestoreJob` rebuilds a fresh fleet to the
archive's end -- standbys re-bootstrapped -- which then serves more
checked traffic.

Scoring::

    RPO      = acked transfers missing from the restored state
               (0 required with sync archiving)
    RTO      = measured restore wall seconds + modelled virtual
               seconds (image load + WAL replay)
    DR-Score = 1 - RPO / acked   if the history checker finds no
               violation other than the lost updates RPO already
               counts, else 0.0

Chaos faults exercised: ``ARCHIVE_CORRUPT`` flips a bit in an archived
segment mid-run, *after* the backup seal (a seal-time ``catch_up``
re-offer would heal it at the archive; landing it later forces the
pre-restore scrubber to do the repair from the mirror); in ``lagged``
mode an ``ARCHIVE_LAG`` window forces the archiver to buffer from its
start until the disaster, so the buffered tail is the measured,
non-zero RPO -- the cost of asynchronous archiving, priced in lost
transactions.

Virtual time is op-counted at the HA evaluator's
:data:`~repro.ha.evaluator.OP_LATENCY_S` per client call, so fault
windows land at deterministic points for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.dr.archive import ARCHIVE_MODES, FleetArchiver
from repro.dr.backup import BackupJob, BackupManifest
from repro.dr.restore import RestoreJob, RestoreReport
from repro.dr.scrub import ScrubReport, scrub_fleet
from repro.ha.evaluator import OP_LATENCY_S
from repro.ha.history import OK, HistoryChecker, Violation
from repro.ha.workload import PairWorkload, build_pairs_fleet
from repro.obs import NULL_OBSERVER, Observer
from repro.sim.rng import derive_seed

#: checked transfers (and reads) the restored fleet serves after the disaster
POST_TXNS = 12


@dataclass
class DRResult:
    """One DR run: backup under load, disaster, PITR, checked traffic."""

    archive_mode: str
    txns: int
    acked: int
    failed: int
    reads_ok: int
    #: records in all archives when the disaster struck
    archived_records: int = 0
    #: archiver-buffered records the disaster took (lagged mode)
    lag_lost_records: int = 0
    #: the pre-restore scrub (it repairs the ARCHIVE_CORRUPT flip)
    scrub: Optional[ScrubReport] = None
    manifest: Optional[BackupManifest] = None
    restore: Optional[RestoreReport] = None
    #: acked transfers absent from the restored state -- the RPO
    rpo_txns: int = 0
    #: checker violations the RPO does not account for
    violations: List[Violation] = field(default_factory=list)
    #: time-travel anomalies (lost updates, non-monotonic reads across
    #: the disaster cut) that a non-zero RPO fully explains
    rpo_explained_violations: int = 0
    post_transfers: int = 0
    post_reads: int = 0
    #: durability work across the run: source-fleet fsyncs at disaster
    #: time plus the restored fleet's replay/post-traffic fsyncs
    fsyncs: int = 0
    duration_s: float = 0.0
    #: live handle to the run's archives for post-run tooling (the
    #: bench repeats restores from it); not part of the scored result
    archiver: Optional[FleetArchiver] = None

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def rto_wall_s(self) -> float:
        return self.restore.wall_s if self.restore is not None else 0.0

    @property
    def rto_virtual_s(self) -> float:
        return self.restore.virtual_s if self.restore is not None else 0.0

    @property
    def dr_score(self) -> float:
        """1 - RPO/acked, zeroed by any unexplained inconsistency."""
        if not self.consistent:
            return 0.0
        if self.acked == 0:
            return 0.0
        return max(0.0, 1.0 - self.rpo_txns / self.acked)


class DREvaluator:
    """Backup under load, disaster, point-in-time restore, RPO/RTO."""

    def __init__(
        self,
        n_shards: int = 2,
        txns: int = 160,
        n_pairs: int = 4,
        archive_mode: str = "sync",
        seed: int = 42,
        observer: Optional[Observer] = None,
    ):
        if archive_mode not in ARCHIVE_MODES:
            raise ValueError(
                f"archive mode must be one of {ARCHIVE_MODES}, "
                f"got {archive_mode!r}"
            )
        self.n_shards = n_shards
        self.txns = txns
        self.n_pairs = n_pairs
        self.archive_mode = archive_mode
        # the backup starts, the archive lags and a segment rots at these
        # fractions of the run's estimated length
        est_duration = txns * 1.5 * OP_LATENCY_S
        self.backup_at_s = 0.4 * est_duration
        self.lag_from_s = 0.55 * est_duration
        self.corrupt_at_s = 0.6 * est_duration
        self.est_duration_s = est_duration
        self.seed = seed
        self.obs = observer or NULL_OBSERVER

    def _plan(self) -> FaultPlan:
        specs = [FaultSpec(
            kind=FaultKind.ARCHIVE_CORRUPT,
            target="archive:0",
            start_s=self.corrupt_at_s,
            duration_s=0.0,
        )]
        if self.archive_mode == "lagged":
            specs.extend(
                FaultSpec(
                    kind=FaultKind.ARCHIVE_LAG,
                    target=f"archive:{shard}",
                    start_s=self.lag_from_s,
                    duration_s=self.est_duration_s,
                )
                for shard in range(self.n_shards)
            )
        return FaultPlan(specs=tuple(specs), seed=self.seed, name="dr-eval")

    def run(self) -> DRResult:
        injector = ChaosInjector(self._plan(), observer=self.obs)
        fleet, pairs = build_pairs_fleet(
            n_shards=self.n_shards, n_pairs=self.n_pairs, name="dr-eval",
        )
        # The archiver always *starts* sync; in lagged mode the chaos
        # window is what degrades it, so the RPO is attributable to a
        # scheduled fault, not to configuration.
        archiver = FleetArchiver(fleet, mode="sync", observer=self.obs)
        workload = PairWorkload(
            fleet, pairs, seed=derive_seed(self.seed, "dr.eval"),
        )
        backup = BackupJob(
            fleet, archiver, chaos=injector, name="dr-eval",
            observer=self.obs,
        )

        result = DRResult(
            archive_mode=self.archive_mode, txns=self.txns,
            acked=0, failed=0, reads_ok=0,
        )
        manifest: Optional[BackupManifest] = None
        now = 0.0
        for i in range(self.txns):
            self._poll_faults(injector, archiver, result, now)
            if manifest is None and now >= self.backup_at_s:
                manifest = backup.run()
            if workload.transfer():
                result.acked += 1
            else:
                result.failed += 1
            now += OP_LATENCY_S
            if i % 2 == 0:
                if workload.read() is not None:
                    result.reads_ok += 1
                now += OP_LATENCY_S
        if manifest is None:
            manifest = backup.run()
        result.manifest = manifest
        acked_versions = [
            (op.pair, op.version) for op in workload.history.completions("transfer")
            if op.kind == OK
        ]

        # -- the disaster ----------------------------------------------------
        result.lag_lost_records = archiver.drop_pending()
        result.archived_records = sum(
            len(archive) for archive in archiver.archives
        )
        result.scrub = scrub_fleet(fleet, archiver, observer=self.obs)
        target = [archive.last_lsn for archive in archiver.archives]
        restored, report = RestoreJob(
            manifest, archiver, chaos=injector, name="dr-eval",
            observer=self.obs,
        ).run(target=target, ha=True)
        result.restore = report

        # -- RPO: acked transfers the restored state does not hold -----------
        post_workload = workload.continued_on(
            restored, derive_seed(self.seed, "dr.eval.post")
        )
        restored_stamps = post_workload.final_stamps()
        result.rpo_txns = sum(
            1 for pair, version in acked_versions
            if version > min(restored_stamps[pair])
        )

        # -- liveness + end-to-end history check ------------------------------
        for _ in range(POST_TXNS):
            result.post_transfers += 1 if post_workload.transfer() else 0
            result.post_reads += 1 if post_workload.read() is not None else 0
            now += 2 * OP_LATENCY_S
        check = HistoryChecker().check(
            post_workload.history, post_workload.final_stamps()
        )
        # A restore to an earlier point in time reads, to the checker,
        # as updates lost and reads going backwards across the cut.
        # Those anomalies ARE the RPO -- already priced into the score
        # -- so they only count as violations when the measured RPO is
        # zero and cannot explain them.
        explained_kinds = ("lost_update", "non_monotonic_read")
        explained = [
            v for v in check.violations if v.kind in explained_kinds
        ]
        result.rpo_explained_violations = len(explained)
        result.violations = [
            v for v in check.violations if v.kind not in explained_kinds
        ]
        if explained and result.rpo_txns == 0:
            result.violations.extend(explained)
        result.duration_s = now
        result.fsyncs = fleet.fsyncs + restored.fsyncs
        result.archiver = archiver
        if self.obs.enabled:
            self.obs.count("dr.eval.runs")
        return result

    @staticmethod
    def _poll_faults(
        injector: ChaosInjector,
        archiver: FleetArchiver,
        result: DRResult,
        now: float,
    ) -> None:
        for shard, shard_archiver in enumerate(archiver.archivers):
            target = f"archive:{shard}"
            archive = shard_archiver.archive
            if len(archive) and injector.take_once(FaultKind.ARCHIVE_CORRUPT, target, now):
                lsn = (archive.first_lsn + archive.last_lsn) // 2
                if not archive.has(lsn):
                    lsn = archive.last_lsn
                archive.flip_bit(lsn, bit=5)
            lagging = injector.archive_lagging(target, now)
            if lagging and shard_archiver.mode == "sync":
                shard_archiver.mode = "lagged"
            elif not lagging and shard_archiver.mode == "lagged":
                shard_archiver.mode = "sync"
                shard_archiver.flush()
