"""Presumed-abort two-phase commit across the shard fleet.

Protocol (the classic presumed-abort variant, with its read-only
optimisation):

0. **Read-only vote.**  A branch that logged no data record has nothing
   to make durable and nothing to recover: it commits at once (locks
   released, no flush) and leaves the protocol.  If at most one branch
   wrote, that one commits one-phase, exactly like a local commit; the
   steps below run over two or more *writing* branches only.
1. **Prepare.**  Each transaction's lowest-id writer, its *last
   agent*, moves to ``PREPARED`` in memory only.  Every other writing
   branch appends a PREPARE record (carrying the global transaction id)
   and moves to ``PREPARED`` -- durable, locks held, fate undecided.
   Any prepare failure aborts all branches: nothing was promised yet.
2. **Decision.**  The coordinator logs its COMMIT decision as a
   DECISION record *on each participant's WAL* (this testbed has no
   separate coordinator log; co-logging the decision with the data it
   governs is what real disaggregated systems do with a commit-log
   service), in shard-id order.  Only the last agent's DECISION, its
   vote, is forced: it is the durable decision and makes its data
   durable with it (until then its branch is an ordinary loser to
   recovery).  A peer's DECISION, behind its own durable PREPARE, is
   not a flush.  Decisions for a batch of transactions landing on the
   same shard share one fsync via
   :meth:`~repro.engine.wal.WriteAheadLog.group_commit` -- the
   group-commit batching that amortizes 2PC's extra fsync point.
3. **Commit.**  Branches append COMMIT (not a flush, behind a DECISION)
   and release locks.  Two writers pay 2 fsyncs: the last agent's
   DECISION and the other's PREPARE.
4. **Forget.**  A peer that crashes before its DECISION and COMMIT are
   durable recovers in doubt and needs the last agent's DECISION, so
   the last agent's log keeps it *unforgotten* (every checkpoint there
   carries it) until the ``flushed_lsn`` the coordinator reads back
   after its steps on each peer covers that peer's COMMIT; then the
   coordinator has the last agent
   :meth:`~repro.engine.wal.WriteAheadLog.forget` it (R*'s forget step).

Abort needs no decision record: recovery *presumes abort* for a
prepared branch with no DECISION anywhere in the fleet -- only while
every shard is up, since a shard that is down may hold the only
DECISION.  Until then the branch is *held*: prepared, its rows locked.

Crash points: :class:`PhaseFaults` kills the coordinator at any of the
:data:`PHASES` boundaries, armed directly or through a chaos plan
(``FaultKind.COORD_CRASH``), *without* cleaning up -- the half-run
protocol state is exactly what crash-recovery tests need.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.chaos.plan import FaultKind
from repro.engine.database import Database
from repro.engine.errors import (
    ShardUnavailableError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.engine.recovery import RecoveryReport
from repro.engine.txn import ABORTED, ACTIVE, COMMITTED, PREPARED, IsolationLevel, Transaction
from repro.obs import NULL_OBSERVER, Observer
from repro.obs.trace import NOOP_SPAN

#: 2PC phase boundaries a coordinator crash can be scheduled at.
#: ``mid_*`` fires after the first unit of the phase completed, so the
#: phase is left half-done (the interesting recovery cases).
PHASES = (
    "before_prepare",
    "mid_prepare",
    "after_prepare",
    "mid_decision",
    "after_decision",
    "mid_commit",
    "after_commit",
)


class CoordinatorCrash(SimulatedCrash):
    """The node hosting the coordinator died at a 2PC phase boundary.

    Distinct from a plain :class:`SimulatedCrash` raised by a
    *participant's* WAL: when the coordinator itself dies there is
    nobody left to clean up, whereas a surviving coordinator can (and
    must) drive the remaining branches to a safe state.
    """


class PhaseFaults:
    """One-shot faults at the named phase boundaries of a multi-step job.

    The host calls :meth:`_crash_point` at each boundary; a test or a
    crash matrix arms a crash or an action at one, and a chaos plan can
    schedule the crash (``chaos_kind`` specs targeting the phase name).
    All one-shot: a crash is an event, so the recovery and the retried
    job after it must not re-trip it.  Hosts inherit rather than hold
    one, so a boundary stays a single method call on the commit path.
    """

    #: the host's phase boundaries, in protocol order
    phases: Tuple[str, ...] = ()
    crash_class: Type[SimulatedCrash] = SimulatedCrash
    chaos_kind: Optional[FaultKind] = None
    #: (name, category-and-track) of the trace event a fired crash emits
    crash_event: Tuple[str, str] = ("", "")
    #: how messages name the dying process, and the protocol it runs
    role = protocol = ""

    def __init__(self, chaos=None, name: str = "", observer: Optional[Observer] = None):
        self.chaos = chaos
        self.name = name
        self.obs = observer or NULL_OBSERVER
        self._armed: Set[str] = set()
        self._armed_actions: Dict[str, List[Callable[[], None]]] = {}

    def _check_phase(self, phase: str) -> None:
        if phase not in self.phases:
            raise ValueError(
                f"unknown {self.protocol} phase {phase!r}; one of {self.phases}"
            )

    def arm_crash(self, phase: str) -> None:
        """One-shot: die when the next run reaches ``phase``."""
        self._check_phase(phase)
        self._armed.add(phase)

    def arm_action(self, phase: str, action: Callable[[], None]) -> None:
        """One-shot: run ``action`` when the next run reaches ``phase``.

        The crash matrices use this to kill a participant's WAL (or an
        HA standby) at an exact protocol position; unlike
        :meth:`arm_crash` the boundary itself does not raise -- the
        protocol discovers the damage at its next touch of the dead
        node.
        """
        self._check_phase(phase)
        self._armed_actions.setdefault(phase, []).append(action)

    @property
    def armed(self) -> bool:
        """Is any crash point or phase action still waiting to fire?"""
        return bool(self._armed or self._armed_actions)

    def _crash_point(self, phase: str) -> None:
        actions = self._armed_actions.pop(phase, ())
        for action in actions:
            action()
        fire = phase in self._armed
        if fire:
            self._armed.discard(phase)
        elif self.chaos is not None and self.chaos.take_once(self.chaos_kind, phase):
            fire = True
        if fire:
            if self.obs.enabled:
                event, track = self.crash_event
                self.obs.event(event, track, track=track, attrs={"phase": phase})
            raise self.crash_class(f"{self.role} {self.name} crashed at {phase}")


class GlobalTransaction:
    """A transaction that may span several shards.

    Branches are lazy: :meth:`local` begins a branch on a shard the
    first time a statement routes there, so a global transaction that
    happens to touch one shard commits with zero 2PC overhead.
    """

    __slots__ = (
        "_coordinator", "gtid", "isolation", "deadline", "state",
        "is_retry", "locals",
    )

    def __init__(
        self,
        coordinator: "TxnCoordinator",
        gtid: str,
        isolation: Optional[IsolationLevel] = None,
        deadline=None,
        is_retry: bool = False,
    ):
        self._coordinator = coordinator
        self.gtid = gtid
        self.isolation = isolation
        self.deadline = deadline
        self.state = ACTIVE
        #: a client-supplied gtid marks this as the retry of an earlier
        #: commit whose outcome the client never learned; commit checks
        #: the durable DECISION records before re-applying anything
        self.is_retry = is_retry
        #: shard id -> local branch transaction
        self.locals: Dict[int, Transaction] = {}

    def local(self, shard_id: int) -> Transaction:
        """The branch on ``shard_id``, begun on first use."""
        txn = self.locals.get(shard_id)
        if txn is None:
            shard = self._coordinator.shards[shard_id]
            txn = shard.begin(isolation=self.isolation, deadline=self.deadline)
            self.locals[shard_id] = txn
        return txn

    @property
    def participants(self) -> List[int]:
        return sorted(self.locals)

    @property
    def is_active(self) -> bool:
        return self.state is ACTIVE

    def commit(self) -> None:
        self._coordinator.commit(self)

    def rollback(self) -> None:
        self._coordinator.rollback(self)

    def __enter__(self) -> "GlobalTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            if self.is_active:
                self.commit()
        elif issubclass(exc_type, SimulatedCrash):
            # A crash point fired: the node is gone, not misbehaving.
            # Leave every branch exactly as the protocol left it -- that
            # dangling state is what fleet crash recovery resolves.
            pass
        else:
            if self.is_active:
                self.rollback()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GlobalTransaction {self.gtid} {self.state.value} "
            f"shards={self.participants}>"
        )


class TxnCoordinator(PhaseFaults):
    """Drives presumed-abort 2PC over a list of shard databases."""

    phases = PHASES
    crash_class = CoordinatorCrash
    chaos_kind = FaultKind.COORD_CRASH
    crash_event = ("2pc.coord_crash", "shard")
    role, protocol = "coordinator", "2PC"

    def __init__(
        self,
        shards: Sequence[Database],
        observer: Optional[Observer] = None,
        chaos=None,
        name: str = "fleet",
        start_gtid: int = 1,
    ):
        super().__init__(chaos, name, observer)
        self.shards = list(shards)
        # Pre-resolved counters: 2PC accounting runs on the commit hot
        # path, so the registry lookup happens once here instead of a
        # dict lookup per protocol step (same idiom as qos.admission).
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._c = {
                event: metrics.counter(f"shard.2pc.{event}")
                for event in (
                    "prepare",
                    "single_shard",
                    "cross_shard",
                    "abort",
                    "idempotent",
                    "participant_crash",
                    "dangling",
                    "dangling_resolved",
                )
            }
        else:
            self._c = None
        self._gtid_counter = start_gtid
        #: global transactions whose prepared branches wait, locks held,
        #: for a decision while a shard is down: a participant crash's
        #: survivors with no decision on a *reachable* shard, and each
        #: branch a restart found in doubt (:meth:`resolve`); settled by
        #: :meth:`finish_dangling`
        self.dangling: List[GlobalTransaction] = []
        #: ``{gtid: (last agent, [(peer, its COMMIT LSN), ...])}`` by
        #: shard id: the DECISIONs to forget (:meth:`_forget`); None
        #: until :meth:`_name_kept_peers` names a kept one's peers
        self.awaiting: Dict[object, Tuple[int, Optional[List[Tuple[int, int]]]]] = {}
        #: each shard's ``flushed_lsn``, read back after a step there
        self._flushed: List[int] = [0] * len(self.shards)
        self.single_commits = 0
        self.cross_commits = 0
        self.aborts = 0
        #: retried commits satisfied from durable DECISION records
        self.idempotent_commits = 0

    # -- lifecycle -----------------------------------------------------------

    @property
    def next_gtid(self) -> int:
        """Handed to the replacement coordinator after a crash so global
        transaction ids stay unique across the fleet's lifetime."""
        return self._gtid_counter

    def begin(
        self,
        isolation: Optional[IsolationLevel] = None,
        deadline=None,
        gtid: Optional[str] = None,
    ) -> GlobalTransaction:
        """Start a global transaction.

        Passing ``gtid`` replays an earlier transaction under its
        original id (the client's retry token after it lost the first
        commit's outcome to a crash): commit then consults the durable
        DECISION records and skips re-applying a transaction the fleet
        already committed.
        """
        if gtid is not None:
            return GlobalTransaction(
                self, gtid, isolation=isolation, deadline=deadline, is_retry=True
            )
        gtid = f"{self.name}:{self._gtid_counter}"
        self._gtid_counter += 1
        return GlobalTransaction(self, gtid, isolation=isolation, deadline=deadline)

    # -- commit / abort ------------------------------------------------------

    def commit(self, gtxn: GlobalTransaction) -> None:
        self.commit_many([gtxn])

    def commit_many(self, gtxns: Sequence[GlobalTransaction]) -> None:
        """Commit a batch of global transactions.

        Only writers pay for the protocol.  Each transaction's read-only
        branches vote first (:meth:`_vote_read_only`); with at most one
        writer left it commits directly (no prepare, no decision record
        -- one fsync, same as a local commit, none if nothing wrote).
        Transactions with two or more writers run the two-phase protocol
        as one batch, so coordinator decisions landing on the same shard
        share a group-committed fsync.
        """
        for gtxn in gtxns:
            if not gtxn.is_active:
                raise TransactionAborted(
                    f"global transaction {gtxn.gtid} is {gtxn.state.value}"
                )
        crosses = []
        for gtxn in gtxns:
            if gtxn.is_retry and self._absorb_retry(gtxn):
                continue
            writers = self._vote_read_only(gtxn)
            if len(writers) > 1:
                crosses.append((gtxn, writers))
            else:
                for shard_id in writers:
                    gtxn.locals[shard_id].commit()
                    self._flushed[shard_id] = self.shards[shard_id].wal.flushed_lsn
                gtxn.state = COMMITTED
                self.single_commits += 1
                if self._c is not None:
                    self._c["single_shard"].inc()
        if crosses:
            self._two_phase(crosses)

    def _vote_read_only(self, gtxn: GlobalTransaction) -> List[int]:
        """Commit ``gtxn``'s read-only branches; return the writers' shards.

        A branch that logged no data record votes "read-only": its
        COMMIT releases its locks, flushes nothing, and the branch takes
        no further part -- no PREPARE, no DECISION, no phase two --
        because it has nothing a crash could lose or recovery could find
        in doubt.  A shard that dies casting this vote died in phase
        one: nothing was promised, so the transaction aborts.
        """
        writers = []
        try:
            for shard_id in gtxn.participants:
                txn = gtxn.locals[shard_id]
                if txn.is_read_only:
                    txn.commit()
                else:
                    writers.append(shard_id)
        except SimulatedCrash as crash:
            self._participant_died([gtxn], "prepare", crash)
        except BaseException:
            self._abort_all([gtxn])
            raise
        return writers

    def _decided_union(
        self, restarted: Sequence[Tuple[int, RecoveryReport]] = ()
    ) -> Set[object]:
        """Union of durable DECISION gtids across every reachable shard,
        a ``restarted`` one's as its recovery report handed them over."""
        handed = dict(restarted)
        decided: Set[object] = set()
        for shard_id, shard in enumerate(self.shards):
            if shard_id in handed:
                decided |= handed[shard_id].decided
            elif not shard.wal.is_dead:
                decided |= shard.wal.decided_gtids()
        return decided

    def _absorb_retry(self, gtxn: GlobalTransaction) -> bool:
        """Idempotent commit: satisfy a retried commit from the log.

        A client that lost the first commit's outcome to a crash replays
        the transaction under the same gtid.  If any reachable shard
        holds a DECISION for that gtid, the original commit already
        happened (recovery finished its branches off the decision
        records) -- so the retry's freshly written branches are rolled
        back, not committed, and the commit reports success.  Without
        this check the replayed writes would apply *again* on every
        shard, double-applying the transaction.
        """
        if gtxn.gtid not in self._decided_union():
            return False
        for txn in gtxn.locals.values():
            try:
                txn.rollback()
            except SimulatedCrash:  # a branch shard died; nothing to undo there
                continue
        gtxn.state = COMMITTED
        self.idempotent_commits += 1
        if self._c is not None:
            self._c["idempotent"].inc()
        return True

    def _two_phase(
        self, crosses: List[Tuple[GlobalTransaction, List[int]]]
    ) -> None:
        """Presumed-abort 2PC over each transaction's writing shards."""
        gtxns = [gtxn for gtxn, _writers in crosses]
        stage = "prepare"
        # spans (and their attrs) only for an enabled observer
        span = self.obs.span if self.obs.enabled else None
        try:
            with span(
                "2pc.commit", "shard", track="shard",
                attrs={"txns": len(gtxns)},
            ) if span else NOOP_SPAN:
                # Phase one: prepare every writing branch of every
                # transaction, the last agent's in memory only.
                with span("2pc.prepare", "shard", track="shard") if span else NOOP_SPAN:
                    self._crash_point("before_prepare")
                    first = True
                    for gtxn, writers in crosses:
                        last_agent = gtxn.locals[writers[0]]
                        last_agent.ensure_active()
                        last_agent.state = PREPARED
                        for shard_id in writers[1:]:
                            self.shards[shard_id].prepare_commit(
                                gtxn.locals[shard_id], gtxn.gtid
                            )
                            if self._c is not None:
                                self._c["prepare"].inc()
                            if first:
                                first = False
                                self._crash_point("mid_prepare")
                    self._crash_point("after_prepare")
                stage = "decision"

                # Decision: log COMMIT per participant, batched per shard
                # so N decisions on one shard cost one fsync; the last
                # agents' (lowest shards) first.
                with span("2pc.decision", "shard", track="shard") if span else NOOP_SPAN:
                    by_shard: Dict[int, List[GlobalTransaction]] = {}
                    for gtxn, writers in crosses:
                        for shard_id in writers:
                            by_shard.setdefault(shard_id, []).append(gtxn)
                    first = True
                    for shard_id in sorted(by_shard):
                        shard = self.shards[shard_id]
                        with span(
                            "2pc.group_commit", "shard", track="shard",
                            attrs={
                                "shard": shard_id,
                                "batch": len(by_shard[shard_id]),
                            },
                        ) if span else NOOP_SPAN:
                            with shard.wal.group_commit():
                                for gtxn in by_shard[shard_id]:
                                    shard.log_decision(
                                        gtxn.locals[shard_id].txn_id, gtxn.gtid
                                    )
                        if first:
                            first = False
                            self._crash_point("mid_decision")
                    self._crash_point("after_decision")
                stage = "commit"

                # Phase two: the outcome is durable; finish the branches,
                # noting each peer's COMMIT LSN and each log's flush.
                flushed = self._flushed
                first = True
                for gtxn, writers in crosses:
                    peers = []
                    for shard_id in writers:
                        gtxn.locals[shard_id].commit()
                        if first:
                            first = False
                            self._crash_point("mid_commit")
                        wal = self.shards[shard_id].wal
                        peers.append((shard_id, wal.last_lsn))
                        flushed[shard_id] = wal.flushed_lsn
                    self.awaiting[gtxn.gtid] = (writers[0], peers[1:])
                    gtxn.state = COMMITTED
                    self.cross_commits += 1
                    if self._c is not None:
                        self._c["cross_shard"].inc()
                self._forget()
                self._crash_point("after_commit")
        except SimulatedCrash as crash:
            # any DECISION logged so far gets peers at the next resolution
            for gtxn, writers in crosses:
                self.awaiting.setdefault(gtxn.gtid, (writers[0], None))
            if isinstance(crash, CoordinatorCrash):
                # The coordinator itself died mid-protocol.  No cleanup:
                # the dangling state is what fleet recovery resolves.
                raise
            # A *participant* died mid-protocol; this coordinator is
            # alive and must drive the survivors to a safe state.
            self._participant_died(gtxns, stage, crash)
        except BaseException:
            # A non-crash failure in phase one (lock conflict, deadline)
            # means nothing was promised: abort every branch.
            self._abort_all(gtxns)
            raise

    def _participant_died(
        self,
        gtxns: List[GlobalTransaction],
        stage: str,
        crash: SimulatedCrash,
    ) -> None:
        """Finish the surviving branches after a participant crash.

        During **prepare** nothing was promised: the survivors abort and
        the client gets a retryable :class:`~repro.engine.errors.
        ShardUnavailableError`.  Later, a transaction decided on a
        reachable shard commits; one with no reachable decision is
        unknown (2PC's blocking window; the dead shard keeps it from
        :meth:`_settle`'s abort): its survivors stay prepared, *dangling*.
        """
        if self._c is not None:
            self._c["participant_crash"].inc()
        if stage == "prepare":
            self._abort_all(gtxns)
            raise ShardUnavailableError(
                f"participant shard died during prepare: {crash}"
            ) from crash
        active = [gtxn for gtxn in gtxns if gtxn.state is ACTIVE]
        waiting = self._settle(active, self._decided_union())
        for gtxn in active:
            if gtxn.state is COMMITTED:
                self.cross_commits += 1
                if self._c is not None:
                    self._c["cross_shard"].inc()
        if waiting:
            self.dangling += waiting
            self.obs.gauge("shard.2pc.in_doubt", len(self.dangling))
            if self._c is not None:
                self._c["dangling"].inc()
            raise crash

    def finish_dangling(self, decided: Optional[Set[object]] = None) -> None:
        """Settle the :attr:`dangling` transactions (:meth:`_settle`),
        then name the peers of kept DECISIONs.  Every :meth:`resolve`
        ends here: a failover's once the failed shard's log (its promoted
        standby's) is reachable again."""
        if self.dangling:
            if decided is None:
                decided = self._decided_union()
            settled = self.dangling
            self.dangling = self._settle(settled, decided)
            for gtxn in settled:
                if gtxn.state is COMMITTED:
                    self.cross_commits += 1
                elif gtxn.state is ABORTED:
                    self.aborts += 1
            if self._c is not None:
                self._c["dangling_resolved"].inc(len(settled) - len(self.dangling))
        self.obs.gauge("shard.2pc.in_doubt", len(self.dangling))
        self._name_kept_peers()

    def _all_up(self) -> bool:
        return not any(shard.wal.is_dead for shard in self.shards)

    def _settle(
        self, gtxns: List[GlobalTransaction], decided: Set[object]
    ) -> List[GlobalTransaction]:
        """Finish the prepared branches of each of ``gtxns``: commit if
        ``decided`` holds its gtid, presume abort only while every shard
        is up (a down one may hold the only DECISION); return the rest."""
        all_up = self._all_up()
        waiting = []
        for gtxn in gtxns:
            commit = gtxn.gtid in decided
            if not (commit or all_up):
                waiting.append(gtxn)
                continue
            for txn in gtxn.locals.values():
                if txn.state is not PREPARED:
                    continue
                try:
                    (txn.commit if commit else txn.rollback)()
                except SimulatedCrash:
                    continue  # dead branch: recovery applies the same verdict
            gtxn.state = COMMITTED if commit else ABORTED
        return waiting

    def resolve(
        self, restarted: Sequence[Tuple[int, RecoveryReport]], decided: Set[object]
    ) -> Tuple[int, int]:
        """Settle the branches restarts found in doubt; returns how many
        committed and how many were presumed aborted.

        ``restarted`` pairs each restarted shard's id with its recovery
        report; ``decided`` gets each gtid a reachable shard decided
        (:meth:`_decided_union`) -- if one in doubt is missing, read off
        the restarted shards' whole logs, where a DECISION forgotten
        below a checkpoint still decides a peer whose COMMIT was
        corrupted.  An undecided branch is held (:meth:`~repro.engine.
        database.Database.hold_in_doubt`) as a :attr:`dangling`
        transaction unless every shard is up; then :meth:`finish_dangling`.
        """
        decided |= self._decided_union(restarted)
        in_doubt = [gtxn.gtid for gtxn in self.dangling]
        in_doubt += [gtid for _id, report in restarted for gtid in report.in_doubt.values()]
        if any(gtid not in decided for gtid in in_doubt):
            for shard_id, _report in restarted:
                shard = self.shards[shard_id]
                if shard.checkpoint_lsn > shard.wal.first_retained_lsn:
                    decided |= shard.wal.decided_gtids()
        # a restart ended the handles of its branches; its report has them
        self.dangling = [
            gtxn for gtxn in self.dangling
            if any(txn.state is PREPARED for txn in gtxn.locals.values())
        ]
        # a restart may have lost or reused an LSN a peer list names
        self.awaiting = {gtid: (agent, None) for gtid, (agent, _) in self.awaiting.items()}
        all_up = self._all_up()
        committed = aborted = 0
        for shard_id, report in restarted:
            shard = self.shards[shard_id]
            for gtid in report.kept:
                self.awaiting[gtid] = (shard_id, None)
            for txn_id, gtid in sorted(report.in_doubt.items()):
                if gtid in decided or all_up:
                    shard.resolve_in_doubt(txn_id, commit=gtid in decided)
                    committed += gtid in decided
                    aborted += gtid not in decided
                else:
                    gtxn = GlobalTransaction(self, gtid)
                    gtxn.locals[shard_id] = shard.hold_in_doubt(txn_id, gtid)
                    self.dangling.append(gtxn)
            self._flushed[shard_id] = shard.wal.flushed_lsn
        self.finish_dangling(decided)
        return committed, aborted

    def _name_kept_peers(self) -> None:
        """Name each unnamed DECISION's peers: every other shard at its
        log's tail, where any COMMIT of the gtid is logged by now.  Not
        while a shard is down, nor while a shard holds a branch of the
        gtid PREPARED (dangling, or left by a coordinator crash)."""
        if not self._all_up():
            return
        undecided = {
            txn.gtid for shard in self.shards for txn in shard.txns.active.values()
            if txn.state is PREPARED
        }
        tails = [(shard_id, shard.wal.last_lsn) for shard_id, shard in enumerate(self.shards)]
        for gtid, (shard_id, peers) in self.awaiting.items():
            if peers is None and gtid not in undecided:
                self.awaiting[gtid] = (shard_id, tails[:shard_id] + tails[shard_id + 1:])
        self._forget()

    def note_flushed(self, shard_id: int, lsn: int) -> None:
        """A statement the fleet ran on ``shard_id`` outside any global
        transaction left that shard's log durable up to ``lsn``."""
        if self._flushed[shard_id] != lsn:
            self._flushed[shard_id] = lsn
            self._forget()

    def _forget(self) -> None:
        """Presumed abort's "forget" step (R*, Mohan, Lindsay and
        Obermarck, TODS 1986): once the flushes read back cover every
        peer's COMMIT of a gtid, no peer can recover in doubt on it, and
        the last agent forgets its DECISION."""
        flushed = self._flushed
        done = []
        for gtid, (_last_agent, peers) in self.awaiting.items():
            if peers is None:
                continue
            for shard_id, lsn in peers:
                if flushed[shard_id] < lsn:
                    break
            else:
                done.append(gtid)
        for gtid in done:
            self.shards[self.awaiting.pop(gtid)[0]].wal.forget((gtid,))

    def rollback(self, gtxn: GlobalTransaction) -> None:
        if not gtxn.is_active:
            return
        self._abort_all([gtxn])

    def _abort_all(self, gtxns: Sequence[GlobalTransaction]) -> None:
        for gtxn in gtxns:
            for txn in gtxn.locals.values():
                try:
                    txn.rollback()  # no-op for branches a shard already aborted
                except SimulatedCrash:
                    # The branch's shard is dead: its volatile state is
                    # gone with it and recovery presumes abort anyway.
                    continue
            gtxn.state = ABORTED
            self.aborts += 1
            if self._c is not None:
                self._c["abort"].inc()
