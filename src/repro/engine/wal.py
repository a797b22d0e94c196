"""Write-ahead log with monotonically increasing LSNs.

Log records carry *logical* before/after images keyed by primary key,
which makes them equally usable for ARIES-style crash recovery on the
primary and for log shipping to read replicas (the paper's replication
lag-time evaluator reads exactly this stream).

Every record carries a **CRC32 checksum** over its logical payload
(:func:`checksum`), computed at append time.  A record is built once,
by :meth:`WriteAheadLog.append`; log shipping, archiving, restore and
scrub all pass that same object on, so the payload has exactly one
encoding.  The chaos layer can corrupt retained records (bit flips) or
arm **crash points** that fire during an append -- before the write
(record lost), after it (record durable), or mid-write (a *torn*
record whose stored checksum no longer matches).  Recovery detects
either corruption mode by re-computing the CRC and truncates the log
at the first corrupt record, which is exactly what a real engine does
with a torn tail.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from marshal import dumps as _marshal_dumps
from zlib import crc32 as _crc32

from repro.engine.errors import SimulatedCrash, WalCorruptionError
from repro.obs import NULL_OBSERVER, Observer


class LogKind(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    #: ``after`` carries the gtids of the DECISIONs before it that a peer
    #: may still need (:attr:`WriteAheadLog.unforgotten`), or is None.
    CHECKPOINT = "checkpoint"
    #: 2PC phase one: the transaction is durable but its fate belongs to
    #: the coordinator; ``key`` carries the global transaction id.
    PREPARE = "prepare"
    #: 2PC commit decision, logged on each participant; ``key`` carries
    #: the global transaction id.  Presumed abort: an in-doubt PREPARE
    #: with no DECISION anywhere in the fleet rolls back.
    DECISION = "decision"


# The members, bound once as module globals: the per-record and
# per-transaction code reads these, because on CPython 3.11 a member
# load through its class (``LogKind.COMMIT``) costs over ten global loads.
BEGIN, COMMIT, ABORT = LogKind.BEGIN, LogKind.COMMIT, LogKind.ABORT
INSERT, UPDATE, DELETE = LogKind.INSERT, LogKind.UPDATE, LogKind.DELETE
CHECKPOINT, PREPARE, DECISION = LogKind.CHECKPOINT, LogKind.PREPARE, LogKind.DECISION

#: Record kinds that change data and therefore must be redone/shipped.
DATA_KINDS = (INSERT, UPDATE, DELETE)

#: Record kinds that must be durable before the append returns -- each
#: one is an fsync point (:meth:`WriteAheadLog._durability_point` holds
#: the three exceptions and the group-commit deferral).
FSYNC_KINDS = (COMMIT, PREPARE, DECISION)

#: Crash-point modes accepted by :meth:`WriteAheadLog.arm_crash`.
CRASH_MODES = ("before", "after", "torn")

# ``kind._info = (value, ends_txn, fsyncs)``, resolved once per member:
# ``append`` would otherwise pay a Python-level ``Enum.__hash__`` per record.
for _kind in LogKind:
    _kind._info = (
        _kind.value, _kind in (COMMIT, ABORT), _kind in FSYNC_KINDS
    )
del _kind


def checksum(
    lsn: int,
    txn_id: int,
    kind_value: str,
    table: Optional[str],
    key: Any,
    before: Optional[Tuple[Any, ...]],
    after: Optional[Tuple[Any, ...]],
    prev_lsn: int,
) -> int:
    """CRC32 over a record's payload -- the definition; the append path
    and the bulk verify loop (:meth:`WriteAheadLog.append`,
    :func:`corrupt_records`) inline the same expression, and
    ``tests/engine/test_wal.py`` holds them equal.

    The payload is the ``marshal`` serialisation of the 8-field tuple,
    so the CRC is type-exact (``1``, ``1.0``, ``"1"``, ``True`` and
    ``b"1"`` all differ) and runs in C.  Format **2** on purpose:
    formats 3+ emit identity-based back-references, so two value-equal
    records could serialise differently depending on string interning
    or object sharing; format 2 depends on values only.
    """
    return _crc32(_marshal_dumps(
        (lsn, txn_id, kind_value, table, key, before, after, prev_lsn), 2
    ))


@dataclass(slots=True)
class LogRecord:
    """One WAL entry.

    ``before``/``after`` are full row tuples (or ``None``), ``key`` is the
    primary-key value of the affected row.  ``prev_lsn`` links the record
    to the previous record of the same transaction, enabling undo chains.
    ``crc`` is the CRC32 the record was written with; :attr:`is_intact`
    re-computes it from the current field values.

    Slots, not frozen: records are allocated on every append, and the
    plain-``setattr`` ``__init__`` of a slots dataclass is measurably
    cheaper on the hot path.  Nothing in the engine mutates a record
    after construction; corruption injection goes through
    ``dataclasses.replace``.
    """

    lsn: int
    txn_id: int
    kind: LogKind
    table: Optional[str] = None
    key: Any = None
    before: Optional[Tuple[Any, ...]] = None
    after: Optional[Tuple[Any, ...]] = None
    prev_lsn: int = 0
    crc: int = 0

    def expected_crc(self) -> int:
        return checksum(
            self.lsn, self.txn_id, self.kind._value_, self.table,
            self.key, self.before, self.after, self.prev_lsn,
        )

    @property
    def is_intact(self) -> bool:
        """Does the stored checksum match the payload?"""
        return self.crc == self.expected_crc()

    def byte_size(self) -> int:
        """Nominal record size used by the replication bandwidth model."""
        size = 32  # header: lsn, txn id, kind, table id
        for image in (self.before, self.after):
            if image is not None:
                size += 8 * len(image) + 16
        return size


def corrupt_records(records: Iterable[LogRecord]) -> Iterator[LogRecord]:
    """Those of ``records`` whose stored CRC does not match their payload.

    The one bulk verify loop: restart recovery, the archive and the
    scrubber all read their logs through it (:attr:`LogRecord.is_intact`
    is the same comparison for callers holding a single record).
    :func:`checksum` inline, as in :meth:`WriteAheadLog.append`: its
    call frame and ``expected_crc``'s were most of a record's cost.
    """
    for record in records:
        if record.crc != _crc32(_marshal_dumps((
            record.lsn, record.txn_id, record.kind._value_, record.table,
            record.key, record.before, record.after, record.prev_lsn,
        ), 2)):
            yield record


def flip_record_bit(record: LogRecord, bit: int = 0) -> LogRecord:
    """A copy of ``record`` with one bit flipped, so it fails its CRC.

    The flip lands in the key when it is an integer, otherwise in the
    stored CRC itself; either way re-verification fails.
    """
    if isinstance(record.key, int):
        return replace(record, key=record.key ^ (1 << (bit % 31)))
    return replace(record, crc=record.crc ^ (1 << (bit % 32)))


class _GroupCommit:
    """The context manager :meth:`WriteAheadLog.group_commit` returns.

    One per log and stateless: the batch depth and the pending flush
    live on the log, so nested blocks share them.
    """

    __slots__ = ("_wal",)

    def __init__(self, wal: "WriteAheadLog") -> None:
        self._wal = wal

    def __enter__(self) -> None:
        self._wal._group_depth += 1

    def __exit__(self, exc_type, exc, tb) -> bool:
        wal = self._wal
        wal._group_depth -= 1
        if wal._group_depth == 0 and wal._group_pending:
            wal._group_pending = 0
            wal._count_fsync()
        return False


class WriteAheadLog:
    """Append-only in-memory log.

    LSN 0 means "nothing"; the first record gets LSN 1.  The log retains
    all records until :meth:`truncate` (checkpointing calls it).
    """

    def __init__(self, observer: Optional[Observer] = None) -> None:
        self.obs = observer or NULL_OBSERVER
        # Pre-resolved counters: append is per-record, so the enabled
        # path must not pay three call frames per metric.
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._c_append = metrics.counter("engine.wal.append")
            self._c_bytes = metrics.counter("engine.wal.bytes")
            self._c_fsync = metrics.counter("engine.wal.fsync")
        else:
            self._c_append = self._c_bytes = self._c_fsync = None
        self._records: List[LogRecord] = []
        self._next_lsn = 1
        self._last_lsn_of_txn: Dict[int, int] = {}
        #: highest transaction id ever logged here; only ever rises --
        #: :meth:`truncate`, :meth:`discard_from` and
        #: :meth:`reset_for_restore` all leave it alone
        self._max_txn_id = 0
        #: fsync points paid so far (always maintained: the sharding
        #: benches compare group-commit amortisation with obs off)
        self.fsyncs = 0
        #: the log is durable up to here: ``last_lsn`` at the latest
        #: fsync point, a checkpoint or a restart
        self.flushed_lsn = 0
        #: ``{gtid: None}``: the forced (last agent's) DECISIONs a peer
        #: in doubt may still need, in log order, until the coordinator
        #: (which knows the peers) calls :meth:`forget`
        self.unforgotten: Dict[Any, None] = {}
        #: the gtids the base this log starts from carries (:meth:`start_from`)
        self._base_carried: tuple = ()
        self._group_depth = 0
        self._group_pending = 0
        self._group = _GroupCommit(self)
        self._truncated_before = 1  # lowest LSN still retained
        self._armed_crash: Optional[Tuple[int, str]] = None  # (lsn, mode)
        #: once a crash point fires the instance is down: every further
        #: append is rejected until Database.crash() revives the log
        self._dead = False
        #: append listeners (read-replica pipeline, HA shipper, WAL
        #: archivers), called in subscription order with each record
        #: appended through the *clean* path.  A record written by a
        #: firing crash point is never delivered -- the node died before
        #: acknowledging it, so it is durable locally but unacked,
        #: exactly the suffix a promoted standby is allowed to discard.
        self.append_listeners: List[Any] = []
        #: pre-truncate listeners: called with the contiguous prefix of
        #: records about to be dropped, *before* they are discarded.
        #: This is the archiver's completeness guarantee -- no retained
        #: record can leave the log without passing through the hook.
        self._truncate_listeners: List[Any] = []

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def first_retained_lsn(self) -> int:
        """Lowest LSN still retained (after truncation)."""
        return self._truncated_before

    def max_txn_id(self) -> int:
        """Highest transaction id ever appended or shipped (0 if none).

        The XID high-water mark a restart seeds its transaction manager
        from, so new transactions never reuse a logged id -- not one a
        truncating checkpoint or a discarded tail took out of the
        retained log either: the archive, a backup or a standby may
        still hold those records.
        """
        return self._max_txn_id

    @property
    def retained_records(self) -> int:
        return len(self._records)

    def in_flight_txns(self) -> set:
        """Transaction ids with logged work but no COMMIT/ABORT yet.

        CHECKPOINT records are logged under the reserved txn id 0 and
        never commit, so id 0 is excluded.  Includes pre-crash losers
        that wrote nothing (a restart logs the ABORT of each loser it
        undoes only), so liveness-aware callers -- the online-backup
        barrier -- intersect this with the transaction manager's active
        set and union :meth:`in_doubt_txns`.
        """
        return {txn_id for txn_id in self._last_lsn_of_txn if txn_id != 0}

    def last_lsn_of(self, txn_id: int) -> int:
        """LSN of the newest record of ``txn_id``'s open chain (0: none)."""
        return self._last_lsn_of_txn.get(txn_id, 0)

    def in_doubt_txns(self) -> Dict[int, int]:
        """``{txn_id: last_lsn}`` of chains left open at a PREPARE.

        A chain whose newest record is a PREPARE with no local decision
        is an in-doubt 2PC branch: it may still commit, so no consistent
        cut (online backup, checkpoint barrier) may straddle it.  Chains
        whose PREPARE fell below the truncation boundary are settled by
        definition -- truncation only drops decided prefixes.
        """
        out: Dict[int, int] = {}
        for txn_id, lsn in self._last_lsn_of_txn.items():
            if txn_id == 0 or lsn < self._truncated_before:
                continue
            if self._records[lsn - self._truncated_before].kind is PREPARE:
                out[txn_id] = lsn
        return out

    def append(
        self,
        txn_id: int,
        kind: LogKind,
        table: Optional[str] = None,
        key: Any = None,
        before: Optional[Tuple[Any, ...]] = None,
        after: Optional[Tuple[Any, ...]] = None,
    ) -> LogRecord:
        if self._dead:
            raise SimulatedCrash("instance is down: append rejected until restart")
        kind_value, ends_txn, needs_fsync = kind._info
        if self._armed_crash is not None and self._next_lsn >= self._armed_crash[0]:
            mode = self._armed_crash[1]
            self._armed_crash = None
            if mode == "before":
                self._dead = True
                self.obs.event(
                    "wal.crash_point", "engine", track="engine",
                    attrs={"mode": "before", "lsn": self._next_lsn},
                )
                raise SimulatedCrash(
                    f"crash point: LSN {self._next_lsn} lost before reaching the log"
                )
        else:
            mode = None
        lsn = self._next_lsn
        last_of_txn = self._last_lsn_of_txn
        prev_lsn = last_of_txn.get(txn_id, 0)
        # checksum(), inline: one call frame per record saved
        record = LogRecord(
            lsn, txn_id, kind, table, key, before, after, prev_lsn,
            _crc32(_marshal_dumps(
                (lsn, txn_id, kind_value, table, key, before, after, prev_lsn), 2
            )),
        )
        if mode == "torn":
            if after:
                # Half the after image reached storage before the crash;
                # the stored CRC is the full record's, so verification
                # fails.
                record = replace(record, after=after[: len(after) // 2])
            else:
                # No after image to halve (DELETE, COMMIT, PREPARE,
                # DECISION): the tear lands in the header instead.
                record = flip_record_bit(record)
        self._next_lsn = lsn + 1
        self._records.append(record)
        if txn_id > self._max_txn_id:
            self._max_txn_id = txn_id
        if ends_txn:
            last_of_txn.pop(txn_id, None)
        else:
            last_of_txn[txn_id] = lsn
        if needs_fsync and self._durability_point(kind, prev_lsn) and kind is DECISION:
            self.unforgotten[key] = None
        if self._c_append is not None:
            self._c_append.value += 1.0
            # inline byte_size(): this runs once per record appended
            size = 32
            if record.before is not None:
                size += 8 * len(record.before) + 16
            if record.after is not None:
                size += 8 * len(record.after) + 16
            self._c_bytes.value += size
        if mode in ("after", "torn"):
            self._dead = True
            self.obs.event(
                "wal.crash_point", "engine", track="engine",
                attrs={"mode": mode, "lsn": lsn},
            )
            raise SimulatedCrash(f"crash point: instance died writing LSN {lsn}")
        if self.append_listeners:
            for listener in self.append_listeners:
                listener(record)
        return record

    def append_shipped(self, record: LogRecord) -> None:
        """Standby side of log shipping: adopt a primary record verbatim.

        The record keeps its primary LSN (the standby's log *is* the
        primary's log suffix), so LSNs must arrive gap-free and the
        record must verify -- a torn or corrupt record never ships.
        Fsync accounting is :meth:`append`'s (:meth:`_durability_point`),
        so a standby counts what its primary counts, amortizable through
        :meth:`group_commit` (semisync batches use this).
        """
        if self._dead:
            raise SimulatedCrash("standby is down: shipped append rejected")
        if record.lsn != self._next_lsn:
            raise WalCorruptionError(
                f"shipped LSN {record.lsn} breaks continuity (expected {self._next_lsn})"
            )
        if not record.is_intact:
            raise WalCorruptionError(f"shipped LSN {record.lsn} fails its CRC")
        self._records.append(record)
        self._next_lsn = record.lsn + 1
        if record.txn_id > self._max_txn_id:
            self._max_txn_id = record.txn_id
        _value, ends_txn, needs_fsync = record.kind._info
        if ends_txn:
            self._last_lsn_of_txn.pop(record.txn_id, None)
        elif record.kind is not CHECKPOINT:
            self._last_lsn_of_txn[record.txn_id] = record.lsn
        if needs_fsync:
            self._durability_point(record.kind, record.prev_lsn)
        if self._c_append is not None:
            self._c_append.value += 1.0
            self._c_bytes.value += record.byte_size()

    # -- durability points and group commit ----------------------------------

    def _durability_point(self, kind: LogKind, prev_lsn: int) -> bool:
        """Pay for a just-appended record of :data:`FSYNC_KINDS`; True
        if it is a flush.

        A COMMIT is not a flush when ``prev_lsn`` names a retained BEGIN
        (nothing to make durable: only writers pay) or the branch's own
        DECISION (recovery counts it a winner); nor is a DECISION behind
        the branch's own retained PREPARE -- a peer's, whose fate the
        last agent's forced DECISION holds until the peer's COMMIT is
        durable (:attr:`unforgotten`).  PREPARE, the last agent's
        DECISION and every other record are -- including one whose
        predecessor cannot be read back (``prev_lsn`` 0 or truncated),
        the safe reading.  Inside a :meth:`group_commit` batch the flush
        is deferred: the whole batch costs one fsync at exit.
        """
        if kind is not PREPARE:
            index = prev_lsn - self._truncated_before
            if index >= 0:
                settled_by = self._records[index].kind
                if kind is COMMIT:
                    if settled_by is BEGIN or settled_by is DECISION:
                        return False
                elif settled_by is PREPARE:
                    return False
        if self._group_depth > 0:
            self._group_pending += 1
        else:
            self._count_fsync()
        return True

    def _count_fsync(self) -> None:
        self.fsyncs += 1
        self.flushed_lsn = self._next_lsn - 1
        if self._c_fsync is not None:
            self._c_fsync.value += 1.0

    def group_commit(self) -> "_GroupCommit":
        """Batch the fsync points of all appends inside the block.

        COMMIT/PREPARE/DECISION records appended inside the context are
        flushed together: the block pays one fsync at exit instead of
        one per record.  This is what lets a transaction coordinator
        amortise the per-participant decision logging across a batch of
        global transactions.  Nesting is allowed; only the outermost
        exit flushes, and it flushes on the way out of an exception too.
        """
        return self._group

    # -- listeners -----------------------------------------------------------

    def add_append_listener(self, listener: Any) -> None:
        """Subscribe to clean-path appends: the one way a log consumer
        (read replica, HA standby, archive) hears of new records.

        A listener is called with each :class:`LogRecord` appended
        through the clean path; records written by a firing crash point
        are durable-but-unacked and are *not* delivered (archivers heal
        the gap from the pre-truncate hook or by pulling
        ``records_from``).  Listeners are removed by equality, so a
        fresh bound method of the subscribed object removes it.
        """
        self.append_listeners.append(listener)

    def remove_append_listener(self, listener: Any) -> None:
        self.append_listeners = [
            fn for fn in self.append_listeners if fn != listener
        ]

    def add_truncate_listener(self, listener: Any) -> None:
        """Subscribe to truncation: called with the list of records about
        to be dropped, before :meth:`truncate` discards them."""
        self._truncate_listeners.append(listener)

    def remove_truncate_listener(self, listener: Any) -> None:
        self._truncate_listeners = [
            fn for fn in self._truncate_listeners if fn != listener
        ]

    # -- 2PC bookkeeping -----------------------------------------------------

    def decided_gtids(self) -> set:
        """Global transaction ids with a DECISION record retained, or
        carried by a retained CHECKPOINT or by the log's base: the
        coordinator unions this over every reachable shard."""
        decided = set(self._base_carried)
        for record in self._records:
            if record.kind is DECISION:
                decided.add(record.key)
            elif record.kind is CHECKPOINT:
                decided.update(record.after or ())
        return decided

    def carried_at(self, lsn: int) -> tuple:
        """The gtids the checkpoint at ``lsn`` carries: its CHECKPOINT
        record's, or the base's if the log starts after it."""
        if lsn < self._truncated_before:
            return self._base_carried
        return self.record_at(lsn).after or ()

    def forget(self, gtids: Iterable[Any]) -> None:
        """Drop ``gtids`` from :attr:`unforgotten`: no peer needs them."""
        for gtid in gtids:
            self.unforgotten.pop(gtid, None)

    def log_checkpoint(self) -> LogRecord:
        """Append a quiesced checkpoint's CHECKPOINT record, durable up
        to it; its ``after`` carries :attr:`unforgotten` as it stands, so
        a DECISION a peer may still need outlives :meth:`truncate` and is
        seen by a recovery starting here.  It asks nobody: carrying a
        DECISION the coordinator would have forgotten costs bytes only."""
        record = self.append(0, CHECKPOINT, after=tuple(self.unforgotten) or None)
        self.flushed_lsn = record.lsn
        return record

    # -- fault injection -----------------------------------------------------

    def arm_crash(self, at_lsn: int, mode: str = "after") -> None:
        """Arm a one-shot crash point at the append of ``at_lsn``.

        ``mode`` is one of :data:`CRASH_MODES`: ``"before"`` loses the
        record entirely, ``"after"`` crashes with the record durable, and
        ``"torn"`` leaves a half-written record whose CRC fails.  The
        append raises :class:`~repro.engine.errors.SimulatedCrash`.
        """
        if mode not in CRASH_MODES:
            raise ValueError(f"crash mode must be one of {CRASH_MODES}, got {mode!r}")
        if at_lsn < self._next_lsn:
            raise ValueError(f"LSN {at_lsn} already written (next is {self._next_lsn})")
        self._armed_crash = (at_lsn, mode)

    def disarm_crash(self) -> None:
        self._armed_crash = None

    @property
    def is_dead(self) -> bool:
        """Did a crash point fire (instance down until restart)?"""
        return self._dead

    def kill(self) -> None:
        """Take the node down *between* appends (process kill, not a
        torn write): nothing half-written, every further append raises
        :class:`~repro.engine.errors.SimulatedCrash` until revival."""
        self._dead = True
        self.obs.event(
            "wal.kill", "engine", track="engine", attrs={"lsn": self.last_lsn},
        )

    def revive(self) -> None:
        """Restart after a fired crash point; the durable log survives
        (what a restart reads back is durable)."""
        self._dead = False
        self.flushed_lsn = self.last_lsn

    def start_from(self, lsn: int, carried: tuple = ()) -> None:
        """Position a pristine log so its next LSN is ``lsn``.

        Standby bootstrap uses this: the base backup covers everything
        below ``lsn``, and shipped records continue the primary's LSN
        sequence from there.  ``carried`` are the gtids the base carries,
        as a CHECKPOINT record would (the primary's unforgotten
        DECISIONs).  Only valid before anything was appended.
        """
        if self._records or self._next_lsn != 1:
            raise ValueError(
                "start_from requires a pristine log (records were already "
                "appended or the LSN sequence already advanced); call "
                "reset_for_restore() first to reuse this instance"
            )
        if lsn < 1:
            raise ValueError(f"LSN must be >= 1, got {lsn}")
        self._next_lsn = lsn
        self._truncated_before = lsn
        self._base_carried = carried

    def reset_for_restore(self) -> None:
        """Wipe the log back to pristine so :meth:`start_from` applies.

        Point-in-time restore reuses an existing engine instead of
        rebuilding one from scratch: the restore path blanks the log,
        repositions it at the backup's barrier LSN with
        :meth:`start_from`, and replays archived records through
        :meth:`append_shipped`.  Everything is dropped -- records, the
        LSN sequence, per-transaction chains, armed crash points, group
        state -- and a dead instance is revived.  The transaction-id
        high-water mark stays: ids are never reused, whatever timeline
        the instance ends up on.
        """
        self._records = []
        self._next_lsn = 1
        self._truncated_before = 1
        self._base_carried = ()
        self._last_lsn_of_txn = {}
        self._armed_crash = None
        self._dead = False
        self._group_depth = 0
        self._group_pending = 0

    def flip_bit(self, lsn: int, bit: int = 0) -> LogRecord:
        """Corrupt a retained record in place (a bit flip on the tail,
        see :func:`flip_record_bit`).  Returns the corrupted record."""
        index = lsn - self._truncated_before
        if index < 0 or index >= len(self._records):
            raise ValueError(f"LSN {lsn} is not retained")
        corrupted = flip_record_bit(self._records[index], bit)
        self._records[index] = corrupted
        return corrupted

    def repair_record(self, record: LogRecord) -> None:
        """Overwrite a retained record with a verified replacement copy.

        The scrubber calls this to heal a bit-flipped record from a
        redundant (archive) copy.  The replacement must carry the same
        LSN and pass its own CRC.
        """
        index = record.lsn - self._truncated_before
        if index < 0 or index >= len(self._records):
            raise ValueError(f"LSN {record.lsn} is not retained")
        if not record.is_intact:
            raise WalCorruptionError(
                f"replacement for LSN {record.lsn} fails its CRC"
            )
        self._records[index] = record

    def first_corrupt_lsn(self, from_lsn: int = 0) -> Optional[int]:
        """LSN of the first retained record failing its CRC, if any."""
        start = max(from_lsn, self._truncated_before)
        for record in corrupt_records(self.records_from(start)):
            return record.lsn
        return None

    def discard_from(self, lsn: int) -> int:
        """Drop every record with LSN >= ``lsn`` (a corrupt tail).

        Future appends reuse the discarded LSNs, exactly as a real engine
        overwrites a torn tail.  Returns the number of records dropped.
        """
        if lsn < self._truncated_before:
            raise ValueError(f"cannot discard below retained LSN {self._truncated_before}")
        keep = lsn - self._truncated_before
        dropped = len(self._records) - keep
        if dropped <= 0:
            return 0
        self._records = self._records[:keep]
        self._next_lsn = lsn
        self.flushed_lsn = min(self.flushed_lsn, lsn - 1)
        self._last_lsn_of_txn = {}
        for record in self._records:
            if record.kind in (COMMIT, ABORT):
                self._last_lsn_of_txn.pop(record.txn_id, None)
            elif record.kind is not CHECKPOINT:
                self._last_lsn_of_txn[record.txn_id] = record.lsn
        return dropped

    # -- reading -------------------------------------------------------------

    def records_from(self, lsn: int) -> List[LogRecord]:
        """All retained records with LSN >= ``lsn``, in LSN order."""
        if lsn < self._truncated_before:
            raise ValueError(
                f"LSN {lsn} was truncated (log starts at {self._truncated_before})"
            )
        return self._records[lsn - self._truncated_before:]

    def record_at(self, lsn: int) -> LogRecord:
        if lsn < self._truncated_before or lsn > self.last_lsn:
            raise ValueError(f"LSN {lsn} is not retained")
        return self._records[lsn - self._truncated_before]

    def transaction_chain(self, txn_id: int, from_lsn: int) -> List[LogRecord]:
        """The records of one transaction ending at ``from_lsn``, newest first.

        The log is the only copy of a transaction's writes: rollback
        (``Database._rollback``) undoes this chain from the last record
        it applied, and the read-replica pipeline
        (:class:`~repro.cloud.replication.ReplicationPipeline`) ships the
        chain behind each COMMIT.  Recovery scans forward from the
        checkpoint instead.

        Raises :class:`ValueError` if the chain crosses the truncation
        boundary: a silently shortened chain would undo only part of a
        transaction, which is corruption, not recovery.
        """
        chain: List[LogRecord] = []
        lsn = from_lsn
        while lsn > 0:
            if lsn < self._truncated_before:
                raise ValueError(
                    f"transaction {txn_id} chain crosses the truncation "
                    f"boundary: LSN {lsn} is below first_retained_lsn "
                    f"{self._truncated_before}"
                )
            record = self.record_at(lsn)
            if record.txn_id == txn_id:
                chain.append(record)
                lsn = record.prev_lsn
            else:  # pragma: no cover - chains never cross transactions
                break
        return chain

    def truncate(self, before_lsn: int) -> int:
        """Drop records with LSN < ``before_lsn``; returns records dropped."""
        if before_lsn <= self._truncated_before:
            return 0
        keep_from = min(before_lsn, self._next_lsn)
        dropped = keep_from - self._truncated_before
        if self._truncate_listeners:
            doomed = self._records[:dropped]
            for listener in self._truncate_listeners:
                listener(doomed)
        self._records = self._records[dropped:]
        self._truncated_before = keep_from
        return dropped

    def bytes_between(self, from_lsn: int, to_lsn: int) -> int:
        """Total nominal bytes of records in ``(from_lsn, to_lsn]``."""
        total = 0
        for record in self.records_from(max(from_lsn + 1, self._truncated_before)):
            if record.lsn > to_lsn:
                break
            total += record.byte_size()
        return total
