"""WAL archiving: the continuous half of the backup story.

A :class:`WalArchiver` subscribes to a shard WAL's append listeners
(beside the HA shipper, if the shard has a standby) and to the
pre-truncate hook, so every record reaches the
:class:`ShardArchive` before checkpoint truncation can drop it.  The
archive keeps **two** copies of every record -- a primary copy and a
mirror -- which is what the scrubber repairs from when chaos flips a
bit in a segment.

Gap and rewind semantics mirror what real archives face:

* a record written by a firing crash point is durable-but-unacked and
  never fires the append listeners; the resulting archive *gap* is
  healed later by the pre-truncate hook (the dropped prefix is always
  contiguous) or by :meth:`WalArchiver.catch_up` pulling from the
  live log;
* after restart recovery ``discard_from`` lets the engine *reuse*
  discarded LSNs.  The archiver detects the reused LSN (same LSN,
  different payload) and rewinds the archive to it -- the discarded
  suffix belonged to a dead timeline and must not survive in the
  archive either.

``mode="sync"`` archives on every append (RPO 0: an acked commit is
in the archive before the ack).  ``mode="lagged"`` buffers appends
until :meth:`WalArchiver.flush` -- a disaster inside the lag window
loses the buffered tail, which is exactly the RPO > 0 surface the
``ARCHIVE_LAG`` chaos fault opens.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.engine.database import Database
from repro.engine.errors import EngineError, WalCorruptionError
from repro.engine.wal import LogRecord, corrupt_records, flip_record_bit
from repro.obs import NULL_OBSERVER, Observer

#: supported archiver modes
ARCHIVE_MODES = ("sync", "lagged")


class ShardArchive:
    """The archived WAL of one shard: records keyed by LSN, twice.

    The primary copy serves reads and replay; the mirror is the
    redundant copy the scrubber repairs from.  Both are verified at
    ingest, so corruption can only be introduced *after* archiving
    (chaos ``ARCHIVE_CORRUPT`` models storage rot via
    :meth:`flip_bit`).
    """

    def __init__(self, shard_name: str, observer: Optional[Observer] = None):
        self.shard_name = shard_name
        self.obs = observer or NULL_OBSERVER
        self._records: Dict[int, LogRecord] = {}
        self._mirror: Dict[int, LogRecord] = {}
        self.ingested = 0
        self.duplicates = 0
        self.rewinds = 0
        #: rotted primaries healed in place by a matching re-offer
        self.healed = 0
        #: records dropped by timeline rewinds (dead-timeline suffixes)
        self.rewound_records = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def first_lsn(self) -> int:
        """Lowest archived LSN (0 when empty)."""
        return min(self._records, default=0)

    @property
    def last_lsn(self) -> int:
        """Highest archived LSN (0 when empty)."""
        return max(self._records, default=0)

    # -- ingest --------------------------------------------------------------

    def ingest(self, record: LogRecord) -> bool:
        """Adopt one record; returns True if it changed the archive.

        An identical duplicate is a no-op (healing passes re-offer
        records).  The same LSN with a *different* payload is a
        timeline rewind: the engine discarded its tail after a crash
        and reused the LSN, so every archived record at or above it is
        dropped before the new one is adopted.
        """
        if not record.is_intact:
            raise WalCorruptionError(
                f"refusing to archive LSN {record.lsn} of "
                f"{self.shard_name}: record fails its CRC"
            )
        existing = self._records.get(record.lsn)
        if existing is not None:
            # Field equality (stored CRC included) is exact here: the
            # log hands the archive the record object it appended, so a
            # re-offer from the truncate hook, flush() or catch_up() is
            # the archived object itself.
            if existing == record:
                self.duplicates += 1
                return False
            if not existing.is_intact and self._mirror.get(record.lsn) == record:
                # The primary copy rotted in place and the re-offer
                # matches the intact mirror: heal the primary.  This is
                # storage rot, not a timeline rewind -- rewinding here
                # would throw away the mirror redundancy above it.
                self._records[record.lsn] = record
                self.healed += 1
                return True
            self._rewind_to(record.lsn)
        self._records[record.lsn] = record
        self._mirror[record.lsn] = record
        self.ingested += 1
        return True

    def _rewind_to(self, lsn: int) -> None:
        doomed = [archived for archived in self._records if archived >= lsn]
        for archived in doomed:
            del self._records[archived]
            self._mirror.pop(archived, None)
        self.rewinds += 1
        self.rewound_records += len(doomed)
        if self.obs.enabled:
            self.obs.count("dr.archive.rewind")
            self.obs.event(
                "dr.archive.rewind", "dr", track="dr",
                attrs={"shard": self.shard_name, "lsn": lsn,
                       "dropped": len(doomed)},
            )

    # -- reading -------------------------------------------------------------

    def has(self, lsn: int) -> bool:
        return lsn in self._records

    def record(self, lsn: int) -> LogRecord:
        """The primary copy at ``lsn`` (possibly corrupt -- scrub it)."""
        try:
            return self._records[lsn]
        except KeyError:
            raise EngineError(
                f"archive of {self.shard_name} holds no LSN {lsn}"
            ) from None

    def verified_copy(self, lsn: int) -> LogRecord:
        """An intact copy at ``lsn``: primary if it verifies, else mirror."""
        primary = self.record(lsn)
        if primary.is_intact:
            return primary
        mirror = self._mirror.get(lsn)
        if mirror is not None and mirror.is_intact:
            return mirror
        raise WalCorruptionError(
            f"archive of {self.shard_name}: both copies of LSN {lsn} "
            f"fail their CRC"
        )

    def records_between(self, from_lsn: int, to_lsn: int) -> List[LogRecord]:
        """The contiguous primary-copy range ``(from_lsn, to_lsn]``.

        Raises :class:`EngineError` on a gap and
        :class:`WalCorruptionError` on a corrupt record -- replay must
        run over a scrubbed, complete archive.
        """
        out: List[LogRecord] = []
        for lsn in range(from_lsn + 1, to_lsn + 1):
            record = self._records.get(lsn)
            if record is None:
                raise EngineError(
                    f"archive gap: {self.shard_name} is missing LSN {lsn} "
                    f"(range ({from_lsn}, {to_lsn}])"
                )
            if not record.is_intact:
                raise WalCorruptionError(
                    f"archive of {self.shard_name}: LSN {lsn} fails its "
                    f"CRC (scrub before replay)"
                )
            out.append(record)
        return out

    def missing_between(self, from_lsn: int, to_lsn: int) -> List[int]:
        """LSNs absent from ``(from_lsn, to_lsn]`` (gap diagnostics)."""
        return [
            lsn for lsn in range(from_lsn + 1, to_lsn + 1)
            if lsn not in self._records
        ]

    # -- corruption and repair ----------------------------------------------

    def flip_bit(self, lsn: int, bit: int = 0) -> LogRecord:
        """Corrupt the *primary* copy in place (the mirror stays intact)."""
        corrupted = flip_record_bit(self.record(lsn), bit)
        self._records[lsn] = corrupted
        return corrupted

    def corrupt_records(self) -> Iterator[LogRecord]:
        """The primary copies failing their CRC, in LSN order."""
        return corrupt_records(map(self._records.get, sorted(self._records)))

    def first_corrupt_lsn(self) -> Optional[int]:
        """Lowest archived LSN whose primary copy fails its CRC."""
        for record in self.corrupt_records():
            return record.lsn
        return None

    def repair(self, lsn: int) -> bool:
        """Restore the primary copy at ``lsn`` from the mirror.

        Returns True when the record verifies afterwards; False when
        the mirror is gone or corrupt too (unrepairable).
        """
        mirror = self._mirror.get(lsn)
        if mirror is None or not mirror.is_intact:
            return False
        self._records[lsn] = mirror
        return True


class WalArchiver:
    """Continuously archives one shard's WAL into a :class:`ShardArchive`."""

    def __init__(
        self,
        db: Database,
        mode: str = "sync",
        observer: Optional[Observer] = None,
    ):
        if mode not in ARCHIVE_MODES:
            raise ValueError(
                f"archive mode must be one of {ARCHIVE_MODES}, got {mode!r}"
            )
        self.db = db
        self.archive = ShardArchive(db.name, observer=observer)
        self.mode = mode
        self.obs = observer or NULL_OBSERVER
        #: lagged-mode buffer: appends not yet in the archive
        self._pending: List[LogRecord] = []
        #: records whose archived copy was corrupt at truncation time
        #: (they were dropped from the log; only the mirror can help)
        self.corrupt_at_truncate = 0
        self._attached = False
        self.attach()

    def attach(self) -> None:
        if self._attached:
            return
        self.db.wal.add_append_listener(self._on_record)
        self.db.wal.add_truncate_listener(self._on_truncate)
        self._attached = True

    def detach(self) -> None:
        if not self._attached:
            return
        self.db.wal.remove_append_listener(self._on_record)
        self.db.wal.remove_truncate_listener(self._on_truncate)
        self._attached = False

    # -- hooks ---------------------------------------------------------------

    def _on_record(self, record: LogRecord) -> None:
        if self.mode == "sync":
            self.archive.ingest(record)
        else:
            self._pending.append(record)

    def _on_truncate(self, doomed: List[LogRecord]) -> None:
        # Completeness guarantee: the dropped prefix passes through the
        # archive before the log forgets it -- this also heals any gap
        # a crash-point append (durable but never delivered to the
        # append listeners) left behind.
        for record in doomed:
            try:
                self.archive.ingest(record)
            except WalCorruptionError:
                # A record corrupted *in the log* (flip_bit) is about to
                # be dropped; the archive may already hold an intact
                # copy from append time, so this is not data loss yet.
                self.corrupt_at_truncate += 1
        self._drop_pending_below(
            doomed[-1].lsn + 1 if doomed else 0
        )

    def _drop_pending_below(self, lsn: int) -> None:
        if self._pending:
            self._pending = [r for r in self._pending if r.lsn >= lsn]

    # -- lagged-mode control -------------------------------------------------

    def flush(self) -> int:
        """Archive the buffered tail; returns records shipped."""
        shipped = 0
        pending, self._pending = self._pending, []
        for record in pending:
            try:
                if self.archive.ingest(record):
                    shipped += 1
            except WalCorruptionError:
                self.corrupt_at_truncate += 1
        return shipped

    def drop_pending(self) -> int:
        """The disaster took the archiver's buffer too; returns records
        lost (the measured RPO exposure of lagged archiving)."""
        lost = len(self._pending)
        self._pending = []
        return lost

    def catch_up(self) -> int:
        """Pull every retained live-WAL record the archive is missing.

        Heals append-listener gaps from the live log and seals the
        archive to the shard's current durable horizon; backups call
        this before recording their archive position.  Returns records
        newly archived.
        """
        self.flush()
        wal = self.db.wal
        added = 0
        for record in wal.records_from(wal.first_retained_lsn):
            if record.is_intact and self.archive.ingest(record):
                added += 1
        return added


class FleetArchiver:
    """One :class:`WalArchiver` per shard of a fleet."""

    def __init__(self, fleet, mode: str = "sync", observer: Optional[Observer] = None):
        self.fleet = fleet
        self.obs = observer or NULL_OBSERVER
        self.archivers: List[WalArchiver] = [
            WalArchiver(shard, mode=mode, observer=observer)
            for shard in fleet.shards
        ]

    @property
    def archives(self) -> List[ShardArchive]:
        return [archiver.archive for archiver in self.archivers]

    @property
    def mode(self) -> str:
        return self.archivers[0].mode if self.archivers else "sync"

    def flush(self) -> int:
        return sum(archiver.flush() for archiver in self.archivers)

    def drop_pending(self) -> int:
        return sum(archiver.drop_pending() for archiver in self.archivers)

    def catch_up(self) -> int:
        return sum(archiver.catch_up() for archiver in self.archivers)

    def detach(self) -> None:
        for archiver in self.archivers:
            archiver.detach()
