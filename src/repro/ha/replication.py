"""Synchronous WAL shipping from a shard primary to its standby.

A :class:`WalShipper` subscribes to the primary's WAL like every other
log consumer (:meth:`~repro.engine.wal.WriteAheadLog.add_append_listener`),
is handed every cleanly appended record, and adopts it verbatim on the
standby via
:meth:`~repro.engine.wal.WriteAheadLog.append_shipped` -- the standby's
log *is* the primary's log suffix, same LSNs and all.  Two ack modes:

* ``"sync"`` ships every record immediately, so the standby trails the
  primary by zero records;
* ``"semisync"`` buffers data records and flushes the batch at each
  fsync point (COMMIT/PREPARE/DECISION), paying one group-committed
  standby fsync per primary fsync instead of one append per record.

Either way a record is on the standby *before* the primary's append
returns -- i.e. before the commit is acknowledged -- so every acked
commit is durable on both nodes.  That is the invariant promotion
relies on and the history checker proves.

A standby death never takes the primary down: the shipper catches the
standby's crash (or an LSN-continuity break after the primary survived
a crash point the standby never saw) and *disconnects*, counting the
records the standby is now missing.  A disconnected standby is stale
and must be re-seeded with :func:`bootstrap_standby` before it is
promotable again.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.database import Database
from repro.engine.errors import EngineError, SimulatedCrash, WalCorruptionError
from repro.engine.wal import FSYNC_KINDS, LogRecord
from repro.obs import NULL_OBSERVER, Observer

#: supported replication ack modes
ACK_MODES = ("sync", "semisync")


def bootstrap_standby(
    primary: Database,
    observer: Optional[Observer] = None,
) -> Database:
    """Seed a standby from a quiesced primary (base backup).

    Copies schema and rows (:meth:`~repro.engine.database.Database.
    clone_full`), stamps the copy as a checkpoint taken at the primary's
    durable horizon -- carrying the primary's unforgotten DECISIONs, as
    a CHECKPOINT record would -- and positions the standby's pristine
    WAL so shipped records continue the primary's LSN sequence.  From
    then on ``crash() + recover()`` on the standby replays exactly the
    shipped suffix -- which is what promotion does.
    """
    standby = primary.clone_full(f"{primary.name}-standby", observer=observer)
    standby.install_checkpoint(
        primary.wal.last_lsn, carried=tuple(primary.wal.unforgotten)
    )
    return standby


class WalShipper:
    """Attaches to a primary's WAL and mirrors it onto a standby."""

    def __init__(
        self,
        primary: Database,
        standby: Database,
        mode: str = "sync",
        observer: Optional[Observer] = None,
    ):
        if mode not in ACK_MODES:
            raise ValueError(f"ack mode must be one of {ACK_MODES}, got {mode!r}")
        if any(
            isinstance(getattr(listener, "__self__", None), WalShipper)
            for listener in primary.wal.append_listeners
        ):
            raise EngineError(f"{primary.name} already has a shipper attached")
        self.primary = primary
        self.standby = standby
        self.mode = mode
        self.obs = observer or NULL_OBSERVER
        # Shipping runs once per fsync batch on the primary's commit
        # path; resolve the hot counter once (disconnects stay cold).
        self._c_shipped = (
            self.obs.metrics.counter("ha.ship.records")
            if self.obs.enabled
            else None
        )
        #: False once the standby died or diverged; stays False until a
        #: fresh standby is bootstrapped (the link never self-heals)
        self.connected = True
        #: records successfully adopted by the standby
        self.shipped = 0
        #: records the standby is missing since it disconnected
        self.lost = 0
        self._buffer: List[LogRecord] = []  # semisync: pending until next fsync
        primary.wal.add_append_listener(self._on_record)

    @property
    def is_fresh(self) -> bool:
        """Does the standby hold every acked record (promotable)?"""
        return self.connected and self.lost == 0

    def detach(self) -> None:
        """Stop shipping (promotion or resync tears the link down)."""
        self.primary.wal.remove_append_listener(self._on_record)
        self.connected = False

    # -- the hook ------------------------------------------------------------

    def _on_record(self, record: LogRecord) -> None:
        if not self.connected:
            self.lost += 1
            return
        if self.mode == "sync":
            self._ship([record])
            return
        self._buffer.append(record)
        if record.kind in FSYNC_KINDS:
            batch, self._buffer = self._buffer, []
            self._ship(batch)

    def _ship(self, batch: List[LogRecord]) -> None:
        shipped_of_batch = 0
        try:
            if len(batch) > 1:
                with self.standby.wal.group_commit():
                    for record in batch:
                        self.standby.wal.append_shipped(record)
                        shipped_of_batch += 1
            else:
                for record in batch:
                    self.standby.wal.append_shipped(record)
                    shipped_of_batch += 1
        except (SimulatedCrash, WalCorruptionError) as error:
            # The standby is down -- or the primary survived a crash
            # point whose durable-but-unacked record never shipped, so
            # the LSN chain broke.  Either way the standby is stale:
            # disconnect and count what it is missing.  The primary
            # must not fail because its standby did.
            self.connected = False
            self.lost += len(batch) - shipped_of_batch + len(self._buffer)
            self._buffer = []
            if self.obs.enabled:
                self.obs.count("ha.ship.disconnect")
                self.obs.event(
                    "ha.replication_broken", "ha", track="ha",
                    attrs={"standby": self.standby.name, "why": str(error)[:80]},
                )
            return
        self.shipped += shipped_of_batch
        if self._c_shipped is not None:
            self._c_shipped.inc(shipped_of_batch)
