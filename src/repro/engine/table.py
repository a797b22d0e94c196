"""Heap tables: a slot list + primary index + secondary indexes + row versions.

Every mutation goes through the owning :class:`~repro.engine.database.
Database` (for WAL and locking); the table provides the physical
storage operations and index maintenance.

MVCC state lives beside the heap: each mutated primary key owns a
**version chain** (:class:`VersionStore`) ordered oldest to newest and
keyed by commit LSN.  The heap always holds the *current* row image
(including a writer's uncommitted change, protected by its X lock);
snapshot readers resolve through the chain instead.  A key with no
chain is committed base data, visible to every snapshot -- chains are
created by transactional writes while a snapshot could read them (and
for a write that ran while none could, once one begins), and trimmed
back to nothing by vacuum once no live snapshot can need the history.
"""

from __future__ import annotations

from heapq import heappop, heappush
from operator import itemgetter
from typing import (
    Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from repro.engine.errors import DuplicateKeyError, EngineError, SchemaError
from repro.engine.index import HashIndex, OrderedIndex, RowId
from repro.engine.types import Schema


class RowVersion:
    """One entry of a version chain.

    ``begin_lsn`` is the commit LSN of the creating transaction, or
    ``None`` while it is still uncommitted (``begin_txn`` then names the
    writer).  ``end_lsn``/``end_txn`` mirror that for the superseding or
    deleting transaction; a version with neither is current.
    """

    __slots__ = ("row", "begin_lsn", "begin_txn", "end_lsn", "end_txn")

    def __init__(
        self,
        row: Tuple[Any, ...],
        begin_lsn: Optional[int] = None,
        begin_txn: Optional[int] = None,
    ):
        self.row = row
        self.begin_lsn = begin_lsn
        self.begin_txn = begin_txn
        self.end_lsn: Optional[int] = None
        self.end_txn: Optional[int] = None

    def visible_to(self, snapshot_lsn: int, txn_id: int) -> bool:
        """Snapshot-isolation visibility: created at or before the
        snapshot (or by the reader itself) and not yet superseded from
        the reader's point of view."""
        if self.begin_lsn is None:
            if self.begin_txn != txn_id:
                return False
        elif self.begin_lsn > snapshot_lsn:
            return False
        if self.end_txn is not None:
            return self.end_txn != txn_id
        if self.end_lsn is not None:
            return self.end_lsn > snapshot_lsn
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RowVersion begin={self.begin_txn or self.begin_lsn}"
            f" end={self.end_txn or self.end_lsn} row={self.row!r}>"
        )


class VersionStore:
    """Per-table version chains, keyed by primary key.

    The chain list runs oldest to newest.  Only the owning database
    mutates chains (under the row's X lock), so no further latching is
    needed in the cooperative execution model.
    """

    __slots__ = ("_chains", "live_versions")

    def __init__(self) -> None:
        self._chains: Dict[Any, List[RowVersion]] = {}
        #: total chain entries (drives the auto-vacuum trigger)
        self.live_versions = 0

    def __contains__(self, key: Any) -> bool:
        return key in self._chains

    def chains(self) -> Iterator[Tuple[Any, List[RowVersion]]]:
        return iter(self._chains.items())

    def clear(self) -> None:
        self._chains.clear()
        self.live_versions = 0

    # -- chain mutation (called by the database write path) -----------------

    def append(self, key: Any, version: RowVersion) -> RowVersion:
        self._chains.setdefault(key, []).append(version)
        self.live_versions += 1
        return version

    def newest(self, key: Any) -> Optional[RowVersion]:
        chain = self._chains.get(key)
        return chain[-1] if chain else None

    def capture_base(self, key: Any, before: Tuple[Any, ...]) -> None:
        """First write to a bootstrap row: capture its committed heap
        image as an always-visible base version (begin LSN 0), so live
        snapshots keep seeing it once the heap is overwritten."""
        if key not in self._chains:
            self.append(key, RowVersion(before, begin_lsn=0))

    def transition(
        self,
        key: Any,
        new_key: Any,
        before: Tuple[Any, ...],
        after: Tuple[Any, ...],
        txn_id: Optional[int] = None,
        lsn: Optional[int] = None,
    ) -> Tuple[Optional[RowVersion], RowVersion]:
        """Fused update-path mutation: base + supersede + append.

        One chain lookup instead of three (the separate helpers each
        re-resolved the chain dict on the OLTP hot path): ensure a
        bootstrap base version exists for ``key``, mark the chain head
        as ended (unless already ended), and append the new version
        under ``new_key``.  A live writer passes its ``txn_id`` and the
        marks stay uncommitted until its commit stamps them; redo passes
        the record's ``lsn`` instead and they are committed history at
        once.  Returns ``(ended_or_None, created)`` for the caller's
        commit/rollback bookkeeping.
        """
        chains = self._chains
        chain = chains.get(key)
        if chain is None:
            # First write to a bootstrap row: capture the committed heap
            # image as an always-visible base version (begin LSN 0).
            chain = chains[key] = [RowVersion(before, begin_lsn=0)]
            self.live_versions += 1
        head = chain[-1]
        ended = None
        if head.end_txn is None and head.end_lsn is None:
            head.end_txn = txn_id
            head.end_lsn = lsn
            ended = head
        created = RowVersion(after, lsn, txn_id)
        if new_key == key:
            chain.append(created)
        else:  # primary-key update: the new version starts its own chain
            chains.setdefault(new_key, []).append(created)
        self.live_versions += 1
        return ended, created

    def remove_newest(self, key: Any) -> Optional[RowVersion]:
        """Drop the newest version of ``key`` (undo of an insert/update)."""
        chain = self._chains.get(key)
        if not chain:
            return None
        version = chain.pop()
        self.live_versions -= 1
        if not chain:
            del self._chains[key]
        return version

    # -- visibility ----------------------------------------------------------

    def visible_row(
        self, key: Any, snapshot_lsn: int, txn_id: int
    ) -> Tuple[bool, Optional[Tuple[Any, ...]]]:
        """``(has_chain, row)``: the version of ``key`` visible to the
        snapshot, walking newest to oldest.  ``has_chain`` False means
        the caller should fall back to the heap (committed base data).
        """
        chain = self._chains.get(key)
        if not chain:
            return False, None
        for version in reversed(chain):
            if version.visible_to(snapshot_lsn, txn_id):
                return True, version.row
        return True, None

    def newest_commit_lsn(self, key: Any) -> int:
        """Highest commit LSN stamped anywhere on ``key``'s chain (0 when
        chainless) -- the first-updater-wins conflict test compares this
        against the writer's snapshot."""
        chain = self._chains.get(key)
        if not chain:
            return 0
        newest = 0
        for version in chain:
            if version.begin_lsn is not None and version.begin_lsn > newest:
                newest = version.begin_lsn
            if version.end_lsn is not None and version.end_lsn > newest:
                newest = version.end_lsn
        return newest

    # -- garbage collection --------------------------------------------------

    def vacuum(self, horizon_lsn: int) -> int:
        """Trim history invisible to every snapshot at or after ``horizon``.

        Versions superseded at or before the horizon are dropped; a chain
        reduced to a single committed, current version is dropped whole
        (the heap row carries the same data, and chainless means visible
        to all).  Returns the number of versions freed.
        """
        freed = 0
        for key in list(self._chains):
            chain = self._chains[key]
            kept = [
                version for version in chain
                if not (
                    version.end_lsn is not None
                    and version.end_txn is None
                    and version.end_lsn <= horizon_lsn
                )
            ]
            if len(kept) == 1:
                only = kept[0]
                if (
                    only.begin_txn is None
                    and only.end_txn is None
                    and only.end_lsn is None
                    and only.begin_lsn is not None
                    and only.begin_lsn <= horizon_lsn
                ):
                    kept = []
            freed += len(chain) - len(kept)
            if kept:
                self._chains[key] = kept
            else:
                del self._chains[key]
        self.live_versions -= freed
        return freed


class Table:
    """A heap of row slots with a unique primary-key index."""

    def __init__(self, schema: Schema):
        self.schema = schema
        self.name = schema.table
        #: the heap: slot ``i`` holds a row, or ``None`` once vacated; a
        #: :data:`RowId` is a slot number
        self._rows: List[Optional[Tuple[Any, ...]]] = []
        #: min-heap of exactly the vacated slots, so an insert takes the
        #: lowest without scanning the heap
        self._vacated: List[RowId] = []
        self._next_auto = 1
        self.primary_index = OrderedIndex(
            f"{self.name}_pkey", (schema.primary_key,), unique=True
        )
        self.secondary_indexes: Dict[str, HashIndex] = {}
        #: reads the primary key and every indexed column off a row
        self._keys_of = itemgetter(schema.primary_key_index)
        #: bumped whenever the index set changes; compiled statements
        #: pin the epoch they were planned under and recompile on drift
        self.plan_epoch = 0
        #: MVCC version chains for keys with post-bootstrap history
        self.versions = VersionStore()
        #: slots that may differ from the installed checkpoint image (all
        #: a restore puts back); ``None``: no usable image, restore whole
        self.dirty_rows: Optional[Set[RowId]] = None

    # -- administrative ----------------------------------------------------

    def create_index(
        self, name: str, columns: Tuple[str, ...], unique: bool = False, ordered: bool = False
    ) -> None:
        """Build a secondary index over ``columns`` (backfills existing rows)."""
        if name in self.secondary_indexes:
            raise SchemaError(f"index {name!r} already exists on {self.name!r}")
        for column in columns:
            self.schema.column_index(column)  # validates
        index_class = OrderedIndex if ordered else HashIndex
        index = index_class(name, columns, unique)
        if self._rows:
            self._build_indexes(index)
        self.secondary_indexes[name] = index
        positions = {self.schema.primary_key_index}
        for held in self.secondary_indexes.values():
            positions.update(map(self.schema.column_index, held.columns))
        self._keys_of = itemgetter(*sorted(positions))
        self.plan_epoch += 1

    @property
    def row_count(self) -> int:
        return len(self.primary_index)

    def next_autoincrement(self) -> int:
        value = self._next_auto
        self._next_auto += 1
        return value

    def bump_autoincrement(self, seen_value: int) -> None:
        """Keep the counter ahead of explicitly inserted key values."""
        if seen_value >= self._next_auto:
            self._next_auto = seen_value + 1

    # -- constraint checking ----------------------------------------------------

    def check_unique(self, row: Tuple[Any, ...], exclude_rid: Optional[RowId] = None) -> None:
        """Raise :class:`DuplicateKeyError` if ``row`` would violate the
        primary key or any unique secondary index.

        Called *before* any state is touched, so a failed insert/update
        leaves the heap, indexes and the WAL untouched.  ``exclude_rid``
        ignores the row's own current entry (the update case).
        """
        key = row[self.schema.primary_key_index]
        existing = self.primary_index.lookup_unique(key)
        if existing is not None and existing != exclude_rid:
            raise DuplicateKeyError(
                f"duplicate primary key {key!r} in table {self.name!r}"
            )
        for index in self.secondary_indexes.values():
            if not index.unique:
                continue
            entry = self._index_key(index.columns, row)
            holders = index.lookup(entry)
            if holders and holders != [exclude_rid]:
                raise DuplicateKeyError(
                    f"duplicate key {entry!r} in unique index {index.name!r}"
                )

    # -- physical operations -------------------------------------------------

    def insert_row(self, row: Tuple[Any, ...]) -> RowId:
        """Place a validated row; maintains all indexes.

        Raises :class:`DuplicateKeyError` before touching any state when
        the primary key or a unique secondary index would be violated.
        """
        self.check_unique(row)
        return self.place_row(row)

    def place_row(self, row: Tuple[Any, ...]) -> RowId:
        """:meth:`insert_row` for a row the caller already passed through
        :meth:`check_unique` (the write path checks before its WAL
        append): placement -- the lowest vacated slot, else a new one at
        the end -- and index maintenance, no second check."""
        key = row[self.schema.primary_key_index]
        rows = self._rows
        if self._vacated:
            rid = heappop(self._vacated)
            rows[rid] = row
        else:
            rid = len(rows)
            rows.append(row)
        if self.dirty_rows is not None:
            self.dirty_rows.add(rid)
        self.primary_index.insert(key, rid)
        for index in self.secondary_indexes.values():
            index.insert(self._index_key(index.columns, row), rid)
        if isinstance(key, int):
            self.bump_autoincrement(key)
        return rid

    def load(self, rows: Iterable[Tuple[Any, ...]]) -> None:
        """Bulk-insert validated rows into a table that has never held
        one, with the result of one :meth:`insert_row` per row: row ``i``
        in slot ``i``, then every index built once as a checkpoint
        restore builds them.  All or nothing: a duplicate primary or
        unique key raises :class:`DuplicateKeyError` naming it and leaves
        the table empty.
        """
        if self._rows:
            raise EngineError(f"load needs an empty table, {self.name!r} has slots")
        self.dirty_rows = None
        self._rows = list(rows)
        try:
            self._rebuild_indexes()
        except BaseException:
            self._rows = []
            self._rebuild_indexes()
            raise
        for key, _rid in self.primary_index.range(reverse=True):
            if isinstance(key, int):
                self.bump_autoincrement(key)
                break

    def read_row(self, rid: RowId) -> Tuple[Any, ...]:
        rows = self._rows
        row = rows[rid] if 0 <= rid < len(rows) else None
        if row is None:
            raise EngineError(f"table {self.name!r} has no row in slot {rid}")
        return row

    def update_row(self, rid: RowId, new_row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """Overwrite a row in place; returns the before image.

        All unique constraints are validated before any mutation, so a
        :class:`DuplicateKeyError` leaves the table untouched.  When the
        stored row already holds ``new_row``'s primary key and every
        indexed column there is nothing to validate and no index entry
        to move: the row is written and that is all.
        """
        before = self.read_row(rid)
        if self.dirty_rows is not None:
            self.dirty_rows.add(rid)
        keys_of = self._keys_of
        if keys_of(new_row) == keys_of(before):
            self._rows[rid] = new_row
            return before
        new_key = new_row[self.schema.primary_key_index]
        old_key = before[self.schema.primary_key_index]
        self.check_unique(new_row, exclude_rid=rid)
        self._rows[rid] = new_row
        if new_key != old_key:
            self.primary_index.delete(old_key, rid)
            self.primary_index.insert(new_key, rid)
        for index in self.secondary_indexes.values():
            old_entry = self._index_key(index.columns, before)
            new_entry = self._index_key(index.columns, new_row)
            if old_entry != new_entry:
                index.delete(old_entry, rid)
                index.insert(new_entry, rid)
        return before

    def overwrite_row(self, rid: RowId, new_row: Tuple[Any, ...]) -> None:
        """Narrow-update write: the caller proved no key or indexed
        column changes (from the compiled SET shape) and already holds
        the before image, so the re-read, uniqueness check and index
        maintenance of :meth:`update_row` are all skipped.
        """
        rows = self._rows
        if rows[rid] is None:
            raise EngineError(f"table {self.name!r} has no row in slot {rid}")
        if self.dirty_rows is not None:
            self.dirty_rows.add(rid)
        rows[rid] = new_row

    def delete_row(self, rid: RowId) -> Tuple[Any, ...]:
        """Remove a row; returns the before image."""
        before = self.read_row(rid)
        self._rows[rid] = None
        if self.dirty_rows is not None:
            self.dirty_rows.add(rid)
        heappush(self._vacated, rid)
        key = before[self.schema.primary_key_index]
        self.primary_index.delete(key, rid)
        for index in self.secondary_indexes.values():
            index.delete(self._index_key(index.columns, before), rid)
        return before

    # -- lookups -------------------------------------------------------------

    def find_by_key(self, key: Any) -> Optional[RowId]:
        return self.primary_index.lookup_unique(key)

    def read_by_key(self, key: Any) -> Optional[Tuple[Any, ...]]:
        rid = self.find_by_key(key)
        if rid is None:
            return None
        return self.read_row(rid)

    def index_for_name(self, name: str) -> HashIndex:
        """Resolve an index (primary or secondary) by its name."""
        if name == self.primary_index.name:
            return self.primary_index
        try:
            return self.secondary_indexes[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no index {name!r}") from None

    # -- snapshot (MVCC) reads ------------------------------------------------

    def visible_by_key(
        self, key: Any, snapshot_lsn: int, txn_id: int
    ) -> Optional[Tuple[Any, ...]]:
        """The row for ``key`` as the snapshot sees it, without locking.

        Chainless keys are committed base data: the heap row (if any) is
        visible to everyone.  Keys with a chain resolve through version
        visibility -- the heap may hold a newer or uncommitted image.
        """
        has_chain, row = self.versions.visible_row(key, snapshot_lsn, txn_id)
        if has_chain:
            return row
        return self.read_by_key(key)

    def snapshot_scan(
        self, snapshot_lsn: int, txn_id: int
    ) -> Iterator[Tuple[Optional[RowId], Tuple[Any, ...]]]:
        """Full scan as of the snapshot: heap rows resolved through their
        chains, plus chain-only keys whose current heap row is gone
        (deleted or moved after the snapshot was taken)."""
        pk_index = self.schema.primary_key_index
        for rid, row in self.scan():
            has_chain, visible = self.versions.visible_row(
                row[pk_index], snapshot_lsn, txn_id
            )
            if not has_chain:
                yield rid, row
            elif visible is not None:
                yield rid, visible
        for key, _chain in self.versions.chains():
            if self.primary_index.lookup_unique(key) is not None:
                continue  # already resolved during the heap scan
            _has, visible = self.versions.visible_row(key, snapshot_lsn, txn_id)
            if visible is not None:
                yield None, visible

    def scan(self) -> Iterator[Tuple[RowId, Tuple[Any, ...]]]:
        """Full scan in slot order."""
        for rid, row in enumerate(self._rows):
            if row is not None:
                yield rid, row

    # -- snapshot for checkpoints ---------------------------------------------

    def snapshot(self) -> "TableSnapshot":
        return TableSnapshot(list(self._rows), self._next_auto, list(self._vacated))

    def restore_snapshot(self, snapshot: "TableSnapshot") -> None:
        """Make the table hold ``snapshot`` (the installed image, or one
        taken since the marks were cleared): only the :attr:`dirty_rows`
        slots are put back, or with ``None`` every slot and index."""
        self._next_auto = snapshot.next_auto
        # Checkpoint images are quiesced and vacuumed: the restored heap
        # is committed base data, so all version history resets with it
        # (recovery redo builds no chain: no snapshot can read one).
        self.versions.clear()
        dirty = self.dirty_rows
        if dirty is not None and not dirty:
            return
        self.dirty_rows = None  # restore whole next time if this raises
        self._vacated = list(snapshot.vacated)  # before the build: it reads them
        if dirty is None:
            self._rows = list(snapshot.rows)
            self._rebuild_indexes()
        else:
            self._restore_rows(snapshot.rows, dirty)
        self.dirty_rows = set()

    def _restore_rows(self, image: List[Optional[Tuple[Any, ...]]], dirty: Set[RowId]) -> None:
        """Repair the marked slots' index entries, then put their rows
        back.  Every heap or index change marks its slot, so only a marked
        slot whose indexed columns changed moves an entry; all live entries
        go first, so a unique key that changed slots never meets itself."""
        rows, keys_of = self._rows, self._keys_of
        size = len(image)
        moved = []
        for rid in dirty:
            live = rows[rid]  # a marked slot exists
            old = image[rid] if rid < size else None  # None: not in the image
            if live is not old and (live is None or old is None or keys_of(live) != keys_of(old)):
                moved.append((rid, live, old))
        for index in (self.primary_index, *self.secondary_indexes.values()):
            key_of = itemgetter(*map(self.schema.column_index, index.columns))
            for rid, live, _old in moved:
                if live is not None:
                    index.delete(key_of(live), rid)
            for rid, _live, old in moved:
                if old is not None:
                    index.insert(key_of(old), rid)
        # only place_row grows the heap, and it marks what it places
        del rows[size:]
        for rid in dirty:
            if rid < size:
                rows[rid] = image[rid]

    def _rebuild_indexes(self) -> None:
        self._build_indexes(self.primary_index, *self.secondary_indexes.values())

    def _build_indexes(self, *indexes: HashIndex) -> None:
        """Bulk build from the heap: with no slot vacated the rids are
        ``range(n)``, else the live slots are collected first; then each
        index takes its key column whole (``itemgetter`` keeps
        :meth:`_index_key`'s scalar-or-tuple shape)."""
        rows: List[Any] = self._rows
        rids: Sequence[RowId] = range(len(rows))
        if self._vacated:
            rids = [rid for rid, row in enumerate(rows) if row is not None]
            rows = [rows[rid] for rid in rids]
        for index in indexes:
            key_of = itemgetter(*map(self.schema.column_index, index.columns))
            index.rebuild(list(map(key_of, rows)), rids)

    # -- internals --------------------------------------------------------------

    def _index_key(self, columns: Tuple[str, ...], row: Tuple[Any, ...]) -> Any:
        if len(columns) == 1:
            return row[self.schema.column_index(columns[0])]
        return tuple(row[self.schema.column_index(column)] for column in columns)


class TableSnapshot(NamedTuple):
    """Frozen physical state of a table: a copy of its slot list, its
    autoincrement counter and a copy of its vacated-slot heap."""

    rows: List[Optional[Tuple[Any, ...]]]
    next_auto: int
    vacated: List[RowId]
