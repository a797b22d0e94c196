"""Slotted pages: the unit of row addressing and checkpoint copying.

The engine is memory-resident, but rows are still grouped into fixed
size pages: a :class:`RowId` is a stable (page, slot) address that
indexes hold, a vacated slot is reused by the next insert, and a
checkpoint image is the list of per-page clones.
"""

from __future__ import annotations

from typing import Any, Iterator, List, NamedTuple, Optional, Tuple

from repro.engine.errors import EngineError

#: Default page size, matching PostgreSQL's 8 KiB pages.
PAGE_SIZE_BYTES = 8192


class RowId(NamedTuple):
    """Physical address of a row version: (page number, slot number)."""

    page_no: int
    slot: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.page_no},{self.slot})"


class Page:
    """A fixed-capacity array of row slots.

    ``None`` marks a vacated slot.  Slot indexes are stable for the
    lifetime of the page so :class:`RowId` values never dangle.
    """

    __slots__ = ("page_no", "capacity", "_slots", "_live")

    def __init__(self, page_no: int, capacity: int):
        if capacity < 1:
            raise EngineError(f"page capacity must be >= 1, got {capacity}")
        self.page_no = page_no
        self.capacity = capacity
        self._slots: List[Optional[Tuple[Any, ...]]] = []
        self._live = 0

    @property
    def live_rows(self) -> int:
        return self._live

    def has_free_slot(self) -> bool:
        return len(self._slots) < self.capacity or self._live < len(self._slots)

    def insert(self, row: Tuple[Any, ...]) -> int:
        """Place ``row`` in a free slot and return the slot number."""
        if len(self._slots) < self.capacity:
            self._slots.append(row)
            self._live += 1
            return len(self._slots) - 1
        try:
            slot = self._slots.index(None)  # the lowest vacated slot
        except ValueError:
            raise EngineError(f"page {self.page_no} is full") from None
        self._slots[slot] = row
        self._live += 1
        return slot

    def read(self, slot: int) -> Tuple[Any, ...]:
        row = self._slot(slot)
        if row is None:
            raise EngineError(f"row ({self.page_no},{slot}) was deleted")
        return row

    def write(self, slot: int, row: Tuple[Any, ...]) -> None:
        if self._slot(slot) is None:
            raise EngineError(f"cannot update deleted row ({self.page_no},{slot})")
        self._slots[slot] = row

    def delete(self, slot: int) -> Tuple[Any, ...]:
        row = self._slot(slot)
        if row is None:
            raise EngineError(f"row ({self.page_no},{slot}) already deleted")
        self._slots[slot] = None
        self._live -= 1
        return row

    def rows(self) -> Iterator[Tuple[int, Tuple[Any, ...]]]:
        """Yield (slot, row) for every live row."""
        for slot, row in enumerate(self._slots):
            if row is not None:
                yield slot, row

    def dense_rows(self) -> Optional[List[Tuple[Any, ...]]]:
        """The slot list itself (row ``i`` in slot ``i``; read-only) when
        no slot is vacated, else ``None``."""
        return self._slots if self._live == len(self._slots) else None

    def _slot(self, slot: int) -> Optional[Tuple[Any, ...]]:
        if slot < 0 or slot >= len(self._slots):
            raise EngineError(f"slot {slot} out of range on page {self.page_no}")
        return self._slots[slot]

    @classmethod
    def dense(cls, page_no: int, capacity: int, rows: List[Tuple[Any, ...]]) -> "Page":
        """A page holding ``rows[i]`` in slot ``i`` -- what ``len(rows)``
        (at most ``capacity``) inserts into a new page give.  Takes the
        list as its slot list."""
        page = cls(page_no, capacity)
        page._slots = rows
        page._live = len(rows)
        return page

    def clone(self) -> "Page":
        """Deep-enough copy used by checkpoint snapshots."""
        copy = Page(self.page_no, self.capacity)
        copy._slots = list(self._slots)
        copy._live = self._live
        return copy


def rows_per_page(row_byte_size: int) -> int:
    """How many rows of ``row_byte_size`` bytes fit one page (>= 1)."""
    if row_byte_size <= 0:
        raise EngineError("row byte size must be positive")
    return max(1, PAGE_SIZE_BYTES // row_byte_size)
