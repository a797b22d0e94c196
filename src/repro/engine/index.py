"""Hash and ordered indexes mapping key values to row ids.

Indexes may be unique (primary keys, unique constraints) or not
(secondary access paths such as ``ORDERLINE(OL_O_ID)``).  The ordered
variant keeps keys sorted for range scans and ORDER BY ... LIMIT plans
(TPC-C's "latest order of a customer" lookup).
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.engine.errors import DuplicateKeyError, EngineError

#: A row's address: its slot number in the table's heap.
RowId = int


class HashIndex:
    """Equality-only index: key -> row id when unique, key -> set of row
    ids otherwise."""

    def __init__(self, name: str, columns: Tuple[str, ...], unique: bool = False):
        self.name = name
        self.columns = columns
        self.unique = unique
        self._map: Dict[Any, Any] = {}

    def __len__(self) -> int:
        if self.unique:
            return len(self._map)
        return sum(len(rids) for rids in self._map.values())

    def insert(self, key: Any, rid: RowId) -> None:
        if not self.unique:
            self._map.setdefault(key, set()).add(rid)
        elif key in self._map:
            raise DuplicateKeyError(
                f"duplicate key {key!r} in unique index {self.name!r}"
            )
        else:
            self._map[key] = rid

    def delete(self, key: Any, rid: RowId) -> None:
        held = self._map.get(key)
        if held != rid if self.unique else (held is None or rid not in held):
            raise EngineError(f"index {self.name!r} has no entry {key!r}->{rid}")
        if self.unique or len(held) == 1:
            del self._map[key]
        else:
            held.discard(rid)

    def rebuild(self, keys: Sequence[Any], rids: Sequence[RowId]) -> None:
        """Replace the contents with ``keys[i] -> rids[i]`` in bulk: the
        result, and the unique check, of one :meth:`insert` per pair."""
        if self.unique:
            self._map = dict(zip(keys, rids))
            if len(self._map) != len(rids):
                seen: Set[Any] = set()
                key = next(k for k in keys if k in seen or seen.add(k))
                raise DuplicateKeyError(
                    f"duplicate key {key!r} in unique index {self.name!r}"
                )
        else:
            buckets: Dict[Any, Set[RowId]] = defaultdict(set)
            for key, rid in zip(keys, rids):
                buckets[key].add(rid)
            self._map = dict(buckets)

    def lookup(self, key: Any) -> List[RowId]:
        held = self._map.get(key)
        if self.unique:
            return [] if held is None else [held]
        return sorted(held or ())

    def lookup_unique(self, key: Any) -> Optional[RowId]:
        """The row id under ``key``, else ``None``; unique indexes only
        (the map of any other holds sets)."""
        return self._map.get(key)


class OrderedIndex(HashIndex):
    """Hash index plus a sorted key list for range scans.

    Keys must be mutually comparable (ints, strings, or homogeneous
    tuples).  The sorted list holds unique key values; the hash map
    resolves each key to its row ids.  A delete leaves its key in the
    list as a *tombstone* (a listed key the map no longer holds): no
    O(n) ``list.pop``; :meth:`range` skips it, a re-insert of the key
    revives it, and once tombstones pass half the list it is rebuilt
    from the map.
    """

    def __init__(self, name: str, columns: Tuple[str, ...], unique: bool = False):
        super().__init__(name, columns, unique)
        self._sorted_keys: List[Any] = []
        self._tombstones = 0

    def rebuild(self, keys: Sequence[Any], rids: Sequence[RowId]) -> None:
        super().rebuild(keys, rids)
        self._sorted_keys = sorted(self._map)
        self._tombstones = 0

    def insert(self, key: Any, rid: RowId) -> None:
        existed = key in self._map
        super().insert(key, rid)
        if not existed:
            keys = self._sorted_keys
            position = bisect.bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                self._tombstones -= 1
            else:
                keys.insert(position, key)

    def delete(self, key: Any, rid: RowId) -> None:
        super().delete(key, rid)
        if key not in self._map:
            self._tombstones += 1
            if 2 * self._tombstones > len(self._sorted_keys):
                self._sorted_keys = sorted(self._map)
                self._tombstones = 0

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
        reverse: bool = False,
    ) -> Iterator[Tuple[Any, RowId]]:
        """Yield (key, rid) pairs with keys in the requested interval."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._sorted_keys, low)
        else:
            start = bisect.bisect_right(self._sorted_keys, low)
        if high is None:
            stop = len(self._sorted_keys)
        elif include_high:
            stop = bisect.bisect_right(self._sorted_keys, high)
        else:
            stop = bisect.bisect_left(self._sorted_keys, high)
        keys = self._sorted_keys[start:stop]
        if reverse:
            keys = reversed(keys)
        for key in keys:
            for rid in self.lookup(key):  # a tombstone looks up nothing
                yield key, rid
