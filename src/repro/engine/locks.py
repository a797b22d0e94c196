"""Row-level strict two-phase locking under a no-wait policy.

Lock keys are ``(table, primary_key)`` pairs.  Shared locks are
compatible with shared locks; exclusive locks conflict with everything
except locks held by the same transaction (re-entrancy and the S->X
upgrade of the sole holder are supported).

A conflicting request never waits: ``acquire`` returns
:data:`LockOutcome.BLOCKED` and leaves the lock table as it was, and the
engine rolls the requester back.  As no transaction ever waits for
another, no wait-for cycle can form, so there is no deadlock to detect
(the NO_WAIT scheme of Yu et al., *Staring into the Abyss*, VLDB 2014).
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.errors import EngineError
from repro.obs import NULL_OBSERVER, Observer

LockKey = Tuple[str, Any]


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    BLOCKED = "blocked"


# bound once: the per-lock code reads members as globals (see wal.py)
SHARED, EXCLUSIVE = LockMode.SHARED, LockMode.EXCLUSIVE
GRANTED, BLOCKED = LockOutcome.GRANTED, LockOutcome.BLOCKED


class LockManager:
    """All row locks of one database."""

    #: no-wait never closes a wait-for cycle; kept for the benchmark's
    #: ``locks.deadlocks`` column
    deadlocks_detected = 0

    def __init__(self, observer: Optional[Observer] = None) -> None:
        self.obs = observer or NULL_OBSERVER
        # Pre-resolved metrics: acquire/release run per row access, so
        # the enabled path bumps counters directly instead of paying a
        # registry lookup per lock operation.
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._c_granted = metrics.counter("engine.lock.granted")
            self._c_elided = metrics.counter("engine.lock.elided")
            self._c_blocked = metrics.counter("engine.lock.blocked")
            self._h_hold = metrics.histogram("engine.lock.hold_s")
        else:
            self._c_granted = self._c_elided = self._c_blocked = None
            self._h_hold = None
        #: key -> {holder txn: mode}; an entry exists iff it has a holder
        self._locks: Dict[LockKey, Dict[int, LockMode]] = {}
        self._held_by_txn: Dict[int, Set[LockKey]] = {}
        #: free lists for the per-row holder maps and per-txn key sets
        #: -- the OLTP hot path creates and destroys one of each per
        #: row touch, and recycling them beats re-allocating (pooled
        #: objects are only ever parked empty)
        self._lock_pool: List[Dict[int, LockMode]] = []
        self._set_pool: List[Set[LockKey]] = []
        #: observability bookkeeping (populated only when obs is enabled)
        self._held_since: Dict[Tuple[int, LockKey], float] = {}

    # -- queries ------------------------------------------------------------

    def holders(self, key: LockKey) -> Dict[int, LockMode]:
        return dict(self._locks.get(key, ()))

    def exclusive_elsewhere(self, table: str, txn_id: int) -> List[Tuple[Any, int]]:
        """``(key, holder)`` of each row of ``table`` a transaction other
        than ``txn_id`` holds EXCLUSIVE: one walk of the lock table."""
        return [(key, holder) for (name, key), holders in self._locks.items()
                if name == table for holder, mode in holders.items()
                if mode is EXCLUSIVE and holder != txn_id]

    def locks_held(self, txn_id: int) -> Set[LockKey]:
        """A transaction's lock footprint.  Unused by the engine: the
        oracle tests compare against (what a statement locked, what a
        rollback released)."""
        return set(self._held_by_txn.get(txn_id, ()))

    def elide(self, key: LockKey) -> bool:
        """May a lock on ``key`` that is dropped before any other
        transaction runs go untaken?  Yes where the lock table has no
        entry for ``key``: with no holder, taking and dropping it
        changes nothing, and as one thread drives a database
        cooperatively, no entry appears in between.  An elided lock
        counts as ``engine.lock.elided``."""
        if key in self._locks:
            return False
        if self._c_elided is not None:
            self._c_elided.value += 1.0
        return True

    # -- acquisition ----------------------------------------------------------

    def acquire(self, txn_id: int, key: LockKey, mode: LockMode) -> LockOutcome:
        """Take ``key`` in ``mode`` for ``txn_id``: GRANTED when
        compatible, else BLOCKED with the lock table left unchanged."""
        holders = self._locks.get(key)
        if holders is None:
            # Uncontended first touch -- the overwhelmingly common case.
            pool = self._lock_pool
            holders = self._locks[key] = pool.pop() if pool else {}
            holders[txn_id] = mode
            held_keys = self._held_by_txn.get(txn_id)
            if held_keys is None:
                sets = self._set_pool
                held_keys = self._held_by_txn[txn_id] = (
                    sets.pop() if sets else set()
                )
            held_keys.add(key)
            if self._c_granted is not None:
                self._c_granted.value += 1.0
                self._held_since.setdefault((txn_id, key), self.obs.now())
            return GRANTED
        held = holders.get(txn_id)
        if held is None:
            # an X holder is the sole holder, so S needs no X anywhere
            grantable = mode is SHARED and EXCLUSIVE not in holders.values()
        elif held is EXCLUSIVE or held is mode:
            return GRANTED  # re-entrant
        else:
            grantable = len(holders) == 1  # the sole S holder upgrades
        if not grantable:
            if self._c_blocked is not None:
                self._c_blocked.value += 1.0
            return BLOCKED
        holders[txn_id] = mode
        self._held_by_txn.setdefault(txn_id, set()).add(key)
        if self._c_granted is not None:
            self._c_granted.value += 1.0
            self._held_since.setdefault((txn_id, key), self.obs.now())
        return GRANTED

    def release_one(self, txn_id: int, key: LockKey) -> None:
        """Early release of a single shared lock (READ COMMITTED).

        Exclusive locks are never released early -- strict 2PL keeps them
        to commit -- so releasing an X lock here is a no-op.
        """
        holders = self._locks.get(key)
        if holders is None or holders.get(txn_id) is not SHARED:
            return
        del holders[txn_id]
        self._observe_release(txn_id, key)
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.discard(key)
        if not holders:
            del self._locks[key]
            if len(self._lock_pool) < 4096:
                self._lock_pool.append(holders)

    def release_all(self, txn_id: int) -> None:
        """Strict 2PL release at commit/abort."""
        held = self._held_by_txn.pop(txn_id, None)
        if held is None:
            return
        observe = self._h_hold is not None
        locks = self._locks
        pool = self._lock_pool
        for key in held:
            holders = locks[key]
            del holders[txn_id]
            if observe:
                self._observe_release(txn_id, key)
            if not holders:
                del locks[key]
                if len(pool) < 4096:
                    pool.append(holders)
        held.clear()
        if len(self._set_pool) < 4096:
            self._set_pool.append(held)

    def _observe_release(self, txn_id: int, key: LockKey) -> None:
        if self._h_hold is None:
            return
        since = self._held_since.pop((txn_id, key), None)
        if since is not None:
            self._h_hold.observe(self.obs.now() - since)

    def sanity_check(self) -> None:
        """Raise unless the lock table is self-consistent.  Unused by the
        engine: the invariant oracle of the lock, DES and serve tests."""
        for key, holders in self._locks.items():
            if not holders:
                raise EngineError(f"lock {key} has an entry but no holder")
            if EXCLUSIVE in holders.values() and len(holders) > 1:
                raise EngineError(f"lock {key} grants X alongside other holders")
            for holder in holders:
                if key not in self._held_by_txn.get(holder, ()):
                    raise EngineError(f"holder bookkeeping broken for {key}")
        for txn_id, keys in self._held_by_txn.items():
            for key in keys:
                if txn_id not in self._locks.get(key, ()):
                    raise EngineError(f"txn {txn_id} books {key} without holding it")
