"""Row-level strict two-phase locking with deadlock detection.

Lock keys are ``(table, primary_key)`` pairs.  Shared locks are
compatible with shared locks; exclusive locks conflict with everything
except locks held by the same transaction (re-entrancy and the S->X
upgrade of the sole holder are supported).

The engine executes transactions cooperatively (no OS threads), so a
conflicting request does not physically block.  ``acquire`` returns
:data:`LockOutcome.GRANTED` or :data:`LockOutcome.BLOCKED`; a blocked
request is queued and the wait-for graph is checked -- if the wait
would close a cycle, the requester is chosen as the deadlock victim and
:class:`DeadlockError` is raised instead of queuing.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.engine.errors import DeadlockError, EngineError
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


class _Lock:
    """State of one lockable row."""

    __slots__ = ("holders", "queue")

    def __init__(self) -> None:
        self.holders: Dict[int, LockMode] = {}
        self.queue: Deque[Tuple[int, LockMode]] = deque()

    def compatible(self, txn_id: int, mode: LockMode) -> bool:
        others = [held for holder, held in self.holders.items() if holder != txn_id]
        if mode is SHARED:
            return all(held is SHARED for held in others)
        return not others


class LockManager:
    """All row locks of one database."""

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
            self._h_wait = metrics.histogram("engine.lock.wait_s")
            self._h_hold = metrics.histogram("engine.lock.hold_s")
        else:
            self._c_granted = self._c_elided = self._c_blocked = None
            self._h_wait = self._h_hold = None
        self._locks: Dict[LockKey, _Lock] = {}
        self._held_by_txn: Dict[int, Set[LockKey]] = {}
        #: free lists for the per-row lock objects and per-txn key sets
        #: -- the OLTP hot path creates and destroys one of each per
        #: row touch, and recycling them beats re-allocating (pooled
        #: objects are only ever parked empty)
        self._lock_pool: List[_Lock] = []
        self._set_pool: List[Set[LockKey]] = []
        #: wait-for graph: waiter txn -> set of holder txns
        self._waits_for: Dict[int, Set[int]] = {}
        self.deadlocks_detected = 0
        #: observability bookkeeping (populated only when obs is enabled)
        self._wait_since: Dict[int, float] = {}
        self._held_since: Dict[Tuple[int, LockKey], float] = {}

    # -- queries ------------------------------------------------------------

    def holders(self, key: LockKey) -> Dict[int, LockMode]:
        lock = self._locks.get(key)
        return dict(lock.holders) if lock else {}

    def queued(self, key: LockKey) -> List[int]:
        """Txn ids waiting on ``key``, in FIFO order."""
        lock = self._locks.get(key)
        return [waiter for waiter, _mode in lock.queue] if lock else []

    def exclusive_elsewhere(self, table: str, txn_id: int) -> List[Tuple[Any, int]]:
        """``(key, holder)`` of each row of ``table`` a transaction other
        than ``txn_id`` holds EXCLUSIVE: one walk of the lock table."""
        return [(key, holder) for (name, key), lock in self._locks.items() if name == table
                for holder, mode in lock.holders.items()
                if mode is EXCLUSIVE and holder != txn_id]

    def locks_held(self, txn_id: int) -> Set[LockKey]:
        """A transaction's lock footprint.  Unused by the engine: the
        oracle tests compare against (what a statement locked, what a
        rollback released)."""
        return set(self._held_by_txn.get(txn_id, ()))

    def elide(self, key: LockKey) -> bool:
        """May a lock on ``key`` that is dropped before any other
        transaction runs go untaken?  Yes where the lock table has no
        entry for ``key``: with no holder and no waiter, taking and
        dropping it changes nothing, and as one thread drives a database
        cooperatively, no entry appears in between.  An elided lock
        counts as ``engine.lock.elided``."""
        if key in self._locks:
            return False
        if self._c_elided is not None:
            self._c_elided.value += 1.0
        return True

    # -- acquisition ----------------------------------------------------------

    def acquire(
        self, txn_id: int, key: LockKey, mode: LockMode, queue_on_conflict: bool = True
    ) -> LockOutcome:
        """Try to take ``key`` in ``mode`` for ``txn_id``.

        Returns GRANTED immediately when compatible.  On conflict the
        request joins the FIFO queue (unless ``queue_on_conflict`` is
        false) after deadlock screening; closing a wait-for cycle raises
        :class:`DeadlockError` with the requester as victim.
        """
        lock = self._locks.get(key)
        if lock is None:
            # Uncontended first touch -- the overwhelmingly common case.
            pool = self._lock_pool
            lock = self._locks[key] = pool.pop() if pool else _Lock()
            lock.holders[txn_id] = mode
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
        held = lock.holders.get(txn_id)
        if held is not None and (held is EXCLUSIVE or held is mode):
            return GRANTED  # re-entrant
        # FIFO fairness: a grantable request must still queue behind
        # earlier waiters unless it is a lock upgrade.
        upgrade = held is SHARED and mode is EXCLUSIVE
        blocked_by_queue = bool(lock.queue) and not upgrade
        if lock.compatible(txn_id, mode) and not blocked_by_queue:
            lock.holders[txn_id] = mode
            self._held_by_txn.setdefault(txn_id, set()).add(key)
            if self._c_granted is not None:
                self._c_granted.value += 1.0
                self._held_since.setdefault((txn_id, key), self.obs.now())
            return GRANTED
        # A waiter re-requesting while already queued keeps its original
        # position -- appending a second entry would let it eventually
        # hold two queue slots and barge past waiters that arrived
        # between its two requests (starvation under re-polling).
        if queue_on_conflict and any(waiter == txn_id for waiter, _ in lock.queue):
            if self._c_blocked is not None:
                self._c_blocked.value += 1.0
            return BLOCKED
        blockers = {holder for holder in lock.holders if holder != txn_id}
        blockers.update(waiter for waiter, _ in lock.queue if waiter != txn_id)
        if self._would_deadlock(txn_id, blockers):
            self.deadlocks_detected += 1
            if self.obs.enabled:
                self.obs.count("engine.lock.deadlock")
                self.obs.event(
                    "lock.deadlock", "engine", track="engine",
                    attrs={"victim": txn_id, "blockers": sorted(blockers)},
                )
            raise DeadlockError(
                f"transaction {txn_id} would deadlock waiting for {sorted(blockers)}"
            )
        if self._c_blocked is not None:
            self._c_blocked.value += 1.0
        if not queue_on_conflict:
            return BLOCKED
        lock.queue.append((txn_id, mode))
        self._waits_for[txn_id] = blockers
        if self.obs.enabled:
            self._wait_since.setdefault(txn_id, self.obs.now())
        return BLOCKED

    def cancel_wait(self, txn_id: int) -> List[Tuple[int, LockKey]]:
        """Remove ``txn_id`` from every wait queue and the waits-for graph.

        Called on the timeout/abort path.  Three things must happen or
        the manager leaks ghost waiters: the waiter leaves every queue,
        every *other* waiter's blocker set drops the departed txn (stale
        edges cause false deadlock verdicts), and queues whose head
        became grantable are promoted (a cancelled head must not stall
        the compatible waiters behind it).  Returns the promoted grants
        so a cooperative scheduler can resume them.
        """
        self._waits_for.pop(txn_id, None)
        for blockers in self._waits_for.values():
            blockers.discard(txn_id)
        if self._h_wait is not None:
            since = self._wait_since.pop(txn_id, None)
            if since is not None:
                self._h_wait.observe(self.obs.now() - since)
        granted: List[Tuple[int, LockKey]] = []
        for key in list(self._locks):
            lock = self._locks[key]
            if not any(waiter == txn_id for waiter, _ in lock.queue):
                continue
            lock.queue = deque(
                (waiter, mode) for waiter, mode in lock.queue if waiter != txn_id
            )
            granted.extend(self._promote(key, lock))
            if not lock.holders and not lock.queue:
                del self._locks[key]
        return granted

    def release_one(self, txn_id: int, key: LockKey) -> List[Tuple[int, LockKey]]:
        """Early release of a single shared lock (READ COMMITTED).

        Exclusive locks are never released early -- strict 2PL keeps them
        to commit -- so releasing an X lock here is a no-op.
        """
        lock = self._locks.get(key)
        if lock is None or lock.holders.get(txn_id) is not SHARED:
            return []
        lock.holders.pop(txn_id)
        self._observe_release(txn_id, key)
        held = self._held_by_txn.get(txn_id)
        if held is not None:
            held.discard(key)
        granted = self._promote(key, lock)
        if not lock.holders and not lock.queue:
            del self._locks[key]
            if len(self._lock_pool) < 4096:
                self._lock_pool.append(lock)
        return granted

    def release_all(self, txn_id: int) -> List[Tuple[int, LockKey]]:
        """Strict 2PL release at commit/abort.

        Returns the ``(txn_id, key)`` grants promoted from wait queues so a
        cooperative scheduler can resume them.
        """
        # A txn appears in a wait queue iff it is in the waits-for graph
        # (queueing installs the edge, promotion removes both), so a
        # non-waiting committer can skip the queue sweep entirely.  The
        # ``_wait_since`` check keeps the wait-histogram flush for txns
        # that waited earlier and were promoted.
        if txn_id in self._waits_for or txn_id in self._wait_since:
            granted: List[Tuple[int, LockKey]] = self.cancel_wait(txn_id)
        else:
            granted = []
        held = self._held_by_txn.pop(txn_id, None)
        if held is None:
            return granted
        observe = self._h_hold is not None
        pool = self._lock_pool
        for key in held:
            lock = self._locks.get(key)
            if lock is None:  # pragma: no cover - defensive
                continue
            lock.holders.pop(txn_id, None)
            if observe:
                self._observe_release(txn_id, key)
            if lock.queue:
                granted.extend(self._promote(key, lock))
                if not lock.holders and not lock.queue:
                    del self._locks[key]
                    if len(pool) < 4096:
                        pool.append(lock)
            elif not lock.holders:
                del self._locks[key]
                if len(pool) < 4096:
                    pool.append(lock)
        held.clear()
        if len(self._set_pool) < 4096:
            self._set_pool.append(held)
        return granted

    def _observe_release(self, txn_id: int, key: LockKey) -> None:
        if self._h_hold is None:
            return
        since = self._held_since.pop((txn_id, key), None)
        if since is not None:
            self._h_hold.observe(self.obs.now() - since)

    def _promote(self, key: LockKey, lock: _Lock) -> List[Tuple[int, LockKey]]:
        granted: List[Tuple[int, LockKey]] = []
        while lock.queue:
            waiter, mode = lock.queue[0]
            if not lock.compatible(waiter, mode):
                break
            lock.queue.popleft()
            lock.holders[waiter] = mode
            self._held_by_txn.setdefault(waiter, set()).add(key)
            self._waits_for.pop(waiter, None)
            if self._h_wait is not None:
                now = self.obs.now()
                since = self._wait_since.pop(waiter, None)
                if since is not None:
                    self._h_wait.observe(now - since)
                self._held_since.setdefault((waiter, key), now)
            granted.append((waiter, key))
        # Refresh the wait-for edges of whoever is still queued: their
        # blockers are the current holders plus the waiters ahead of
        # them -- anything else is a stale edge to a departed txn.
        earlier: Set[int] = set()
        for waiter, _mode in lock.queue:
            self._waits_for[waiter] = (
                {holder for holder in lock.holders if holder != waiter}
                | {ahead for ahead in earlier if ahead != waiter}
            )
            earlier.add(waiter)
        return granted

    # -- deadlock detection ------------------------------------------------------

    def _would_deadlock(self, txn_id: int, blockers: Set[int]) -> bool:
        """Would adding waiter->blockers edges close a cycle through txn_id?"""
        seen: Set[int] = set()
        frontier = list(blockers)
        while frontier:
            current = frontier.pop()
            if current == txn_id:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self._waits_for.get(current, ()))
        return False

    def sanity_check(self) -> None:
        """Raise unless the lock table is self-consistent.  Unused by the
        engine: the invariant oracle of the lock, DES and serve tests."""
        for key, lock in self._locks.items():
            modes = set(lock.holders.values())
            if EXCLUSIVE in modes and len(lock.holders) > 1:
                raise EngineError(f"lock {key} grants X alongside other holders")
            for holder in lock.holders:
                if key not in self._held_by_txn.get(holder, set()):
                    raise EngineError(f"holder bookkeeping broken for {key}")
        # wait-for graph <-> queue consistency (no ghost waiters)
        queued = {
            waiter for lock in self._locks.values() for waiter, _ in lock.queue
        }
        live = queued | {
            holder for lock in self._locks.values() for holder in lock.holders
        }
        for waiter, blockers in self._waits_for.items():
            if waiter not in queued:
                raise EngineError(f"ghost waiter {waiter} in waits-for graph")
            stale = blockers - live
            if stale:
                raise EngineError(f"waiter {waiter} has stale edges to {sorted(stale)}")
        for waiter in queued:
            if waiter not in self._waits_for:
                raise EngineError(f"queued waiter {waiter} missing from waits-for graph")
