"""The transport-agnostic ``Client`` protocol.

Every workload in the testbed issues the same seven verbs --
``connect`` / ``execute`` / ``query`` / ``begin`` / ``commit`` /
``rollback`` / ``close`` -- and this module pins them down as a
:class:`typing.Protocol` so the *same workload code* can run over any
transport:

* :class:`EngineClient` -- in-process against one
  :class:`~repro.engine.database.Database` (the seed behaviour);
* :class:`FleetClient` -- in-process against a
  :class:`~repro.shard.fleet.ShardedDatabase`, with cross-shard
  transaction affinity (statements inside ``begin``/``commit`` enlist
  in one global transaction);
* :class:`repro.serve.client.SocketClient` -- the same verbs over a
  real TCP socket to a :class:`repro.serve.server.SQLServer`.

The contract that makes transports interchangeable is the *error*
surface: every implementation raises the engine's exception hierarchy
(:mod:`repro.engine.errors`), with ``retryable`` and ``retry_after_s``
intact -- the socket client reconstructs them from wire frames (see
:mod:`repro.serve.errors`), so ``is_retryable`` / breaker
classification behave identically in-process and over the wire.

One attribute rides along for workloads that need it: ``gtid``, the
id of the most recently begun global transaction (``None`` for
single-node clients).  Read it once the transaction's first statement
(or its commit) has been answered, not right after ``begin()``: the
socket client's ``begin`` sends nothing, it rides on that first frame.
No client carries a deadline; the engine's cancellation points are
reached through ``Database.begin(deadline=...)`` and
``fleet.begin(deadline=...)`` directly, and the serving tier expires
queued work at admission (``ServerConfig.deadline_s``).
"""

from __future__ import annotations

from typing import (
    Any,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.engine.database import Database
from repro.engine.errors import EngineError
from repro.engine.executor import ResultSet
from repro.engine.txn import IsolationLevel

__all__ = [
    "Client",
    "ClientError",
    "EngineClient",
    "FleetClient",
    "coerce_isolation",
    "quiet_rollback",
]


class ClientError(EngineError):
    """Client-side protocol misuse (begin inside begin, commit outside).

    Not retryable: the caller's state machine is wrong, not the server.
    """


def coerce_isolation(
    isolation: Optional[object],
) -> Optional[IsolationLevel]:
    """Accept an :class:`IsolationLevel`, its name, or ``None``."""
    if isolation is None or isinstance(isolation, IsolationLevel):
        return isolation
    name = str(isolation).strip().upper()
    try:
        return IsolationLevel[name]
    except KeyError:
        raise ClientError(f"unknown isolation level {isolation!r}") from None


@runtime_checkable
class Client(Protocol):
    """What every transport must provide (structural; no inheritance)."""

    def connect(self) -> None: ...

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet: ...

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet: ...

    def begin(self, isolation: Optional[object] = None) -> None: ...

    def commit(self) -> None: ...

    def rollback(self) -> None: ...

    def close(self) -> None: ...

    def abandon(self) -> None: ...

    @property
    def in_txn(self) -> bool: ...


def quiet_rollback(client: Client) -> None:
    """Roll back an open transaction without masking the real error.

    For ``except`` paths: a failing rollback (a branch's shard is down;
    recovery presumes abort anyway) is swallowed so the original
    exception propagates.
    """
    if not client.in_txn:
        return
    try:
        client.rollback()
    except EngineError:
        pass
    finally:
        # a rollback a dead shard swallowed must not pin the client:
        # the next operation begins a fresh transaction
        if client.in_txn:
            client.abandon()


class EngineClient:
    """In-process :class:`Client` over one engine database."""

    def __init__(self, db: Database):
        self.db = db
        self._txn = None
        #: single-node transport: no global transaction ids
        self.gtid = None

    def connect(self) -> None:
        pass

    @property
    def in_txn(self) -> bool:
        return self._txn is not None and self._txn.is_active

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        if self.in_txn:
            return self.db.execute(sql, params, txn=self._txn)
        return self.db.execute(sql, params)

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        if self.in_txn:
            # reads inside the transaction must see its own writes
            return self.db.query(sql, params, txn=self._txn)
        return self.db.query(sql, params)

    def begin(self, isolation: Optional[object] = None) -> None:
        if self.in_txn:
            raise ClientError("begin() inside an open transaction")
        self._txn = self.db.begin(isolation=coerce_isolation(isolation))

    def commit(self) -> None:
        txn = self._require_txn("commit")
        try:
            txn.commit()
        finally:
            if not txn.is_active:
                self._txn = None

    def rollback(self) -> None:
        txn = self._require_txn("rollback")
        try:
            txn.rollback()
        finally:
            if not txn.is_active:
                self._txn = None

    def close(self) -> None:
        if self.in_txn:
            self.rollback()

    def abandon(self) -> None:
        """Drop transaction affinity without rolling back.

        For when a :class:`~repro.engine.errors.SimulatedCrash` left
        the transaction dangling on purpose: the branch state belongs
        to crash recovery now, but this client must be able to
        ``begin()`` the next transaction.
        """
        self._txn = None

    def _require_txn(self, verb: str):
        if self._txn is None:
            raise ClientError(f"{verb}() outside a transaction")
        return self._txn


class FleetClient:
    """In-process :class:`Client` over a sharded fleet.

    Transaction affinity: between ``begin()`` and ``commit()`` every
    statement enlists in one :class:`~repro.shard.coordinator.
    GlobalTransaction`, so multi-statement transactions run cross-shard
    2PC exactly as the raw ``fleet.begin()`` API does.
    """

    def __init__(self, fleet):
        self.fleet = fleet
        self._gtxn = None
        #: id of the most recently begun global transaction (persists
        #: after commit -- history recorders read it post-ack)
        self.gtid: Optional[str] = None

    def connect(self) -> None:
        pass

    @property
    def in_txn(self) -> bool:
        return self._gtxn is not None and self._gtxn.is_active

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        gtxn = self._gtxn  # in_txn inlined: one statement per OLTP txn op
        if gtxn is not None and gtxn.is_active:
            return self.fleet.execute(sql, params, gtxn=gtxn)
        return self.fleet.execute(sql, params)

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        gtxn = self._gtxn
        if gtxn is not None and gtxn.is_active:
            return self.fleet.query(sql, params, gtxn=gtxn)
        return self.fleet.query(sql, params)

    def begin(self, isolation: Optional[object] = None) -> None:
        if self.in_txn:
            raise ClientError("begin() inside an open transaction")
        self._gtxn = self.fleet.begin(isolation=coerce_isolation(isolation))
        self.gtid = self._gtxn.gtid

    def commit(self) -> None:
        gtxn = self._require_txn("commit")
        try:
            gtxn.commit()
        finally:
            if not gtxn.is_active:
                self._gtxn = None

    def rollback(self) -> None:
        gtxn = self._require_txn("rollback")
        try:
            gtxn.rollback()
        finally:
            if not gtxn.is_active:
                self._gtxn = None

    def close(self) -> None:
        if self.in_txn:
            try:
                self.rollback()
            except EngineError:
                pass

    def abandon(self) -> None:
        """Drop transaction affinity without rolling back (post-crash)."""
        self._gtxn = None

    def _require_txn(self, verb: str):
        if self._gtxn is None:
            raise ClientError(f"{verb}() outside a transaction")
        return self._gtxn

