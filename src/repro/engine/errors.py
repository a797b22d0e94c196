"""Exception hierarchy for the storage engine.

Every error carries a ``retryable`` class attribute: ``True`` means the
failure is transient (a lock conflict, a write conflict, a node that
vanished mid-request) and the *whole transaction* may safely be replayed
by a client; ``False`` means replaying the identical request would fail
identically (bad SQL, duplicate key).  The client resilience stack
(:mod:`repro.core.resilience`) drives its retry decisions off this flag
instead of matching exception types ad hoc.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all storage-engine errors."""

    #: May a client safely retry the enclosing transaction?
    retryable: bool = False


class SchemaError(EngineError):
    """Schema definition or catalog misuse (unknown table/column, ...)."""


class SqlError(EngineError):
    """SQL that the engine's subset parser cannot understand."""


class DuplicateKeyError(EngineError):
    """Insert violates a primary-key or unique-index constraint."""


class WalCorruptionError(EngineError):
    """A WAL record failed its CRC check outside recovery.

    Restart recovery never raises this -- it truncates the log at the
    first corrupt record instead -- but strict readers (log shipping
    verifiers, audits) surface corruption as an error.
    """


class TransactionAborted(EngineError):
    """The transaction was rolled back and cannot be used further."""

    retryable = True


class LockTimeoutError(TransactionAborted):
    """A lock request met a conflicting holder.  The lock manager is
    no-wait, so the request never waits: the requester is rolled back
    at once."""

    def __init__(self, message: str, holders=()):
        super().__init__(message)
        #: ids of the transactions holding the lock the request met
        self.holders = frozenset(holders)


class WriteConflictError(TransactionAborted):
    """First-updater-wins: a snapshot transaction tried to overwrite a
    row version committed after its snapshot was taken.

    Raised only under the MVCC isolation levels (``SNAPSHOT`` and
    ``REPEATABLE_READ``).  Retryable: a fresh attempt takes a fresh
    snapshot that includes the conflicting commit.
    """


class OverloadError(EngineError):
    """The admission controller shed this request (queue full or the
    adaptive concurrency limit is saturated).

    Retryable, but clients should consult their retry *budget* before
    replaying: unbudgeted retries against an overloaded server are
    exactly the amplification admission control exists to prevent.
    ``retry_after_s`` is the server's backoff hint (0 when unknown).
    """

    retryable = True

    def __init__(self, message: str = "overloaded", retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceededError(EngineError):
    """The request's deadline expired while work was still in flight.

    Raised at the engine's cancellation points (lock wait, WAL append)
    after the transaction has been rolled back.  *Not* retryable: the
    client's deadline has passed, so replaying the work cannot produce
    an answer anyone is still waiting for.
    """

    retryable = False


class SimulatedCrash(EngineError):
    """A fault-injection crash point fired; the node is gone mid-request.

    Retryable: the request may be replayed against the recovered node or
    a healthy peer once fail-over completes.
    """

    retryable = True


class NodeUnavailableError(EngineError):
    """The target node is unreachable (partition, crash, stopped)."""

    retryable = True


class ShardUnavailableError(NodeUnavailableError):
    """A shard of the fleet is down, demoted, or mid-failover.

    Raised by the fleet facade instead of leaking the engine's internal
    :class:`SimulatedCrash` when a statement lands on a dead shard.
    Retryable -- once failover promotes the standby (or recovery revives
    the primary) the same statement succeeds -- and, as a
    :class:`NodeUnavailableError`, it counts against the client's
    circuit breaker for the endpoint.
    """

    def __init__(self, message: str, shard_id: int | None = None):
        super().__init__(message)
        self.shard_id = shard_id


class RequestTimeout(EngineError):
    """The per-request timeout budget elapsed before a response."""

    retryable = True
