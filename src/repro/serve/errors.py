"""The single wire error taxonomy.

Every engine/shard exception that crosses the socket is mapped **in
one place** -- here -- to a flat wire object::

    {"code": "shard_unavailable", "message": "...", "retryable": true,
     "retry_after_s": 0.0, "shard_id": 1}

and reconstructed on the client side into the *same* exception class it
left the server as.  That round-trip is what keeps the client
resilience stack honest over the network: ``is_retryable`` reads the
``retryable`` flag, :class:`~repro.engine.errors.OverloadError` keeps
its ``retry_after_s`` backoff hint, and
:class:`~repro.engine.errors.ShardUnavailableError` keeps its
``shard_id`` and its :class:`~repro.engine.errors.NodeUnavailableError`
lineage (so it still counts against circuit breakers).

An unknown code -- a newer server talking to an older client --
degrades to :class:`RemoteError` carrying the wire ``retryable`` flag,
so classification still works even when the class identity is lost.
"""

from __future__ import annotations

from typing import Any, Dict, Type

from repro.engine import errors as engine_errors
from repro.engine.errors import (
    DeadlineExceededError,
    DuplicateKeyError,
    EngineError,
    LockTimeoutError,
    NodeUnavailableError,
    OverloadError,
    RequestTimeout,
    SchemaError,
    ShardUnavailableError,
    SimulatedCrash,
    SqlError,
    TransactionAborted,
    WalCorruptionError,
    WriteConflictError,
)

__all__ = ["RemoteError", "WIRE_CODES", "to_wire", "from_wire", "wire_code"]


class RemoteError(EngineError):
    """A server-side failure whose class has no local counterpart.

    ``retryable`` is per-instance (from the wire flag) rather than the
    class attribute, so the resilience stack classifies it correctly
    without knowing the original type.
    """

    def __init__(self, message: str, code: str = "internal",
                 retryable: bool = False):
        super().__init__(message)
        self.code = code
        self.retryable = retryable


#: exception class -> wire code.  Order matters for lookup by
#: ``isinstance`` (subclasses before their bases).
WIRE_CODES: Dict[Type[EngineError], str] = {
    LockTimeoutError: "lock_timeout",
    WriteConflictError: "write_conflict",
    TransactionAborted: "txn_aborted",
    OverloadError: "overload",
    DeadlineExceededError: "deadline_exceeded",
    ShardUnavailableError: "shard_unavailable",
    SimulatedCrash: "crash",
    NodeUnavailableError: "node_unavailable",
    RequestTimeout: "request_timeout",
    SchemaError: "schema",
    SqlError: "sql",
    DuplicateKeyError: "duplicate_key",
    WalCorruptionError: "wal_corruption",
}

_BY_CODE: Dict[str, Type[EngineError]] = {
    code: cls for cls, code in WIRE_CODES.items()
}


def wire_code(error: BaseException) -> str:
    """The wire code of an exception (most-derived class wins)."""
    for cls, code in WIRE_CODES.items():
        if type(error) is cls:
            return code
    for cls, code in WIRE_CODES.items():
        if isinstance(error, cls):
            return code
    if isinstance(error, EngineError):
        return "engine"
    return "internal"


def to_wire(error: BaseException) -> Dict[str, Any]:
    """Flatten any server-side exception into the wire error object."""
    payload: Dict[str, Any] = {
        "code": wire_code(error),
        "message": str(error) or type(error).__name__,
        "retryable": bool(getattr(error, "retryable", False)),
    }
    retry_after = getattr(error, "retry_after_s", None)
    if retry_after:
        payload["retry_after_s"] = float(retry_after)
    shard_id = getattr(error, "shard_id", None)
    if shard_id is not None:
        payload["shard_id"] = int(shard_id)
    return payload


def from_wire(payload: Dict[str, Any]) -> EngineError:
    """Reconstruct the exception a wire error object describes."""
    code = str(payload.get("code", "internal"))
    message = str(payload.get("message", code))
    retryable = bool(payload.get("retryable", False))
    cls = _BY_CODE.get(code)
    if cls is OverloadError:
        return OverloadError(
            message, retry_after_s=float(payload.get("retry_after_s", 0.0))
        )
    if cls is ShardUnavailableError:
        shard_id = payload.get("shard_id")
        return ShardUnavailableError(
            message, shard_id=None if shard_id is None else int(shard_id)
        )
    if cls is not None:
        return cls(message)
    if code == "engine":
        # a plain EngineError subclass without a dedicated code
        error = EngineError(message)
        error.retryable = retryable
        return error
    return RemoteError(message, code=code, retryable=retryable)


def _self_check() -> None:
    """Every registered class must round-trip to itself."""
    for cls, code in WIRE_CODES.items():
        assert _BY_CODE[code] is cls, f"duplicate wire code {code!r}"
    # and every public engine error class must be registered
    public = {
        obj
        for name, obj in vars(engine_errors).items()
        if isinstance(obj, type)
        and issubclass(obj, EngineError)
        and obj is not EngineError
        and not name.startswith("_")
    }
    missing = public - set(WIRE_CODES)
    assert not missing, f"engine errors without wire codes: {missing}"


_self_check()
