"""Request deadlines that propagate across layers.

A :class:`Deadline` is an absolute expiry time bound to the clock it was
created under (wall clock, a DES environment's ``now``, or a test's
manual clock).  Carrying the clock *inside* the deadline is what lets it
cross layers: the engine checks ``txn.deadline.expired()`` at its
cancellation points without knowing or caring which time source the
client runs on, and without importing this module (duck typing keeps
``repro.engine`` free of a qos dependency).

Cancellation points in the engine (see :mod:`repro.engine.database`):

* **lock wait** -- before requesting a row lock, so a doomed transaction
  never takes a lock it cannot use;
* **WAL append** -- before a log record is durably written, the last
  point where a write can be abandoned without undo work.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.engine.errors import DeadlineExceededError

__all__ = ["Deadline", "DeadlineExceededError"]


class Deadline:
    """An absolute expiry instant with its own time source."""

    __slots__ = ("expires_at_s", "clock")

    def __init__(
        self, expires_at_s: float, clock: Optional[Callable[[], float]] = None
    ):
        self.expires_at_s = expires_at_s
        self.clock = clock or time.monotonic

    @classmethod
    def after(
        cls, timeout_s: float, clock: Optional[Callable[[], float]] = None
    ) -> "Deadline":
        """A deadline ``timeout_s`` from now on ``clock``."""
        if timeout_s < 0:
            raise ValueError("timeout must be >= 0")
        clock = clock or time.monotonic
        return cls(clock() + timeout_s, clock)

    def remaining_s(self, now: Optional[float] = None) -> float:
        """Seconds left (negative once expired)."""
        return self.expires_at_s - (self.clock() if now is None else now)

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining_s(now) <= 0.0

    def check(self, context: str = "") -> None:
        """Raise :class:`DeadlineExceededError` when expired."""
        remaining = self.remaining_s()
        if remaining <= 0.0:
            where = f" at {context}" if context else ""
            raise DeadlineExceededError(
                f"deadline exceeded{where} ({-remaining * 1000:.1f} ms past)"
            )

    def child(self, timeout_s: float) -> "Deadline":
        """A tighter deadline: ``min(self, now + timeout_s)``.

        Propagation helper for fan-out: a sub-request may be given a
        shorter budget but can never outlive its parent's deadline.
        """
        candidate = self.clock() + max(0.0, timeout_s)
        return Deadline(min(self.expires_at_s, candidate), self.clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Deadline {self.remaining_s() * 1000:+.1f} ms>"
