"""Structured tracing: spans and instant events in a ring buffer.

A :class:`Span` is one timed operation (a transaction, a log-batch
ship, a resilient client call); an *instant* is a zero-duration marker
(a fault starting to bite, a breaker opening).  Spans carry parent
links, free-form attributes, and a *track* -- the logical actor
(``engine``, ``replica:0``, ``client``) that becomes a row in the
Chrome ``trace_event`` rendering.

Two properties matter for instrumenting hot loops:

* **bounded memory** -- finished spans land in a ``deque(maxlen=...)``
  ring buffer; old spans fall off the back and ``dropped`` counts them,
  so a long run can never eat the heap;
* **no-op fast path** -- a disabled tracer answers every recording call
  with a single attribute check and no allocation, so instrumentation
  can stay inline in the WAL/buffer/lock paths.

Timestamps come from the tracer's ``clock`` callable, which is wall
time (``time.perf_counter``) for functional engine runs and ``lambda:
env.now`` for DES runs -- callers may also pass explicit timestamps
(``ts``/``start_s``/``end_s``) when they already know them.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One finished span or instant event."""

    __slots__ = (
        "span_id", "parent_id", "name", "category", "track",
        "start_s", "end_s", "attrs", "kind",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        parent_id: Optional[int] = None,
        track: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
        kind: str = "span",
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track or category
        self.start_s = start_s
        self.end_s = end_s
        self.attrs = attrs
        self.kind = kind  # "span" | "instant"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.span_id} {self.name!r} [{self.start_s:.6f}, "
            f"{self.end_s:.6f}]>"
        )


class ActiveSpan:
    """An open span handle; finish it with :meth:`Tracer.end` or use
    the :meth:`Tracer.span` context manager."""

    __slots__ = ("tracer", "span_id", "parent_id", "name", "category",
                 "track", "start_s", "attrs")

    def __init__(self, tracer: "Tracer", span_id: int, parent_id: Optional[int],
                 name: str, category: str, track: Optional[str],
                 start_s: float, attrs: Optional[Dict[str, Any]]):
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.track = track
        self.start_s = start_s
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs[key] = value

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set("error", exc_type.__name__)
        self.tracer.end(self)
        return False


class _NoopSpan:
    """Shared do-nothing handle returned by a disabled tracer."""

    __slots__ = ()
    span_id = 0
    parent_id = None

    def set(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Records spans into a bounded ring buffer.

    The context-manager API maintains an explicit *current span* stack,
    so synchronously nested ``with tracer.span(...)`` blocks get their
    parent links for free.  Interleaved producers (DES processes)
    bypass the stack with :meth:`add_complete` and explicit parents.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        capacity: int = 65536,
        enabled: bool = True,
    ):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.clock = clock or time.perf_counter
        self.enabled = enabled
        self.capacity = capacity
        self._buffer: deque[Span] = deque(maxlen=capacity)
        self._ids = itertools.count(1)
        self._stack: List[int] = []
        self.recorded = 0

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        track: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> ActiveSpan:
        if not self.enabled:
            return NOOP_SPAN  # type: ignore[return-value]
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        return ActiveSpan(
            self, span_id, parent, name, category, track, self.clock(), attrs,
        )

    def end(self, active: ActiveSpan) -> None:
        if not self.enabled or active is NOOP_SPAN:
            return
        self._store(Span(
            active.span_id, active.name, active.category,
            active.start_s, self.clock(),
            parent_id=active.parent_id, track=active.track, attrs=active.attrs,
        ))

    def span(
        self,
        name: str,
        category: str,
        track: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> "ActiveSpan | _NoopSpan":
        """Context manager: nested uses link parents via the span stack."""
        if not self.enabled:
            return NOOP_SPAN
        active = self.begin(name, category, track=track, attrs=attrs)
        return _StackedSpan(active)

    def add_complete(
        self,
        name: str,
        category: str,
        start_s: float,
        end_s: float,
        track: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record an already-finished span; returns its id (0 when off)."""
        if not self.enabled:
            return 0
        span_id = next(self._ids)
        self._store(Span(
            span_id, name, category, start_s, end_s, track=track, attrs=attrs,
        ))
        return span_id

    def instant(
        self,
        name: str,
        category: str,
        ts: Optional[float] = None,
        track: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return 0
        at = self.clock() if ts is None else ts
        span_id = next(self._ids)
        self._store(Span(
            span_id, name, category, at, at,
            track=track, attrs=attrs, kind="instant",
        ))
        return span_id

    def _store(self, span: Span) -> None:
        self._buffer.append(span)
        self.recorded += 1

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def dropped(self) -> int:
        """Spans that fell off the back of the ring buffer."""
        return self.recorded - len(self._buffer)

    def spans(self) -> Iterator[Span]:
        """All retained spans, oldest first."""
        return iter(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self._stack.clear()


class _StackedSpan:
    """Context manager pushing the span onto the tracer's parent stack."""

    __slots__ = ("_active",)

    def __init__(self, active: ActiveSpan):
        self._active = active

    def set(self, key: str, value: Any) -> None:
        self._active.set(key, value)

    @property
    def span_id(self) -> int:
        return self._active.span_id

    def __enter__(self) -> "_StackedSpan":
        self._active.tracer._stack.append(self._active.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._active.tracer._stack
        if stack and stack[-1] == self._active.span_id:
            stack.pop()
        if exc_type is not None:
            self._active.set("error", exc_type.__name__)
        self._active.tracer.end(self._active)
        return False
