"""The :class:`Observer` handle threaded through every instrumented layer.

One observer = one metrics registry + one tracer + one clock.  Engine,
cloud-DES and client code all take an optional ``observer`` argument
and fall back to :data:`NULL_OBSERVER`, a shared always-off instance
whose every method is a constant-time no-op -- instrumented hot loops
pay one attribute load and a predictable branch when observability is
off.

Typical wiring::

    obs = Observer()                       # wall-clock by default
    db = Database("primary", observer=obs)
    ...
    obs.bind_clock(lambda: env.now)        # switch to sim time for DES
    pipeline = ReplicationPipeline(env, arch, db, observer=obs)
    ...
    write_chrome_trace(obs, "out.json")    # see repro.obs.export
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NOOP_SPAN, Tracer


class Observer:
    """Bundle of metrics + tracing + clock with convenience shortcuts."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        trace_capacity: int = 65536,
        enabled: bool = True,
    ):
        self.enabled = enabled
        self._clock = clock or time.perf_counter
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(self._clock, capacity=trace_capacity, enabled=enabled)
        # ``now`` is bound directly to the clock callable (an instance
        # attribute shadowing the class method) so hot paths pay one
        # call, not a wrapper frame plus a call.
        self.now: Callable[[], float] = self._clock

    # -- clock ---------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (e.g. to a DES environment's ``now``)."""
        self._clock = clock
        self.now = clock
        self.tracer.clock = clock

    # -- metrics shortcuts ---------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.enabled:
            self.metrics.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            self.metrics.histogram(name).observe(value)

    # -- tracing shortcuts ---------------------------------------------------

    def span(self, name: str, category: str, track: Optional[str] = None,
             attrs: Optional[Dict[str, Any]] = None):
        if not self.enabled:
            return NOOP_SPAN
        return self.tracer.span(name, category, track=track, attrs=attrs)

    def complete(self, name: str, category: str, start_s: float, end_s: float,
                 track: Optional[str] = None,
                 attrs: Optional[Dict[str, Any]] = None) -> int:
        if not self.enabled:
            return 0
        return self.tracer.add_complete(
            name, category, start_s, end_s, track=track, attrs=attrs,
        )

    def event(self, name: str, category: str, ts: Optional[float] = None,
              track: Optional[str] = None,
              attrs: Optional[Dict[str, Any]] = None) -> int:
        if not self.enabled:
            return 0
        return self.tracer.instant(name, category, ts=ts, track=track, attrs=attrs)

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Everything a dashboard needs, as one JSON-serialisable dict."""
        return {
            "enabled": self.enabled,
            "metrics": self.metrics.snapshot(),
            "trace": {
                "spans": len(self.tracer),
                "recorded": self.tracer.recorded,
                "dropped": self.tracer.dropped,
            },
        }


class _NullObserver(Observer):
    """Always-off observer: every method returns immediately.

    A dedicated subclass (rather than ``Observer(enabled=False)``) so
    the hot-path methods skip even the ``enabled`` branch bodies and
    ``now()`` never touches a real clock.
    """

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0, trace_capacity=1, enabled=False)

    def bind_clock(self, clock: Callable[[], float]) -> None:
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def span(self, name: str, category: str, track: Optional[str] = None,
             attrs: Optional[Dict[str, Any]] = None):
        return NOOP_SPAN

    def complete(self, name: str, category: str, start_s: float, end_s: float,
                 track: Optional[str] = None,
                 attrs: Optional[Dict[str, Any]] = None) -> int:
        return 0

    def event(self, name: str, category: str, ts: Optional[float] = None,
              track: Optional[str] = None,
              attrs: Optional[Dict[str, Any]] = None) -> int:
        return 0


#: the shared no-op fallback every instrumented constructor defaults to
NULL_OBSERVER = _NullObserver()
