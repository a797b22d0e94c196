"""Shared resources for the DES kernel.

Two primitives:

* :class:`Resource` -- a FIFO resource with integral capacity, used for
  CPU cores, I/O channels and replay worker slots.  Processes obtain a
  slot by yielding :meth:`Resource.request` and must release it with
  :meth:`Resource.release` (the :meth:`Resource.use` helper wraps a
  timed hold).
* :class:`TimeSeries` -- an append-only step function with integration.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.sim.events import Environment, Event, SimulationError


class Resource:
    """FIFO resource with ``capacity`` identical slots."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """Return an event that succeeds once a slot is available."""
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        self._in_use -= 1
        self._drain()

    def _drain(self) -> None:
        while self._waiters and self._in_use < self.capacity:
            waiter = self._waiters.popleft()
            self._in_use += 1
            waiter.succeed()

    def use(self, duration: float) -> Generator:
        """Process helper: acquire a slot, hold for ``duration``, release.

        Usage inside a process: ``yield from resource.use(0.5)``.
        """
        yield self.request()
        try:
            yield self.env.timeout(duration)
        finally:
            self.release()


class TimeSeries:
    """Append-only (time, value) series with step-function integration."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1] - 1e-12:
            raise SimulationError("time series must be recorded in order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def value_at(self, time: float) -> float:
        """Step-function lookup: the last value recorded at or before ``time``."""
        if not self.times:
            raise SimulationError("empty time series")
        result = self.values[0]
        for t, v in zip(self.times, self.values):
            if t > time:
                break
            result = v
        return result

    def integrate(self, start: float, end: float) -> float:
        """Integral of the step function over ``[start, end]``."""
        if end < start:
            raise SimulationError("integration interval reversed")
        if not self.times or end == start:
            return 0.0
        total = 0.0
        previous_time = start
        previous_value = self.value_at(start)
        for t, v in zip(self.times, self.values):
            if t <= start:
                continue
            if t >= end:
                break
            total += previous_value * (t - previous_time)
            previous_time, previous_value = t, v
        total += previous_value * (end - previous_time)
        return total

    def average(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return self.integrate(start, end) / (end - start)
