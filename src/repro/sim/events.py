"""A small deterministic discrete-event simulation engine.

The engine follows the SimPy programming model: simulation *processes*
are Python generators that ``yield`` events; the environment resumes a
process when the event it waits on triggers.  Only the features the
cloud substrate needs are implemented, which keeps the kernel easy to
audit:

* :class:`Environment` -- event queue and virtual clock.
* :class:`Event` -- one-shot events that succeed with a value or fail
  with an exception.
* :class:`Timeout` -- an event that triggers after a virtual delay.
* :class:`Process` -- wraps a generator; itself an event that triggers
  when the generator returns.
* :class:`VirtualClock` -- the manually advanced clock of the runs
  that are not event-driven (HA, resilience, the overload sweep).

Determinism: events scheduled for the same instant are processed in
scheduling order (a monotonically increasing sequence number breaks
ties), so repeated runs produce identical traces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class VirtualClock:
    """A manually advanced clock for runs that own their time.

    Whoever drives the run moves it -- a client session by modelled
    latencies and retry backoffs (``ResilientSession``'s ``advance``
    hook), the overload sweep by setting ``now`` -- and everything else
    (leases, deadlines, breakers) reads it.  Callable so it can slot in
    anywhere a ``clock()`` function is expected.
    """

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, delta_s: float) -> None:
        if delta_s < 0:
            raise ValueError(f"time cannot run backwards: {delta_s}")
        self.now += delta_s


class Event:
    """A one-shot occurrence that processes may wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    triggers it exactly once and schedules its callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(True, value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see ``exception``."""
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._trigger(False, exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        self.env._schedule(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now:.6f}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = None
        env._schedule(self, delay)


class Process(Event):
    """Wraps a generator and drives it through the event queue.

    The process is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the
    exception that escaped the generator.
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError("process target must be a generator")
        super().__init__(env)
        self._generator = generator
        # Kick off the generator at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, event: Event) -> None:
        if event._ok:
            self._step(event.value, throw=False)
        else:
            self._step(event.value, throw=True)

    def _step(self, value: Any, throw: bool) -> None:
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if not self.callbacks:
                raise
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield events"
            )
        if target._triggered and not target._scheduled:
            # The event already fired and was consumed; resume immediately.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            immediate._triggered = True
            immediate._ok = target._ok
            immediate._value = target._value
            self.env._schedule(immediate)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Virtual clock plus the pending-event heap."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        if event._scheduled:
            return
        event._scheduled = True
        self._sequence += 1
        heapq.heappush(self._heap, (self._now + delay, self._sequence, event))

    # -- public factory helpers ------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        return Timeout(self, delay)

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    # -- execution --------------------------------------------------------

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        time, _seq, event = heapq.heappop(self._heap)
        if time < self._now - 1e-12:
            raise SimulationError("event scheduled in the past")
        self._now = max(self._now, time)
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock reaches ``until``."""
        if until is not None and until < self._now:
            raise SimulationError("cannot run backwards in time")
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                return
            self.step()
        if until is not None:
            self._now = until
