"""Open-loop arrival schedules and coordinated-omission-free replay.

A *closed-loop* driver issues the next operation only after the
previous one returned, so a stall in the server also stalls the load
generator -- the driver "coordinates" with the system under test and
omits exactly the samples that would have shown the stall (Tene's
coordinated omission).  An *open-loop* driver decides arrival times in
advance, independent of completions, and measures every operation from
its **scheduled** start.  An operation that sat behind a backlog is
charged its queueing delay; nothing is omitted.

This module provides both halves:

* **Arrival schedules** -- :func:`arrival_offsets` turns an
  :class:`ArrivalSpec` (Poisson or burst) into a sorted list of
  scheduled start offsets.  Randomness comes from a caller-supplied
  :class:`random.Random` so the schedule is pinned by the usual
  :func:`~repro.sim.rng.derive_seed` named streams.
* **CO-free accounting** -- :func:`replay_open_loop` replays a schedule
  against service durations a driver already measured, on a
  single-server virtual queue: each operation starts at
  ``max(scheduled, previous completion)`` and its recorded latency is
  ``completion - scheduled``.  Waiting is bookkept, not slept, so one
  closed-loop execution yields both the service-time view and honest
  open-loop sojourn times.  :func:`replay_closed_run` is the one way an
  evaluator's ``arrival=`` option uses it: the run stays closed, and an
  open spec only adds this view of it.

Latencies land in a mergeable :class:`~repro.obs.metrics.Histogram` so
per-worker results aggregate exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.obs.metrics import Histogram

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalSpec",
    "OpenLoopResult",
    "arrival_offsets",
    "arrival_offsets_window",
    "parse_arrival",
    "replay_closed_run",
    "replay_open_loop",
]

#: supported arrival processes ("closed" means: no schedule, classic loop)
ARRIVAL_KINDS = ("closed", "poisson", "burst")

#: default burst size for ``burst`` arrivals
DEFAULT_BURST = 8


@dataclass(frozen=True)
class ArrivalSpec:
    """One client class's arrival process.

    ``rate`` is in operations per second; ``None`` lets the driver
    substitute the service rate it observed.  ``burst`` groups that
    many arrivals at the same instant (bursty tenants, connection
    storms); groups are spaced so the long-run rate still holds.
    """

    kind: str = "poisson"
    rate: Optional[float] = None
    burst: int = DEFAULT_BURST

    def __post_init__(self) -> None:
        if self.kind not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.kind!r}; one of {ARRIVAL_KINDS}"
            )
        if self.rate is not None and not (
            math.isfinite(self.rate) and self.rate > 0
        ):
            raise ValueError(
                f"arrival rate must be finite and positive, got {self.rate!r}"
            )
        if self.burst < 1:
            raise ValueError("burst size must be >= 1")

    @property
    def is_open(self) -> bool:
        return self.kind != "closed"

    def describe(self) -> str:
        if self.kind == "closed":
            return "closed"
        rate = "auto" if self.rate is None else f"{self.rate:g}"
        if self.kind == "burst":
            return f"burst:{rate}x{self.burst}"
        return f"poisson:{rate}"


def parse_arrival(value) -> ArrivalSpec:
    """Parse an arrival spec from its CLI spelling.

    ``closed`` | ``poisson`` | ``poisson:RATE`` | ``burst`` |
    ``burst:RATE`` | ``burst:RATE,N``.  ``RATE`` may be ``auto``.
    Already-built specs pass through (programmatic callers).
    """
    if isinstance(value, ArrivalSpec):
        return value
    text = str(value).strip().lower()
    kind, _sep, args = text.partition(":")
    if kind not in ARRIVAL_KINDS:
        raise ValueError(
            f"unknown arrival kind {kind!r}; one of {ARRIVAL_KINDS}"
        )
    if kind == "closed":
        if args:
            raise ValueError("'closed' takes no arguments")
        return ArrivalSpec(kind="closed")
    rate: Optional[float] = None
    burst = DEFAULT_BURST
    if args:
        rate_text, _sep, burst_text = args.partition(",")
        if rate_text and rate_text != "auto":
            rate = float(rate_text)
        if burst_text:
            if kind != "burst":
                raise ValueError("only 'burst' arrivals take a burst size")
            burst = int(burst_text)
    return ArrivalSpec(kind=kind, rate=rate, burst=burst)


def arrival_offsets(
    spec: ArrivalSpec,
    rate: float,
    count: int,
    rng: random.Random,
) -> List[float]:
    """``count`` scheduled start offsets (seconds from t=0), sorted.

    ``rate`` is the effective arrival rate; it overrides nothing --
    callers pass ``spec.rate or calibrated_rate``.  Poisson draws
    exponential gaps; burst emits groups of ``spec.burst`` simultaneous
    arrivals spaced ``burst / rate`` apart (same long-run rate, maximal
    short-term pressure).
    """
    if spec.kind == "closed":
        raise ValueError("closed-loop runs have no arrival schedule")
    if not rate > 0:  # also rejects NaN
        raise ValueError("arrival rate must be positive")
    if count < 1:
        raise ValueError("need at least one arrival")
    offsets: List[float] = []
    t = 0.0
    if spec.kind == "poisson":
        for _ in range(count):
            t += rng.expovariate(rate)
            offsets.append(t)
    else:  # burst
        gap = spec.burst / rate
        while len(offsets) < count:
            take = min(spec.burst, count - len(offsets))
            offsets.extend([t] * take)
            t += gap
    return offsets


def arrival_offsets_window(
    spec: ArrivalSpec,
    rate: float,
    duration_s: float,
    rng: random.Random,
) -> List[float]:
    """Scheduled start offsets inside ``[0, duration_s)``, sorted.

    The duration-bounded sibling of :func:`arrival_offsets` for
    fixed-window simulations (the overload sweep): the number of
    arrivals is whatever the process produces in the window.
    """
    if spec.kind == "closed":
        raise ValueError("closed-loop runs have no arrival schedule")
    if not rate > 0:  # also rejects NaN
        raise ValueError("arrival rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    offsets: List[float] = []
    if spec.kind == "poisson":
        t = rng.expovariate(rate)
        while t < duration_s:
            offsets.append(t)
            t += rng.expovariate(rate)
    else:  # burst
        gap = spec.burst / rate
        t = gap
        while t < duration_s:
            offsets.extend([t] * spec.burst)
            t += gap
    return offsets


@dataclass
class OpenLoopResult:
    """Both latency views of one replayed run."""

    #: CO-free sojourn times, measured from each scheduled start
    histogram: Histogram = field(
        default_factory=lambda: Histogram("openloop.latency_s")
    )
    #: the per-operation service durations the replay was fed
    service_histogram: Histogram = field(
        default_factory=lambda: Histogram("openloop.service_s")
    )

    def percentile_ms(self, pct: float) -> float:
        return self.histogram.percentile(pct) * 1000.0


def replay_open_loop(
    service_s: Sequence[float],
    schedule: Sequence[float],
) -> OpenLoopResult:
    """Open-loop accounting over already-measured service durations.

    A single-server virtual queue: operation *i* begins service at
    ``max(scheduled_i, completion_{i-1})`` and its latency is
    ``completion_i - scheduled_i`` -- queueing delay plus service time,
    what a client that sent the request at its scheduled instant would
    observe.  That arithmetic needs only the per-operation service
    times (in execution order) and the arrival schedule, so a driver
    records its loop closed-loop and *replays* the durations against
    the schedule for the CO-free view, paying zero extra execution time.
    """
    if len(service_s) != len(schedule):
        raise ValueError(
            f"{len(service_s)} service durations vs "
            f"{len(schedule)} scheduled arrivals"
        )
    result = OpenLoopResult()
    free_at = 0.0
    for scheduled, duration in zip(schedule, service_s):
        start = scheduled if scheduled > free_at else free_at
        free_at = start + duration
        result.histogram.observe(free_at - scheduled)
        result.service_histogram.observe(duration)
    return result


def replay_closed_run(
    spec: ArrivalSpec,
    service_s: Sequence[float],
    span_s: float,
    rng: random.Random,
) -> OpenLoopResult:
    """The open-loop view of a closed run that has already happened.

    ``service_s`` are the run's per-operation service times in execution
    order and ``span_s`` the time the run took; the schedule is drawn
    from ``spec`` and ``rng``.  An ``auto`` rate offers the closed run's
    own rate, ``len(service_s) / span_s``.  Nothing runs again, so the
    caller's counts stay those of its closed run.
    """
    rate = spec.rate or (len(service_s) / span_s if span_s > 0 else 1.0)
    schedule = arrival_offsets(spec, rate, len(service_s), rng)
    return replay_open_loop(service_s, schedule)
