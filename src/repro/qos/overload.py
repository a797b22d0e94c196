"""The ``--eval overload`` evaluator: goodput past the saturation knee.

Sweeps offered load from below saturation to well past it (multiples of
the server's capacity) and measures what arrives *on time* -- goodput is
completions within the request deadline, not raw completions.  Two
configurations of the same simulation:

* **qos on** -- the full :mod:`repro.qos` stack: an
  :class:`~repro.qos.admission.AdmissionController` (bounded queue,
  AIMD concurrency limit) fronts the server, deadlines propagate (a
  queued request whose deadline passed is dropped for free), shed
  requests retry only within a shared :class:`~repro.qos.budget.
  RetryBudget`, and reads shed at a saturated primary fall back to a
  read replica (brownout mode).
* **qos off** -- the pre-PR-4 behaviour: an unbounded FIFO queue, no
  shedding, and deadline-blind clients that retry on timeout without a
  budget.  Past the knee the queue grows without bound, every completion
  arrives after its deadline, and retries triple the arrival rate --
  goodput collapses instead of flattening.

The simulation is a deterministic event-heap model (seeded exponential
arrivals, processor-sharing service) in *normalised* units: the server's
capacity is ``capacity_rps`` regardless of architecture, so one sweep
costs milliseconds and the score isolates the qos layer rather than the
SUT's absolute throughput.  Architecture still enters through the base
service time (network RTT) and the replica's capacity share.

**D-Score** (graceful degradation): ``1 -`` the mean relative shortfall
between the ideal goodput curve ``min(offered, peak)`` and the observed
curve over the points past the knee.  1.0 means perfectly flat goodput
under any overload; 0 means total collapse.
"""

from __future__ import annotations

import heapq
import math
import random
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud.architectures import Architecture
from repro.core.resilience import RetryPolicy
from repro.engine.errors import OverloadError
from repro.obs import NULL_OBSERVER, Observer
from repro.qos.admission import AdmissionController, AdmissionPolicy
from repro.qos.budget import RetryBudget
from repro.qos.deadline import Deadline
from repro.sim.events import VirtualClock

#: cores of the primary; the read replica has half as many
WORKERS = 16
#: share of requests that are reads (and may fall back to the replica)
READ_FRACTION = 0.8
#: the replica's capacity as a share of the primary's
REPLICA_RATIO = 0.5

__all__ = ["OverloadEvaluator", "OverloadPoint", "OverloadResult", "d_score"]


@dataclass
class OverloadPoint:
    """One offered-load point of the sweep."""

    multiple: float            # offered load as a multiple of capacity
    offered_rps: float         # logical request arrival rate
    goodput_rps: float         # completions within deadline, per second
    requests: int              # logical requests offered
    succeeded: int
    shed: int                  # rejected by admission control
    expired: int               # dropped in queue past their deadline
    timeouts: int              # completions that missed the deadline
    p99_latency_s: float       # of successful logical requests
    peak_queue_depth: int


@dataclass
class OverloadResult:
    """A full sweep for one architecture."""

    arch_name: str
    qos: bool
    capacity_rps: float
    deadline_s: float
    points: List[OverloadPoint] = field(default_factory=list)

    @property
    def peak_goodput_rps(self) -> float:
        return max((point.goodput_rps for point in self.points), default=0.0)

    @property
    def dscore(self) -> float:
        return d_score(
            [(point.offered_rps, point.goodput_rps) for point in self.points],
            self.capacity_rps,
        )

    def point_at(self, multiple: float) -> Optional[OverloadPoint]:
        for point in self.points:
            if abs(point.multiple - multiple) < 1e-9:
                return point
        return None


def d_score(curve: List[Tuple[float, float]], capacity_rps: float) -> float:
    """Graceful-degradation score of a goodput-vs-offered-load curve.

    ``1 - mean(max(0, ideal - observed) / ideal)`` over the points past
    the knee, where ``ideal = min(offered, capacity)``.  Points below
    the knee do not count -- any system serves those; the score measures
    behaviour *past* saturation.  Clamped to [0, 1]; 1.0 when the sweep
    never crosses the knee.
    """
    if capacity_rps <= 0:
        return 0.0
    deficits = []
    for offered, observed in curve:
        if offered <= capacity_rps:
            continue
        ideal = capacity_rps
        deficits.append(max(0.0, ideal - observed) / ideal)
    if not deficits:
        return 1.0
    return max(0.0, min(1.0, 1.0 - sum(deficits) / len(deficits)))


# event kinds, ordered so completions at time t precede arrivals at t
_COMPLETE, _ARRIVE, _RETRY = 0, 1, 2


@dataclass
class _Request:
    """One logical client request (attempts share its deadline)."""

    arrival_s: float
    is_read: bool
    deadline: Deadline
    attempts: int = 0
    done: bool = False


class _Server:
    """Processor-sharing server: ``workers`` cores, capacity ``rps``.

    An attempt admitted while ``inflight`` requests run is served in
    ``base_service_s * max(1, inflight / workers)`` -- service degrades
    smoothly once concurrency exceeds the core count, which is the
    latency signal the AIMD limit feeds on.
    """

    def __init__(self, workers: int, capacity_rps: float, extra_latency_s: float):
        self.workers = workers
        self.base_service_s = workers / capacity_rps
        self.extra_latency_s = extra_latency_s
        self.inflight = 0

    def service_time_s(self, rng: random.Random) -> float:
        load = max(1.0, (self.inflight + 1) / self.workers)
        jitter = 0.8 + 0.4 * rng.random()
        return self.base_service_s * load * jitter + self.extra_latency_s


class OverloadEvaluator:
    """Sweeps one architecture past saturation, with or without qos."""

    def __init__(
        self,
        arch: Architecture,
        qos: bool = True,
        capacity_rps: float = 200.0,
        deadline_s: float = 0.6,
        duration_s: float = 6.0,
        seed: int = 42,
        observer: Optional[Observer] = None,
        arrival: str = "poisson",
    ):
        from repro.perf.openloop import parse_arrival

        if capacity_rps <= 0 or duration_s <= 0 or deadline_s <= 0:
            raise ValueError("capacity, duration and deadline must be positive")
        self.arrival = parse_arrival(arrival)
        if not self.arrival.is_open:
            raise ValueError(
                "the overload sweep is open-loop by definition; "
                "use a poisson or burst arrival spec"
            )
        self.arch = arch
        self.qos = qos
        self.capacity_rps = capacity_rps
        self.deadline_s = deadline_s
        self.duration_s = duration_s
        self.seed = seed
        self.obs = observer or NULL_OBSERVER
        self.policy = AdmissionPolicy(
            max_queue=32,
            initial_limit=float(WORKERS),
            max_limit=float(WORKERS * 16),
            latency_threshold=2.0,
        )
        self.retry_policy = RetryPolicy(
            max_attempts=3, base_backoff_s=deadline_s / 4, jitter=0.0
        )
        #: extra per-request latency from the SUT's network path
        self._extra_latency_s = 2.0 * arch.network.latency_s

    # -- the sweep ------------------------------------------------------------

    def run(self, multiples: Optional[List[float]] = None) -> OverloadResult:
        multiples = multiples or [0.5, 1.0, 1.5, 2.0, 3.0]
        result = OverloadResult(
            arch_name=self.arch.name,
            qos=self.qos,
            capacity_rps=self.capacity_rps,
            deadline_s=self.deadline_s,
        )
        for index, multiple in enumerate(multiples):
            point = self._run_point(multiple, seed_offset=index)
            result.points.append(point)
            if self.obs.enabled:
                self.obs.count("qos.sweep.points")
                self.obs.gauge("qos.sweep.goodput_rps", point.goodput_rps)
        if self.obs.enabled:
            self.obs.event(
                "overload.sweep", "qos", track="qos",
                attrs={
                    "arch": self.arch.name, "qos": self.qos,
                    "dscore": round(result.dscore, 4),
                },
            )
        return result

    # -- one offered-load point ------------------------------------------------

    def _run_point(self, multiple: float, seed_offset: int) -> OverloadPoint:
        # integer-only seed material: hash() of strings is randomised
        # per process, which would make the sweep non-reproducible
        rng = random.Random(
            zlib.crc32(self.arch.name.encode()) * 7919
            + self.seed * 104_729
            + seed_offset * 31
            + (1 if self.qos else 0)
        )
        clock = VirtualClock()
        primary = _Server(WORKERS, self.capacity_rps, self._extra_latency_s)
        replica = (
            _Server(
                max(1, WORKERS // 2),
                self.capacity_rps * REPLICA_RATIO,
                self._extra_latency_s,
            )
            if self.qos
            else None
        )
        controller = (
            AdmissionController(
                self.policy, name=f"overload:{self.arch.name}", observer=self.obs
            )
            if self.qos
            else None
        )
        replica_controller = (
            AdmissionController(
                self.policy, name=f"overload:{self.arch.name}:ro", observer=self.obs
            )
            if replica is not None
            else None
        )
        budget = RetryBudget(deposit_ratio=0.1, min_tokens=3.0, max_tokens=20.0)
        naive_queue: List[Tuple[float, _Request]] = []  # qos-off FIFO
        rate = multiple * self.capacity_rps

        events: List[Tuple[float, int, int, object]] = []
        seq = 0

        def push(at_s: float, kind: int, payload: object) -> None:
            nonlocal seq
            heapq.heappush(events, (at_s, kind, seq, payload))
            seq += 1

        # pre-seed the arrival stream for the whole window through the
        # shared open-loop generator (the spec's rate, when set, is a
        # multiple of capacity like the sweep's own points)
        from repro.perf.openloop import arrival_offsets_window

        arrival_rate = (
            self.arrival.rate * self.capacity_rps
            if self.arrival.rate is not None
            else rate
        )
        requests: List[_Request] = []
        for t in arrival_offsets_window(self.arrival, arrival_rate,
                                        self.duration_s, rng):
            request = _Request(
                arrival_s=t,
                is_read=rng.random() < READ_FRACTION,
                deadline=Deadline(t + self.deadline_s, clock),
            )
            requests.append(request)
            push(t, _ARRIVE, request)

        succeeded = shed = expired = timeouts = 0
        latencies: List[float] = []
        peak_naive_queue = 0

        def start_service(
            server: _Server, request: _Request, now: float, via
        ) -> None:
            server.inflight += 1
            push(now + server.service_time_s(rng), _COMPLETE,
                 (server, request, now, via))

        def pump(now: float) -> None:
            """Admit whatever the limits allow right now."""
            if controller is not None:
                while True:
                    ticket = controller.next_ready(now)
                    if ticket is None:
                        break
                    start_service(primary, ticket.item, now, controller)
                if replica_controller is not None:
                    while True:
                        ticket = replica_controller.next_ready(now)
                        if ticket is None:
                            break
                        start_service(replica, ticket.item, now, replica_controller)
            else:
                while naive_queue and primary.inflight < primary.workers:
                    _enq_at, request = naive_queue.pop(0)
                    start_service(primary, request, now, None)

        def offer(request: _Request, now: float) -> None:
            nonlocal shed
            if controller is None:
                naive_queue.append((now, request))
                # deadline-blind client: gives up waiting after one
                # deadline's worth of silence and resends, leaving the
                # stale copy in the queue -- the classic retry storm
                if request.attempts < self.retry_policy.max_attempts:
                    push(now + self.deadline_s, _RETRY, request)
                return
            try:
                controller.enqueue(request, now, priority=1,
                                   deadline=request.deadline)
            except OverloadError as error:
                # brownout: reads shed at the primary fall back to the
                # read replica before the client sees the rejection
                if (
                    request.is_read
                    and replica_controller is not None
                ):
                    try:
                        replica_controller.enqueue(
                            request, now, priority=1, deadline=request.deadline
                        )
                        return
                    except OverloadError:
                        pass
                shed += 1
                maybe_retry(request, now, error.retry_after_s)

        def maybe_retry(request: _Request, now: float, hint_s: float) -> None:
            if request.done or request.attempts >= self.retry_policy.max_attempts:
                return
            if self.qos and not budget.try_spend():
                return
            delay = max(
                self.retry_policy.backoff_s(request.attempts, rng), hint_s
            )
            at = now + delay
            if request.deadline.expired(at):
                return  # no point replaying past the deadline
            push(at, _RETRY, request)

        while events:
            now, kind, _seq, payload = heapq.heappop(events)
            clock.now = now
            if kind == _ARRIVE or kind == _RETRY:
                request = payload  # type: ignore[assignment]
                if request.done:
                    continue
                request.attempts += 1
                offer(request, now)
                pump(now)
                if controller is None:
                    peak_naive_queue = max(peak_naive_queue, len(naive_queue))
            else:
                server, request, started, via = payload  # type: ignore[misc]
                server.inflight -= 1
                latency = now - started
                if via is not None:
                    via.release(now, latency, ok=True)
                if not request.done:
                    if request.deadline.expired(now):
                        timeouts += 1
                        maybe_retry(request, now, 0.0)
                    else:
                        request.done = True
                        succeeded += 1
                        latencies.append(now - request.arrival_s)
                pump(now)

        if controller is not None:
            expired = controller.expired
            if replica_controller is not None:
                expired += replica_controller.expired
            peak_queue = controller.peak_queue_depth
        else:
            peak_queue = peak_naive_queue

        latencies.sort()
        p99 = (
            latencies[min(len(latencies) - 1, math.ceil(0.99 * len(latencies)) - 1)]
            if latencies
            else float("inf")
        )
        return OverloadPoint(
            multiple=multiple,
            offered_rps=rate,
            goodput_rps=succeeded / self.duration_s,
            requests=len(requests),
            succeeded=succeeded,
            shed=shed,
            expired=expired,
            timeouts=timeouts,
            p99_latency_s=p99,
            peak_queue_depth=peak_queue,
        )

