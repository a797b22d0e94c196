"""Admission control: bounded priority queues + adaptive concurrency.

The :class:`AdmissionController` sits in front of a server (the storage
engine, or a simulated cloud node) and decides, per request, one of
three things: run it now, queue it, or shed it with a retryable
:class:`~repro.engine.errors.OverloadError`.

Two cooperating mechanisms:

* **Bounded priority queues** -- requests that cannot run immediately
  wait in per-priority FIFO queues with a total depth cap.  A full queue
  sheds the *lowest*-priority newest arrival instead of growing without
  bound (unbounded queues are how goodput collapses: by the time a
  request reaches the server its deadline has long passed, so the server
  does 100% work for 0% goodput).
* **Adaptive concurrency limit (AIMD on latency)** -- the in-flight
  limit climbs additively while observed latency stays near the moving
  baseline and backs off multiplicatively when latency exceeds
  ``latency_threshold x baseline`` (a gradient-style congestion signal,
  in the TCP-Vegas/Netflix-concurrency-limits family).  The controller
  therefore *finds* the server's capacity instead of being configured
  with it.

Expired entries are dropped at dequeue time (deadline propagation: a
queued request whose deadline passed is cancelled for free, without ever
occupying the server).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, List, Optional

from repro.engine.errors import OverloadError
from repro.obs import NULL_OBSERVER, Observer

__all__ = ["AdmissionPolicy", "AdmissionController", "Ticket"]

#: number of priority classes (0 = highest)
PRIORITIES = 3
#: additive increase per ~limit completions under good latency
INCREASE = 1.0
#: multiplicative decrease factor on a congestion signal
DECREASE = 0.7
#: EWMA weight of the latency baseline
BASELINE_ALPHA = 0.05
#: minimum seconds between multiplicative decreases (one per RTT-ish)
DECREASE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class AdmissionPolicy:
    """Tuning knobs of one admission controller."""

    #: total queued requests across all priorities before shedding
    max_queue: int = 64
    initial_limit: float = 8.0
    min_limit: float = 1.0
    max_limit: float = 256.0
    #: congestion when latency > threshold x moving baseline
    latency_threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.max_queue < 0:
            raise ValueError("need max_queue >= 0")
        if not 0 < self.min_limit <= self.initial_limit <= self.max_limit:
            raise ValueError("need 0 < min_limit <= initial_limit <= max_limit")
        if self.latency_threshold <= 1.0:
            raise ValueError("latency_threshold must exceed 1.0")


@dataclass
class Ticket:
    """One admitted or queued request."""

    item: Any
    priority: int
    enqueued_at_s: float
    deadline: Any = None  # duck-typed: anything with .expired(now)


class AdmissionController:
    """Bounded queue + AIMD concurrency limit for one server."""

    def __init__(
        self,
        policy: Optional[AdmissionPolicy] = None,
        name: str = "qos",
        observer: Optional[Observer] = None,
    ):
        self.policy = policy or AdmissionPolicy()
        self.name = name
        self.obs = observer or NULL_OBSERVER
        # Pre-resolved counters: admit/release run per request.
        if self.obs.enabled:
            metrics = self.obs.metrics
            self._c = {
                event: metrics.counter(f"qos.{event}")
                for event in ("admitted", "queued", "shed", "expired", "completed")
            }
            self._g_limit = metrics.gauge("qos.limit")
            self._g_depth = metrics.gauge("qos.queue_depth")
            self._g_inflight = metrics.gauge("qos.inflight")
            self._g_limit.set(self.policy.initial_limit)
            # One depth gauge per priority class: the aggregate depth
            # hides which class the backlog lives in (whether p0 keeps
            # its queue empty while p2 absorbs the overload).
            self._g_prio = [
                metrics.gauge(f"qos.queue_depth.p{priority}")
                for priority in range(PRIORITIES)
            ]
        else:
            self._c = None
            self._g_limit = self._g_depth = self._g_inflight = None
            self._g_prio = None
        self.limit = float(self.policy.initial_limit)
        self.inflight = 0
        self._queues: List[Deque[Ticket]] = [
            deque() for _ in range(PRIORITIES)
        ]
        self.queue_depth = 0
        self._baseline: Optional[float] = None
        self._min_latency: Optional[float] = None
        self._last_decrease_s = float("-inf")
        # cumulative accounting (cheap, always on -- evaluators read these)
        self.admitted = 0
        self.shed = 0
        self.expired = 0
        self.completed = 0
        self.congestion_signals = 0
        self.peak_queue_depth = 0
        self.peak_inflight = 0

    # -- queries -------------------------------------------------------------

    def has_capacity(self) -> bool:
        return self.inflight < int(self.limit)

    # -- gate mode: admit now or shed (no queueing) ---------------------------

    def try_acquire(self, now: float) -> None:
        """Admit one request immediately or raise :class:`OverloadError`.

        Synchronous callers (the engine gate) have no scheduler to park
        a queued request on, so the only decisions are run or shed; the
        request sheds as priority 1, the default class.
        """
        if not self.has_capacity():
            self._shed(now, 1, reason="limit")
        self._admit(now)

    # -- queue mode: enqueue / dequeue driven by a scheduler loop -------------

    def enqueue(
        self,
        item: Any,
        now: float,
        priority: int = 1,
        deadline: Any = None,
    ) -> Ticket:
        """Queue a request; sheds (raises) when the queue is full."""
        priority = min(max(priority, 0), PRIORITIES - 1)
        if self.queue_depth >= self.policy.max_queue:
            self._shed(now, priority, reason="queue_full")
        ticket = Ticket(item, priority, now, deadline)
        self._queues[priority].append(ticket)
        self.queue_depth += 1
        if self.queue_depth > self.peak_queue_depth:
            self.peak_queue_depth = self.queue_depth
        if self._c is not None:
            self._c["queued"].value += 1.0
            self._g_depth.set(float(self.queue_depth))
            self._g_prio[priority].set(float(len(self._queues[priority])))
        return ticket

    def next_ready(self, now: float) -> Optional[Ticket]:
        """Pop the next runnable request, if the limit allows one.

        Expired entries encountered on the way are dropped and counted
        (``expired``) -- this is where deadline propagation cancels
        queued work for free.  Returns ``None`` when nothing can run.
        """
        while self.has_capacity():
            ticket = self._pop(now)
            if ticket is None:
                return None
            if ticket.deadline is not None and ticket.deadline.expired(now):
                self.expired += 1
                if self._c is not None:
                    self._c["expired"].value += 1.0
                continue
            self._admit(now)
            if self.obs.enabled and now > ticket.enqueued_at_s:
                self.obs.complete(
                    "admission.wait", "qos", ticket.enqueued_at_s, now,
                    track="qos", attrs={"priority": ticket.priority},
                )
            return ticket
        return None

    def _pop(self, now: float) -> Optional[Ticket]:
        for priority, queue in enumerate(self._queues):
            if queue:
                self.queue_depth -= 1
                ticket = queue.popleft()
                if self._g_depth is not None:
                    self._g_depth.set(float(self.queue_depth))
                    self._g_prio[priority].set(float(len(queue)))
                return ticket
        return None

    # -- completion & the AIMD limit ------------------------------------------

    def release(self, now: float, latency_s: float, ok: bool = True) -> None:
        """One in-flight request finished; feed its latency to the limit."""
        if self.inflight > 0:
            self.inflight -= 1
        self.completed += 1
        if self._c is not None:
            self._c["completed"].value += 1.0
            self._g_inflight.set(float(self.inflight))
        if latency_s >= 0 and ok:
            self._on_latency(now, latency_s)
        elif not ok:
            # failures are a congestion signal too (timeouts, aborts)
            self._decrease(now)

    def _on_latency(self, now: float, latency_s: float) -> None:
        if self._min_latency is None or latency_s < self._min_latency:
            self._min_latency = latency_s
        if self._baseline is None:
            self._baseline = latency_s
            return
        if latency_s > self.policy.latency_threshold * self._baseline:
            self._decrease(now)
            return
        # Good sample: drift the baseline and grow the limit additively.
        # The drift is anchored to the best latency ever seen (the
        # Vegas/BBR trick): a plain EWMA baseline chases its own
        # congestion -- every slightly-slow "good" sample raises the
        # baseline, which raises the congestion threshold, which admits
        # more load, which slows the next sample... until the limit
        # rails at max_limit with the latency it was meant to protect.
        self._baseline += BASELINE_ALPHA * (latency_s - self._baseline)
        self._baseline = min(self._baseline, 1.5 * self._min_latency)
        self.limit = min(
            self.policy.max_limit,
            self.limit + INCREASE / max(1.0, self.limit),
        )
        if self._g_limit is not None:
            self._g_limit.set(self.limit)

    def _decrease(self, now: float) -> None:
        self.congestion_signals += 1
        if now - self._last_decrease_s < DECREASE_INTERVAL_S:
            return
        self._last_decrease_s = now
        self.limit = max(self.policy.min_limit, self.limit * DECREASE)
        if self._g_limit is not None:
            self._g_limit.set(self.limit)

    # -- internals -------------------------------------------------------------

    def _admit(self, now: float) -> None:
        self.inflight += 1
        self.admitted += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        if self._c is not None:
            self._c["admitted"].value += 1.0
            self._g_inflight.set(float(self.inflight))

    def _shed(self, now: float, priority: int, reason: str) -> None:
        self.shed += 1
        if self._c is not None:
            self._c["shed"].value += 1.0
        # Hint the client to stay away for roughly one queue drain.
        drain_s = (
            self._baseline * max(1, self.queue_depth) / max(1.0, self.limit)
            if self._baseline
            else 0.0
        )
        raise OverloadError(
            f"{self.name}: shed priority-{priority} request ({reason}; "
            f"inflight {self.inflight}/{self.limit:.1f}, "
            f"queue {self.queue_depth}/{self.policy.max_queue})",
            retry_after_s=drain_s,
        )
