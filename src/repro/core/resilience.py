"""Client-side resilience: retries, backoff, circuit breaking, failover.

What a latency-critical client *observes* during a fault is dominated by
its own timeout/retry behaviour, not by the server's recovery pipeline.
This module is that client stack:

* :func:`retry_transaction` -- the minimal classification-driven retry
  loop the functional workloads use: replay a transaction body when the
  engine aborts it with a ``retryable`` error (lock conflict, write
  conflict), propagate everything else immediately.
* :class:`RetryPolicy` -- jittered exponential backoff with a per-call
  attempt cap.
* :class:`CircuitBreaker` -- closed / open / half-open per endpoint;
  opens after consecutive health failures, probes after a reset timeout,
  re-closes on probe success.
* :class:`ResilientSession` -- ties it together: endpoint preference
  order, per-endpoint breakers, per-request timeout budgets, and
  failover.  The retry state machine is one DES generator
  (:meth:`~ResilientSession.call_in`); :meth:`~ResilientSession.call`
  runs that same generator on the session's own clock, so tests and
  the availability evaluator exercise identical logic.

Which failures trip a breaker is deliberately narrower than which are
retryable: a lock conflict is retryable but says nothing about
endpoint health, while an unreachable node is both.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine.errors import (
    EngineError,
    NodeUnavailableError,
    OverloadError,
    RequestTimeout,
    SimulatedCrash,
)
from repro.obs import NULL_OBSERVER, Observer
from repro.qos.budget import RetryBudget
from repro.sim.events import VirtualClock

#: errors that indict the endpoint (breaker-relevant), not the request
HEALTH_ERRORS = (NodeUnavailableError, RequestTimeout, SimulatedCrash)


def is_retryable(error: BaseException) -> bool:
    """Classification hook: may the whole request be replayed?"""
    if isinstance(error, EngineError):
        return error.retryable
    return False


def counts_against_breaker(error: BaseException) -> bool:
    """Does this failure signal endpoint ill-health?"""
    return isinstance(error, HEALTH_ERRORS)


# ---------------------------------------------------------------------------
# transaction-level retry (engine workloads)
# ---------------------------------------------------------------------------

@dataclass
class TxnOutcome:
    """Result of a classification-driven transaction retry loop."""

    value: Any = None
    committed: bool = False
    aborts: int = 0


def retry_transaction(
    fn: Callable[[], Any], attempts: int = 3
) -> TxnOutcome:
    """Run ``fn``, replaying it on retryable engine aborts.

    Non-retryable errors (bad SQL, duplicate keys) propagate on the
    first occurrence -- replaying them would fail identically.  After
    ``attempts`` aborted tries the outcome reports ``committed=False``
    rather than raising, matching how benchmark drivers account aborted
    transactions without dying.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    outcome = TxnOutcome()
    while True:
        try:
            outcome.value = fn()
            outcome.committed = True
            return outcome
        except EngineError as error:
            if not error.retryable:
                raise
            outcome.aborts += 1
            if outcome.aborts >= attempts:
                return outcome


# ---------------------------------------------------------------------------
# backoff policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff.

    Attempt ``n`` (1-based) sleeps ``base * multiplier**(n-1)`` capped at
    ``max_backoff_s``, scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]``.  Jitter decorrelates retry storms from
    many clients hitting the same fault.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    multiplier: float = 2.0
    max_backoff_s: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0 or self.max_backoff_s < self.base_backoff_s:
            raise ValueError("need 0 <= base_backoff_s <= max_backoff_s")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retrying after the ``attempt``-th failure."""
        raw = min(
            self.max_backoff_s,
            self.base_backoff_s * self.multiplier ** max(0, attempt - 1),
        )
        if self.jitter == 0.0:
            return raw
        return raw * (1.0 - self.jitter + rng.random() * 2.0 * self.jitter)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------

class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: consecutive health failures that open a closed breaker
FAILURE_THRESHOLD = 3


class CircuitBreaker:
    """Per-endpoint circuit breaker with a half-open probe state.

    Time is always passed in by the caller, so the breaker works under
    both wall-clock and DES virtual time.  Half-open admits one probe and
    its verdict decides: unbounded probing let every queued retry flood
    through the instant the breaker half-opened, re-tripping it and
    restarting the reset clock under sustained faults -- the retry storm
    the breaker exists to prevent.
    """

    def __init__(
        self,
        reset_timeout_s: float = 5.0,
        name: str = "",
        observer: Optional[Observer] = None,
    ):
        if reset_timeout_s <= 0:
            raise ValueError("reset timeout must be positive")
        self.name = name
        self.obs = observer or NULL_OBSERVER
        self.reset_timeout_s = reset_timeout_s
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0
        self.times_reclosed = 0

    def allow(self, now: float) -> bool:
        """May a request be sent to this endpoint at ``now``?"""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN and now - self.opened_at >= self.reset_timeout_s:
            self.state = BreakerState.HALF_OPEN
            return True  # the probe; HALF_OPEN admits nothing else until its verdict
        return False

    def time_until_probe(self, now: float) -> float:
        """Seconds until the breaker would admit a request (0 if it would now)."""
        if self.state is BreakerState.OPEN:
            return max(0.0, self.opened_at + self.reset_timeout_s - now)
        return 0.0

    def record_success(self, now: float) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self.state = BreakerState.CLOSED
            self.opened_at = None
            self.times_reclosed += 1
            if self.obs.enabled:
                self.obs.count("client.breaker.close")
                self.obs.event(
                    "breaker.close", "client", ts=now, track="client",
                    attrs={"endpoint": self.name},
                )

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        self.consecutive_failures += 1
        if self.state is BreakerState.CLOSED and (
            self.consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._open(now)

    def _open(self, now: float) -> None:
        self.state = BreakerState.OPEN
        self.opened_at = now
        self.times_opened += 1
        if self.obs.enabled:
            self.obs.count("client.breaker.open")
            self.obs.event(
                "breaker.open", "client", ts=now, track="client",
                attrs={"endpoint": self.name},
            )


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

@dataclass
class AttemptResult:
    """What one endpoint attempt produced (returned by attempt functions)."""

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    latency_s: float = 0.0


@dataclass
class CallOutcome:
    """End-to-end result of one resilient call."""

    ok: bool
    value: Any = None
    error: Optional[BaseException] = None
    endpoint: Optional[str] = None
    attempts: int = 0
    breaker_rejections: int = 0
    elapsed_s: float = 0.0
    #: endpoints tried, in order (observability)
    path: List[str] = field(default_factory=list)


def _run_attempt(attempt_fn: Callable[[str], Any], endpoint: str) -> AttemptResult:
    """Invoke one attempt, normalising returns and exceptions."""
    try:
        result = attempt_fn(endpoint)
    except EngineError as error:
        return AttemptResult(
            ok=False, error=error, latency_s=getattr(error, "latency_s", 0.0)
        )
    if isinstance(result, AttemptResult):
        return result
    return AttemptResult(ok=True, value=result)


class _InlineEnv:
    """The two members of a DES environment that ``call_in`` reads, over
    a session's own clock: a timeout has passed once it is asked for."""

    def __init__(
        self,
        clock: Callable[[], float],
        advance: Optional[Callable[[float], None]],
    ):
        self._clock = clock
        self._advance = advance

    @property
    def now(self) -> float:
        return self._clock()

    def timeout(self, delay_s: float) -> None:
        if delay_s > 0 and self._advance is not None:
            self._advance(delay_s)


class ResilientSession:
    """Failover-aware request executor over a set of named endpoints.

    ``endpoints`` is a preference order (e.g. ``["replica:0",
    "replica:1", "primary"]`` for reads).  Each call walks the retry
    state machine: pick the first endpoint whose breaker admits traffic,
    attempt, classify the failure, back off, fail over.  A DES call's
    ``timeout_budget_s`` bounds total elapsed time (attempt latencies
    plus backoffs); when the next backoff cannot fit, the call fails
    with the last error rather than overrunning its budget.
    """

    def __init__(
        self,
        endpoints: Sequence[str],
        policy: Optional[RetryPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        rng: Optional[random.Random] = None,
        breaker_reset_s: float = 5.0,
        observer: Optional[Observer] = None,
        advance: Optional[Callable[[float], None]] = None,
    ):
        if not endpoints:
            raise ValueError("need at least one endpoint")
        self.endpoints = list(endpoints)
        self.policy = policy or RetryPolicy()
        self.obs = observer or NULL_OBSERVER
        if clock is None:
            clock = VirtualClock()
            advance = clock.advance
        #: the clock ``call`` runs on.  With an external ``clock``,
        #: ``advance(delta_s)`` lets it push a shared virtual clock
        #: forward on backoffs and attempt latencies (the HA evaluator
        #: shares one clock between session and failure detector this
        #: way); without one, time stands still between attempts.
        self._inline = _InlineEnv(clock, advance)
        self._rng = rng or random.Random(0)
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker(breaker_reset_s, name=name, observer=self.obs)
            for name in self.endpoints
        }
        #: token-bucket retry budget (see :mod:`repro.qos.budget`): every
        #: session gets one so a fleet of clients cannot amplify a server
        #: brownout into a retry storm.  The reserve covers one call's
        #: full retry schedule so a quiet session is never throttled;
        #: sustained retry traffic still drains the bucket and gets
        #: capped at the deposit ratio.
        self.retry_budget = RetryBudget(
            min_tokens=float(self.policy.max_attempts),
            max_tokens=max(10.0, 2.0 * self.policy.max_attempts),
        )
        self.calls = 0
        self.failures = 0
        self.budget_denials = 0

    # -- bookkeeping ----------------------------------------------------------

    def breaker(self, endpoint: str) -> CircuitBreaker:
        return self.breakers[endpoint]

    def breaker_opens(self) -> int:
        return sum(breaker.times_opened for breaker in self.breakers.values())

    def breaker_recloses(self) -> int:
        return sum(breaker.times_reclosed for breaker in self.breakers.values())

    def _pick(self, now: float) -> Optional[str]:
        for name in self.endpoints:
            if self.breakers[name].allow(now):
                return name
        return None

    # -- the retry state machine ----------------------------------------------

    def call(self, attempt_fn: Callable[[str], Any]) -> CallOutcome:
        """Run :meth:`call_in` on the session's own clock, no real sleeping.

        ``attempt_fn(endpoint)`` either returns a value, returns an
        :class:`AttemptResult` (to model latency), or raises an
        :class:`~repro.engine.errors.EngineError`.
        """
        process = self.call_in(self._inline, attempt_fn)
        while True:
            try:
                next(process)
            except StopIteration as stop:
                return stop.value

    def call_in(
        self,
        env,
        attempt_fn: Callable[[str], Any],
        timeout_budget_s: Optional[float] = None,
    ):
        """The retry state machine, as a generator for ``env.process``.

        Sleeps and attempt latencies advance *virtual* time, so chaos
        windows open and close underneath the retries exactly as they
        would around a real client.  The process value is the
        :class:`CallOutcome`.
        """
        self.calls += 1
        started = now = env.now
        outcome = CallOutcome(ok=False)
        self.retry_budget.record_request()
        while outcome.attempts < self.policy.max_attempts:
            endpoint = self._pick(now)
            if endpoint is None:
                # Every breaker is open: wait for the earliest probe slot.
                delay = max(1e-6, min(
                    breaker.time_until_probe(now)
                    for breaker in self.breakers.values()
                ))
                outcome.breaker_rejections += 1
                if outcome.breaker_rejections > 2 * self.policy.max_attempts:
                    break
            else:
                outcome.attempts += 1
                outcome.path.append(endpoint)
                result = _run_attempt(attempt_fn, endpoint)
                if result.latency_s > 0:
                    yield env.timeout(result.latency_s)
                now = env.now
                breaker = self.breakers[endpoint]
                if result.ok:
                    breaker.record_success(now)
                    outcome.ok = True
                    outcome.value = result.value
                    outcome.endpoint = endpoint
                    break
                outcome.error = result.error
                if result.error is not None and counts_against_breaker(result.error):
                    breaker.record_failure(now)
                if result.error is not None and not is_retryable(result.error):
                    break
                if outcome.attempts >= self.policy.max_attempts:
                    break
                if not self.retry_budget.try_spend():
                    # Out of retry tokens: give up rather than amplify the
                    # overload.  The breaker consumes the same signal --
                    # sustained budget exhaustion is endpoint pressure, and
                    # backing the breaker off sheds this client entirely.
                    self.budget_denials += 1
                    breaker.record_failure(now)
                    if self.obs.enabled:
                        self.obs.count("client.budget_exhausted")
                    break
                delay = self.policy.backoff_s(outcome.attempts, self._rng)
                if isinstance(result.error, OverloadError):
                    # honor the server's backoff hint: returning sooner than
                    # the queue can drain just gets this request shed again
                    delay = max(delay, result.error.retry_after_s)
            if timeout_budget_s is not None and (
                (now - started) + delay > timeout_budget_s
            ):
                break
            if self.obs.enabled:
                self.obs.count("client.backoff")
                self.obs.observe("client.backoff_s", delay)
            yield env.timeout(delay)
            now = env.now
        outcome.elapsed_s = now - started
        if not outcome.ok:
            self.failures += 1
        self._observe_outcome(started, now, outcome)
        return outcome

    def _observe_outcome(
        self, started: float, ended: float, outcome: CallOutcome
    ) -> None:
        if not self.obs.enabled:
            return
        self.obs.count("client.calls")
        if not outcome.ok:
            self.obs.count("client.failures")
        if outcome.attempts > 1:
            self.obs.count("client.retries", outcome.attempts - 1)
        self.obs.observe("client.call_s", ended - started)
        self.obs.complete(
            "call", "client", started, ended, track="client",
            attrs={
                "endpoint": outcome.endpoint,
                "ok": outcome.ok,
                "attempts": outcome.attempts,
            },
        )
