"""Client resilience stack: retry classification, backoff, circuit
breaker state machine, and the ResilientSession failover driver."""

import random

import pytest

from repro.core.resilience import (
    FAILURE_THRESHOLD,
    AttemptResult,
    BreakerState,
    CircuitBreaker,
    ResilientSession,
    RetryPolicy,
    counts_against_breaker,
    is_retryable,
    retry_transaction,
)
from repro.engine.errors import (
    DuplicateKeyError,
    LockTimeoutError,
    NodeUnavailableError,
    RequestTimeout,
    SqlError,
    WriteConflictError,
)
from repro.obs import Observer
from repro.qos.budget import RetryBudget
from repro.sim.events import Environment, VirtualClock


# -- classification ------------------------------------------------------------


def test_retryable_classification_follows_the_flag():
    assert is_retryable(LockTimeoutError("waited too long"))
    assert is_retryable(WriteConflictError("lost the row"))
    assert is_retryable(NodeUnavailableError("gone"))
    assert not is_retryable(DuplicateKeyError("pk"))
    assert not is_retryable(SqlError("parse"))
    assert not is_retryable(ValueError("not an engine error"))


def test_breaker_counting_is_narrower_than_retryable():
    # a write conflict is retryable but says nothing about endpoint health
    assert is_retryable(WriteConflictError("lost the row"))
    assert not counts_against_breaker(WriteConflictError("lost the row"))
    assert counts_against_breaker(NodeUnavailableError("gone"))
    assert counts_against_breaker(RequestTimeout("late"))


# -- retry_transaction ---------------------------------------------------------


def test_retry_transaction_replays_retryable_aborts():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise LockTimeoutError("contended")
        return "done"

    outcome = retry_transaction(flaky, attempts=5)
    assert outcome.committed and outcome.value == "done"
    assert outcome.aborts == 2


def test_retry_transaction_propagates_non_retryable_immediately():
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise DuplicateKeyError("pk")

    with pytest.raises(DuplicateKeyError):
        retry_transaction(broken, attempts=5)
    assert calls["n"] == 1


def test_retry_transaction_gives_up_without_raising():
    outcome = retry_transaction(
        lambda: (_ for _ in ()).throw(WriteConflictError("lost the row")), attempts=3
    )
    assert not outcome.committed
    assert outcome.aborts == 3


def test_retry_transaction_validates_attempts():
    with pytest.raises(ValueError):
        retry_transaction(lambda: None, attempts=0)


# -- RetryPolicy ---------------------------------------------------------------


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(base_backoff_s=0.1, multiplier=2.0,
                         max_backoff_s=0.5, jitter=0.0)
    rng = random.Random(0)
    delays = [policy.backoff_s(n, rng) for n in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_backoff_jitter_stays_in_band():
    policy = RetryPolicy(base_backoff_s=0.1, jitter=0.5)
    rng = random.Random(7)
    for attempt in range(1, 5):
        raw = min(policy.max_backoff_s,
                  policy.base_backoff_s * policy.multiplier ** (attempt - 1))
        for _ in range(50):
            delay = policy.backoff_s(attempt, rng)
            assert raw * 0.5 <= delay <= raw * 1.5


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_s=1.0, max_backoff_s=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# -- CircuitBreaker ------------------------------------------------------------


def opened(reset_timeout_s):
    """A breaker tripped open at t=0 by FAILURE_THRESHOLD failures."""
    breaker = CircuitBreaker(reset_timeout_s=reset_timeout_s)
    for _ in range(FAILURE_THRESHOLD):
        breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    return breaker


def test_breaker_opens_at_threshold():
    breaker = CircuitBreaker(reset_timeout_s=5.0)
    for _ in range(2):
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 1
    assert not breaker.allow(1.0)


def test_success_resets_the_failure_streak():
    breaker = CircuitBreaker()
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    breaker.record_success(0.0)
    breaker.record_failure(0.0)
    breaker.record_failure(0.0)
    assert breaker.state is BreakerState.CLOSED  # never 3 in a row


def test_half_open_probe_recloses_on_success():
    breaker = opened(5.0)
    assert not breaker.allow(4.9)
    assert breaker.time_until_probe(4.9) == pytest.approx(0.1)
    assert breaker.allow(5.0)                    # probe admitted
    assert breaker.state is BreakerState.HALF_OPEN
    breaker.record_success(5.1)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.times_reclosed == 1


def test_half_open_probe_failure_reopens():
    breaker = opened(5.0)
    assert breaker.allow(5.0)
    breaker.record_failure(5.1)                  # the probe failed
    assert breaker.state is BreakerState.OPEN
    assert breaker.times_opened == 2
    assert not breaker.allow(9.0)                # timer restarted at 5.1
    assert breaker.allow(10.2)


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(reset_timeout_s=0.0)


# -- ResilientSession ----------------------------------------------------------


def flaky_endpoint(down):
    """Attempt function where endpoints listed in ``down`` are unreachable."""

    def attempt(endpoint):
        if endpoint in down:
            raise NodeUnavailableError(f"{endpoint} unreachable")
        return AttemptResult(ok=True, value=endpoint, latency_s=0.01)

    return attempt


def test_session_fails_over_to_healthy_endpoint():
    session = ResilientSession(["replica:0", "primary"])
    outcome = session.call(flaky_endpoint({"replica:0"}))
    assert outcome.ok and outcome.value == "primary"
    assert outcome.path[0] == "replica:0"        # preferred first, then failover
    assert "primary" in outcome.path


def test_non_retryable_error_fails_on_first_attempt():
    session = ResilientSession(["primary"])

    def attempt(endpoint):
        raise DuplicateKeyError("pk")

    outcome = session.call(attempt)
    assert not outcome.ok
    assert outcome.attempts == 1
    assert isinstance(outcome.error, DuplicateKeyError)
    assert session.failures == 1


def test_attempts_capped_by_policy():
    session = ResilientSession(
        ["primary"], policy=RetryPolicy(max_attempts=3, jitter=0.0)
    )
    outcome = session.call(flaky_endpoint({"primary"}))
    assert not outcome.ok
    assert outcome.attempts == 3


def test_timeout_budget_bounds_elapsed_time():
    env = Environment()
    session = ResilientSession(
        ["primary"],
        policy=RetryPolicy(max_attempts=10, base_backoff_s=0.2, jitter=0.0),
        clock=lambda: env.now,
    )

    def slow_failure(endpoint):
        raise_with_latency = NodeUnavailableError("down")
        raise_with_latency.latency_s = 0.05
        raise raise_with_latency

    process = env.process(session.call_in(env, slow_failure, timeout_budget_s=0.5))
    env.run()
    outcome = process.value
    assert not outcome.ok
    assert outcome.attempts < 10                 # budget cut the loop short
    assert outcome.elapsed_s <= 0.5 + 1e-9


def test_breaker_opens_then_recloses_after_heal():
    session = ResilientSession(
        ["primary"],
        policy=RetryPolicy(
            max_attempts=FAILURE_THRESHOLD, base_backoff_s=0.01, jitter=0.0
        ),
        breaker_reset_s=1.0,
    )
    healthy = {"now": False}

    def attempt(endpoint):
        if not healthy["now"]:
            raise NodeUnavailableError("down")
        return "pong"

    assert not session.call(attempt).ok          # the failures open the breaker
    assert session.breaker("primary").state is BreakerState.OPEN
    assert session.breaker_opens() == 1

    healthy["now"] = True
    # the open breaker rejects until the reset timeout, then the probe
    # goes through and re-closes it
    probed = session.call(attempt)
    assert probed.ok and probed.value == "pong"
    assert probed.breaker_rejections >= 1
    assert session.breaker("primary").state is BreakerState.CLOSED
    assert session.breaker_recloses() == 1


def test_all_breakers_open_waits_for_probe_slot():
    failures = 2 * FAILURE_THRESHOLD             # enough to open both
    session = ResilientSession(
        ["a", "b"],
        policy=RetryPolicy(max_attempts=failures, base_backoff_s=0.01, jitter=0.0),
        breaker_reset_s=1.0,
    )
    calls = {"n": 0}

    def attempt(endpoint):
        calls["n"] += 1
        if calls["n"] <= failures:
            raise NodeUnavailableError("down")
        return endpoint

    assert not session.call(attempt).ok          # opens both breakers
    outcome = session.call(attempt)              # sleeps until the probe slot
    assert outcome.ok
    assert outcome.breaker_rejections >= 1


def test_session_requires_endpoints():
    with pytest.raises(ValueError):
        ResilientSession([])


# -- half-open probe bounding (retry-storm regression) -------------------------


def test_half_open_admits_bounded_probes():
    """Only one probe per half-open episode by default: a flood of queued
    retries arriving the instant the breaker half-opens must not all
    pass through, fail, and restart the reset clock in lockstep."""
    breaker = opened(1.0)
    assert breaker.allow(1.0)                    # the probe slot
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow(1.0)                # the rest of the flood
    assert not breaker.allow(1.1)
    breaker.record_success(1.2)                  # verdict: healthy again
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow(1.3)


# -- retry budget --------------------------------------------------------------


def test_retry_budget_caps_replays():
    """With an empty budget the session stops retrying early, reports
    the exhaustion, and feeds the breaker the same signal."""
    session = ResilientSession(
        ["primary"],
        policy=RetryPolicy(max_attempts=10, base_backoff_s=0.01, jitter=0.0),
    )
    # a drained bucket in place of the session's own
    session.retry_budget = RetryBudget(
        deposit_ratio=0.0, min_tokens=2.0, max_tokens=2.0
    )

    def always_down(endpoint):
        raise RequestTimeout("slow")

    outcome = session.call(always_down)
    assert not outcome.ok
    # 1 first attempt + 2 budgeted retries, not max_attempts
    assert outcome.attempts == 3
    assert session.budget_denials == 1
    # budget exhaustion counted against the endpoint's breaker
    assert session.breaker("primary").state is BreakerState.OPEN


def test_default_budget_never_throttles_a_quiet_session():
    """The built-in budget reserves one call's full retry schedule."""
    session = ResilientSession(
        ["primary"],
        policy=RetryPolicy(max_attempts=4, base_backoff_s=0.01, jitter=0.0),
    )

    def flaky_then_ok(endpoint, state={"n": 0}):
        state["n"] += 1
        if state["n"] < 4:
            raise RequestTimeout("slow")
        return "pong"

    outcome = session.call(flaky_then_ok)
    assert outcome.ok and outcome.attempts == 4
    assert session.budget_denials == 0


def test_retry_budget_refills_with_fresh_requests():
    budget = RetryBudget(deposit_ratio=0.5, min_tokens=1.0, max_tokens=4.0)
    assert budget.try_spend()                    # the reserve token
    assert not budget.try_spend()
    assert budget.exhausted == 1
    for _ in range(4):
        budget.record_request()                  # 4 x 0.5 = 2 tokens
    assert budget.try_spend()
    assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.deposits == 4 and budget.spends == 3


# -- one retry state machine for both clocks -----------------------------------


def scripted(steps):
    """An attempt function that plays ``steps`` in order, 10 ms each: an
    exception class is raised, anything else is the attempt's value."""
    remaining = list(steps)

    def attempt(endpoint):
        step = remaining.pop(0)
        if isinstance(step, type):
            error = step(f"{endpoint} down")
            error.latency_s = 0.01
            raise error
        return AttemptResult(ok=True, value=(endpoint, step), latency_s=0.01)

    return attempt


#: name -> (session arguments, one attempt script per call, drained budget?)
PARITY_CASES = {
    "fail-fail-succeed": (
        dict(endpoints=["replica:0", "primary"], policy=RetryPolicy()),
        [[NodeUnavailableError, RequestTimeout, "pong"]],
        False,
    ),
    "all-breakers-open-until-the-probe-slot": (
        dict(
            endpoints=["a", "b"],
            policy=RetryPolicy(
                max_attempts=2 * FAILURE_THRESHOLD, base_backoff_s=0.01
            ),
            breaker_reset_s=1.0,
        ),
        [[NodeUnavailableError] * (2 * FAILURE_THRESHOLD), ["pong"]],
        False,
    ),
    "retry-budget-exhausted": (
        dict(endpoints=["primary"], policy=RetryPolicy(max_attempts=10)),
        [[RequestTimeout] * 10],
        True,
    ),
}


def drive(case, des):
    """Run one case's calls through ``call_in`` in an Environment (``des``)
    or through ``call`` on a VirtualClock; what both must agree on."""
    arguments, calls, drained = PARITY_CASES[case]
    env = Environment() if des else None
    clock = (lambda: env.now) if des else VirtualClock()
    obs = Observer(clock=clock)
    session = ResilientSession(
        rng=random.Random(11), observer=obs,
        **({} if des else dict(clock=clock, advance=clock.advance)),
        **arguments,
    )
    if drained:
        session.retry_budget = RetryBudget(
            deposit_ratio=0.0, min_tokens=2.0, max_tokens=2.0
        )
    outcomes = []
    for steps in calls:
        if des:
            process = env.process(session.call_in(env, scripted(steps)))
            env.run()
            outcome = process.value
        else:
            outcome = session.call(scripted(steps))
        outcome.error = None if outcome.error is None else (
            type(outcome.error), outcome.error.args
        )
        outcomes.append(outcome)
    counters = {
        name: counter.value
        for name, counter in obs.metrics.counters.items()
        if name.startswith("client.")
    }
    return (
        outcomes, clock(), session.breaker_opens(), session.breaker_recloses(),
        session.budget_denials, counters,
    )


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_call_and_call_in_run_one_state_machine(case):
    sync, des = drive(case, des=False), drive(case, des=True)
    assert sync == des
    outcomes, elapsed, opens, _recloses, denials, counters = sync
    assert elapsed > 0 and counters["client.calls"] == len(outcomes)
    if case == "fail-fail-succeed":
        assert outcomes[0].ok and outcomes[0].attempts == 3
    elif case == "retry-budget-exhausted":
        assert not outcomes[0].ok and denials == 1
    else:
        assert opens == 2 and outcomes[-1].ok
        assert outcomes[-1].breaker_rejections >= 1
