"""Admission controller: bounded queues, shedding, and AIMD convergence."""

import pytest

from repro.engine.errors import OverloadError
from repro.qos.admission import AdmissionController, AdmissionPolicy


class FakeDeadline:
    def __init__(self, expires_at_s):
        self.expires_at_s = expires_at_s

    def expired(self, now):
        return now >= self.expires_at_s


def drive_closed_loop(controller, capacity, steps, base_latency_s=0.01, now=0.0):
    """Admit-to-limit against a processor-sharing server; returns (now, limits).

    The same loop as the overload simulation's inner core: each step
    admits as many requests as the limit allows, all of them observe the
    concurrency-degraded latency, and their completions feed the AIMD
    controller.  ``capacity`` is the server's core count -- latency
    starts climbing once the limit exceeds it.
    """
    limits = []
    for _ in range(steps):
        inflight = 0
        while controller.has_capacity():
            controller.try_acquire(now)
            inflight += 1
        latency = base_latency_s * max(1.0, inflight / capacity)
        for _ in range(inflight):
            now += latency / max(1, inflight)
            controller.release(now, latency)
        limits.append(controller.limit)
    return now, limits


# -- policy validation --------------------------------------------------------


class TestPolicies:
    def test_admission_policy_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(initial_limit=0.5, min_limit=1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(initial_limit=300.0, max_limit=256.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(latency_threshold=1.0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue=-1)


# -- gate mode: admit or shed -------------------------------------------------


class TestGateMode:
    def test_sheds_past_the_limit(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=2.0, min_limit=1.0)
        )
        controller.try_acquire(0.0)
        controller.try_acquire(0.0)
        with pytest.raises(OverloadError) as excinfo:
            controller.try_acquire(0.0)
        assert excinfo.value.retryable
        assert controller.shed == 1
        assert controller.admitted == 2

    def test_release_frees_a_slot(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=1.0, min_limit=1.0)
        )
        controller.try_acquire(0.0)
        controller.release(0.1, latency_s=0.1)
        controller.try_acquire(0.2)  # no raise
        assert controller.admitted == 2

    def test_failed_completion_is_a_congestion_signal(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=8.0, min_limit=1.0)
        )
        before = controller.limit
        controller.try_acquire(0.0)
        controller.release(1.0, latency_s=1.0, ok=False)
        assert controller.limit < before
        assert controller.congestion_signals == 1


# -- queue mode ---------------------------------------------------------------


class TestQueueMode:
    def test_bounded_queue_sheds_when_full(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue=2, initial_limit=1.0, min_limit=1.0)
        )
        controller.try_acquire(0.0)  # occupy the single slot
        controller.enqueue("a", 0.0)
        controller.enqueue("b", 0.0)
        with pytest.raises(OverloadError):
            controller.enqueue("c", 0.0)
        assert controller.queue_depth == 2
        assert controller.peak_queue_depth == 2
        assert controller.shed == 1

    def test_shed_hints_a_drain_time_once_calibrated(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue=1, initial_limit=1.0, min_limit=1.0)
        )
        controller.try_acquire(0.0)
        controller.release(0.2, latency_s=0.2)  # establishes the baseline
        controller.try_acquire(0.3)
        controller.enqueue("a", 0.3)
        with pytest.raises(OverloadError) as excinfo:
            controller.enqueue("b", 0.3)
        assert excinfo.value.retry_after_s > 0.0

    def test_dequeue_respects_priority_then_fifo(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=8.0, min_limit=1.0)
        )
        controller.enqueue("low-1", 0.0, priority=2)
        controller.enqueue("high", 0.0, priority=0)
        controller.enqueue("low-2", 0.0, priority=2)
        order = [controller.next_ready(0.0).item for _ in range(3)]
        assert order == ["high", "low-1", "low-2"]
        assert controller.next_ready(0.0) is None

    def test_expired_entries_dropped_at_dequeue(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=8.0, min_limit=1.0)
        )
        controller.enqueue("dead", 0.0, deadline=FakeDeadline(1.0))
        controller.enqueue("alive", 0.0, deadline=FakeDeadline(10.0))
        ticket = controller.next_ready(2.0)  # past the first deadline
        assert ticket.item == "alive"
        assert controller.expired == 1
        assert controller.queue_depth == 0

    def test_next_ready_honours_the_limit(self):
        controller = AdmissionController(
            AdmissionPolicy(initial_limit=1.0, min_limit=1.0)
        )
        controller.enqueue("a", 0.0)
        controller.enqueue("b", 0.0)
        assert controller.next_ready(0.0).item == "a"
        assert controller.next_ready(0.0) is None  # limit reached
        controller.release(0.1, latency_s=0.1)
        assert controller.next_ready(0.1).item == "b"


# -- AIMD convergence (the property the evaluator leans on) -------------------


class TestConvergence:
    @pytest.mark.parametrize("capacity", [4, 8, 16])
    def test_limit_converges_to_a_bounded_band(self, capacity):
        """The limit must find the server's capacity region, not a rail.

        A correct latency-driven limit settles a small multiple above
        the core count (queueing begins there); railing at ``max_limit``
        means the baseline crept (the bug this PR's min-latency anchor
        fixes) and railing at ``min_limit`` means it never grows.
        """
        policy = AdmissionPolicy(
            initial_limit=4.0, min_limit=1.0, max_limit=256.0
        )
        controller = AdmissionController(policy)
        _, limits = drive_closed_loop(controller, capacity, steps=2000)
        tail = limits[-500:]
        assert min(tail) > policy.min_limit
        assert max(tail) < policy.max_limit
        assert 1.2 * capacity <= sum(tail) / len(tail) <= 4.5 * capacity

    def test_limit_reconverges_after_a_step_load_change(self):
        """Halving the capacity mid-run must pull the limit back down."""
        policy = AdmissionPolicy(
            initial_limit=4.0, min_limit=1.0, max_limit=256.0
        )
        controller = AdmissionController(policy)
        now, limits_before = drive_closed_loop(controller, 16, steps=2000)
        fat_tail = limits_before[-500:]
        _, limits_after = drive_closed_loop(
            controller, 4, steps=2000, now=now
        )
        thin_tail = limits_after[-500:]
        mean_before = sum(fat_tail) / len(fat_tail)
        mean_after = sum(thin_tail) / len(thin_tail)
        assert mean_after < 0.5 * mean_before
        assert 1.2 * 4 <= mean_after <= 4.5 * 4

    def test_baseline_is_anchored_to_the_best_latency(self):
        """Feeding ever-slower 'good' samples must not drag the baseline
        above the anchor -- the creep that railed the limit at max."""
        controller = AdmissionController(AdmissionPolicy())
        controller.try_acquire(0.0)
        controller.release(0.0, latency_s=0.010)
        latency = 0.010
        for step in range(1, 500):
            # each sample is slightly slower but under the 2x threshold
            latency = min(latency * 1.01, 0.019)
            controller.try_acquire(float(step))
            controller.release(float(step), latency_s=latency)
        # anchored at 1.5 x 10 ms, a sample just past threshold x 15 ms
        # is congestion; a baseline that crept to 19 ms would admit it
        signals = controller.congestion_signals
        controller.try_acquire(500.0)
        controller.release(500.0, latency_s=2.0 * 0.015 + 1e-6)
        assert controller.congestion_signals == signals + 1
