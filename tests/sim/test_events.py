"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.events import Environment, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def process():
        yield env.timeout(5.0)
        seen.append(env.now)
        yield env.timeout(2.5)
        seen.append(env.now)

    env.process(process())
    env.run()
    assert seen == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_process_return_value_becomes_event_value():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 42

    def parent():
        result = yield env.process(child())
        assert result == 42
        return result * 2

    parent_process = env.process(parent())
    env.run()
    assert parent_process.value == 84


def test_events_at_same_instant_run_in_scheduling_order():
    env = Environment()
    order = []

    def make(name):
        def process():
            yield env.timeout(1.0)
            order.append(name)
        return process

    for name in ("a", "b", "c"):
        env.process(make(name)())
    env.run()
    assert order == ["a", "b", "c"]


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke = []

    def waiter():
        value = yield gate
        woke.append((env.now, value))

    def opener():
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert woke == [(4.0, "open")]


def test_event_cannot_trigger_twice():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_failure_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1.0)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_run_until_stops_the_clock():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(1.0)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=5.5)
    assert env.now == 5.5
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_backwards_rejected():
    env = Environment()
    env.process(iter_timeout(env, 10.0))
    env.run(until=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def iter_timeout(env, delay):
    yield env.timeout(delay)


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_deterministic_repeated_runs():
    def build():
        env = Environment()
        log = []

        def worker(name, period):
            while env.now < 20:
                yield env.timeout(period)
                log.append((round(env.now, 6), name))

        env.process(worker("a", 1.7))
        env.process(worker("b", 2.3))
        env.run(until=20)
        return log

    assert build() == build()
