"""Tests for Resource and TimeSeries."""

import pytest

from repro.sim.events import Environment, SimulationError
from repro.sim.resources import Resource, TimeSeries


def test_resource_serialises_holders():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def worker(name):
        yield resource.request()
        log.append((env.now, name, "in"))
        yield env.timeout(2.0)
        resource.release()
        log.append((env.now, name, "out"))

    env.process(worker("a"))
    env.process(worker("b"))
    env.run()
    assert log == [
        (0.0, "a", "in"), (2.0, "a", "out"),
        (2.0, "b", "in"), (4.0, "b", "out"),
    ]


def test_resource_capacity_two_overlaps():
    env = Environment()
    resource = Resource(env, capacity=2)
    finished = []

    def worker(name):
        yield from resource.use(3.0)
        finished.append((env.now, name))

    for name in ("a", "b", "c"):
        env.process(worker(name))
    env.run()
    assert finished == [(3.0, "a"), (3.0, "b"), (6.0, "c")]


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(name, arrival):
        yield env.timeout(arrival)
        yield resource.request()
        order.append(name)
        yield env.timeout(1.0)
        resource.release()

    env.process(worker("late", 0.2))
    env.process(worker("early", 0.1))
    env.run()
    assert order == ["early", "late"]


def test_release_without_request_raises():
    env = Environment()
    resource = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        resource.release()


def test_invalid_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


class TestTimeSeries:
    def test_integrate_step_function(self):
        series = TimeSeries()
        series.record(0.0, 10.0)
        series.record(5.0, 20.0)
        assert series.integrate(0.0, 10.0) == pytest.approx(10 * 5 + 20 * 5)

    def test_average(self):
        series = TimeSeries()
        series.record(0.0, 4.0)
        series.record(2.0, 8.0)
        assert series.average(0.0, 4.0) == pytest.approx(6.0)

    def test_value_at(self):
        series = TimeSeries()
        series.record(1.0, 1.0)
        series.record(3.0, 3.0)
        assert series.value_at(2.0) == 1.0
        assert series.value_at(3.0) == 3.0
        assert series.value_at(99.0) == 3.0

    def test_out_of_order_rejected(self):
        series = TimeSeries()
        series.record(5.0, 1.0)
        with pytest.raises(SimulationError):
            series.record(4.0, 2.0)

    def test_partial_window(self):
        series = TimeSeries()
        series.record(0.0, 1.0)
        series.record(10.0, 3.0)
        assert series.integrate(5.0, 15.0) == pytest.approx(1 * 5 + 3 * 5)
