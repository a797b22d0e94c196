"""Tests for the exact MVA solver, including classical identities."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.mva import Center, ClosedNetwork


def test_single_queue_single_customer():
    # One customer, one queueing centre: X = 1 / D.
    network = ClosedNetwork([Center("cpu", 0.1)])
    solution = network.solve(1)
    assert solution.throughput == pytest.approx(10.0)
    assert solution.response_time == pytest.approx(0.1)


def test_saturation_bound():
    # Throughput can never exceed 1 / max demand.
    network = ClosedNetwork([Center("cpu", 0.05), Center("disk", 0.1)])
    for population in (1, 5, 50, 500):
        assert network.solve(population).throughput <= 1 / 0.1 + 1e-9


def test_light_load_asymptote():
    network = ClosedNetwork([Center("cpu", 0.02), Center("disk", 0.03)])
    solution = network.solve(1)
    assert solution.throughput == pytest.approx(1 / 0.05)


def test_think_time_reduces_throughput_at_small_population():
    no_think = ClosedNetwork([Center("cpu", 0.01)])
    with_think = ClosedNetwork([Center("cpu", 0.01)], think_time=0.09)
    assert with_think.solve(1).throughput == pytest.approx(10.0)
    assert no_think.solve(1).throughput == pytest.approx(100.0)


def test_delay_center_does_not_bound_throughput():
    network = ClosedNetwork([
        Center("cpu", 0.001),
        Center("latency", 0.1, kind="delay"),
    ])
    assert network.solve(500).throughput == pytest.approx(1000.0, rel=0.01)


def test_multiserver_capacity_scales():
    single = ClosedNetwork([Center("cpu", 0.01, servers=1)])
    quad = ClosedNetwork([Center("cpu", 0.01, servers=4)])
    assert quad.solve(400).throughput == pytest.approx(
        4 * single.solve(400).throughput, rel=0.05
    )


def test_fractional_servers_halve_capacity():
    half = ClosedNetwork([Center("cpu", 0.01, servers=0.5)])
    assert half.solve(100).throughput == pytest.approx(50.0, rel=0.02)


def test_population_zero():
    network = ClosedNetwork([Center("cpu", 0.1)])
    solution = network.solve(0)
    assert solution.throughput == 0.0
    assert solution.response_time == 0.0


def test_utilization_law():
    # U_k = X * D_k for single-server queueing centres.
    network = ClosedNetwork([Center("cpu", 0.02), Center("disk", 0.05)])
    solution = network.solve(10)
    assert solution.utilizations["disk"] == pytest.approx(
        min(1.0, solution.throughput * 0.05), rel=1e-6
    )
    assert solution.bottleneck() == "disk"


def test_littles_law_holds():
    # N = X * R (no think time): the jobs in the network are its population.
    network = ClosedNetwork(
        [Center("cpu", 0.01), Center("disk", 0.02), Center("net", 0.005, kind="delay")]
    )
    for population in (1, 4, 16):
        solution = network.solve(population)
        assert solution.throughput * solution.response_time == pytest.approx(
            population, rel=1e-6
        )


def test_duplicate_center_names_rejected():
    with pytest.raises(ValueError):
        ClosedNetwork([Center("cpu", 0.1), Center("cpu", 0.2)])


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        Center("x", -0.1)
    with pytest.raises(ValueError):
        Center("x", 0.1, kind="magic")
    with pytest.raises(ValueError):
        Center("x", 0.1, servers=0)
    with pytest.raises(ValueError):
        ClosedNetwork([Center("x", 0.1)], think_time=-1.0)
    with pytest.raises(ValueError):
        ClosedNetwork([])
    with pytest.raises(ValueError):
        ClosedNetwork([Center("x", 0.1)]).solve(-1)


@settings(max_examples=60, deadline=None)
@given(
    demands=st.lists(st.floats(min_value=1e-4, max_value=0.5), min_size=1, max_size=5),
    population=st.integers(min_value=1, max_value=60),
    think=st.floats(min_value=0.0, max_value=1.0),
)
def test_property_throughput_within_classical_bounds(demands, population, think):
    centers = [Center(f"c{i}", d) for i, d in enumerate(demands)]
    network = ClosedNetwork(centers, think_time=think)
    solution = network.solve(population)
    upper_capacity = 1.0 / max(demands)
    upper_light = population / (think + sum(demands))
    assert solution.throughput <= min(upper_capacity, upper_light) + 1e-9
    assert solution.throughput > 0
    # response time can never be below the total service demand
    assert solution.response_time >= sum(demands) - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    demand=st.floats(min_value=1e-4, max_value=0.2),
    population=st.integers(min_value=1, max_value=40),
)
def test_property_throughput_monotone_in_population(demand, population):
    network = ClosedNetwork([Center("cpu", demand), Center("io", demand / 2)])
    x_n = network.solve(population).throughput
    x_n1 = network.solve(population + 1).throughput
    assert x_n1 >= x_n - 1e-12
