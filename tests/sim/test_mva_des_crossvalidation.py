"""Cross-validation: the MVA solver vs the discrete-event kernel.

The same closed system is evaluated twice -- analytically (exact MVA)
and by simulation (N worker processes over a shared Resource) -- and
the throughputs must agree.  With deterministic service times the
simulated system is a D/D/c closed network, which meets the classical
asymptotes exactly and never falls below the MVA estimate (MVA assumes
exponential service, i.e. more variance, i.e. more queueing).
"""

import pytest

from repro.sim.events import Environment
from repro.sim.mva import Center, ClosedNetwork
from repro.sim.resources import Resource


def simulate_closed_system(
    population: int,
    service_s: float,
    servers: int,
    delay_s: float = 0.0,
    think_s: float = 0.0,
    duration_s: float = 200.0,
) -> float:
    """Throughput of N workers looping think -> queue(service) -> delay."""
    env = Environment()
    cpu = Resource(env, capacity=servers)
    completions = [0]
    # measure after a warm-up third of the run
    warmup = duration_s / 3.0

    def worker():
        while True:
            if think_s > 0:
                yield env.timeout(think_s)
            yield from cpu.use(service_s)
            if delay_s > 0:
                yield env.timeout(delay_s)
            if env.now >= warmup:
                completions[0] += 1

    for _ in range(population):
        env.process(worker())
    env.run(until=duration_s)
    return completions[0] / (duration_s - warmup)


CASES = [
    # population, service, servers, delay, think
    (1, 0.05, 1, 0.0, 0.0),
    (4, 0.05, 1, 0.0, 0.0),      # saturated single server
    (2, 0.02, 4, 0.1, 0.0),      # light load, multi-server
    (32, 0.02, 4, 0.1, 0.0),     # saturated multi-server
    (8, 0.01, 2, 0.05, 0.1),     # think time dominates
    (16, 0.005, 4, 0.02, 0.03),  # mixed
]


@pytest.mark.parametrize("population,service,servers,delay,think", CASES)
def test_des_throughput_matches_mva(population, service, servers, delay, think):
    centers = [Center("cpu", service, "queue", servers=servers)]
    if delay > 0:
        centers.append(Center("net", delay, "delay"))
    network = ClosedNetwork(centers, think_time=think)
    analytic = network.solve(population).throughput
    simulated = simulate_closed_system(population, service, servers, delay, think)

    upper = min(
        servers / service,  # the one queueing centre's capacity
        population / (think + service + delay),
    )
    # deterministic service: at or above the exponential-service MVA
    # estimate, never above the asymptotic bound
    assert simulated >= analytic * 0.97
    assert simulated <= upper * 1.03
    # and within a reasonable band of the analytic value overall
    assert simulated == pytest.approx(analytic, rel=0.30)


def test_saturated_system_hits_capacity_bound_exactly():
    simulated = simulate_closed_system(
        population=32, service_s=0.02, servers=4, duration_s=400.0
    )
    assert simulated == pytest.approx(4 / 0.02, rel=0.02)


def test_light_load_hits_latency_bound_exactly():
    simulated = simulate_closed_system(
        population=2, service_s=0.01, servers=8, delay_s=0.09, duration_s=400.0
    )
    assert simulated == pytest.approx(2 / 0.1, rel=0.02)


def test_throughput_scales_with_population_until_saturation():
    values = [
        simulate_closed_system(n, 0.02, 2, delay_s=0.06, duration_s=300.0)
        for n in (1, 2, 4, 8, 16)
    ]
    assert all(b >= a - 1.0 for a, b in zip(values, values[1:]))
    assert values[-1] == pytest.approx(2 / 0.02, rel=0.05)
