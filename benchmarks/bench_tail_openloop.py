"""Coordinated-omission demo: open-loop vs closed-loop tails at the knee.

A closed-loop driver waits for each reply before issuing the next
request, so when the server stalls the driver *stops offering load* --
the stall shows up once instead of once per request that should have
arrived during it.  An open-loop driver keeps the arrival schedule and
measures from each request's *scheduled* start, so the backlog lands in
the tail.

This bench drives the single-shard payment workload through both
recordings of the *same* service-time sequence at a sweep of offered
rates around the measured capacity (the knee) and asserts:

* **below the knee** (0.5x capacity) the two tails roughly agree --
  queueing is negligible, so open-loop adds little;
* **at and past the knee** (1x, 1.2x) the open-loop p99 is at least the
  closed-loop p99, and past the knee it is *far* above it -- the gap
  coordinated omission hides.

Runs two ways:

* ``pytest benchmarks/bench_tail_openloop.py`` -- bench suite path;
* ``python benchmarks/bench_tail_openloop.py [--quick] [--seed N]`` --
  the CI smoke entry point; exits non-zero if the claims fail.
"""

from __future__ import annotations

import argparse
import sys

import time

from repro.core.report import TextTable
from repro.obs.metrics import Histogram
from repro.perf.openloop import ArrivalSpec, arrival_offsets, replay_open_loop
from repro.shard.fleet import load_sales_fleet
from repro.shard.workload import ShardSalesWorkload
from repro.sim.rng import RngRegistry, derive_seed

RATE_FACTORS = (0.5, 1.0, 1.2)
KNEE_FACTORS = (1.0, 1.2)


def run_sweep(quick: bool = False, seed: int = 42):
    """Measure one service-time sequence, replay it under each rate.

    The service durations come from one closed-loop drive of the payment
    workload on a one-shard fleet; each open-loop view is then pure
    virtual-queue arithmetic over those same durations and a seeded
    Poisson schedule at ``factor x capacity``.  One execution, N
    recordings -- the comparison cannot be polluted by run-to-run
    service noise, and both tails use the same histogram estimator.
    """
    txns = 192 if quick else 768
    run_one = ShardSalesWorkload(
        load_sales_fleet(1, row_scale=0.002, seed=seed)[0],
        seed=derive_seed(seed, "bench.tail.measured"),
    ).run_one
    service_s = []
    for _ in range(txns):
        begin = time.perf_counter()
        run_one()
        service_s.append(time.perf_counter() - begin)
    capacity = len(service_s) / sum(service_s)
    closed = Histogram("service_s")
    for duration in service_s:
        closed.observe(duration)
    points = []
    for factor in RATE_FACTORS:
        rate = capacity * factor
        rng = RngRegistry(
            derive_seed(seed, "bench.tail.arrival")
        ).stream(f"poisson.{factor:g}")
        schedule = arrival_offsets(
            ArrivalSpec(kind="poisson", rate=rate), rate, len(service_s), rng
        )
        openloop = replay_open_loop(service_s, schedule)
        points.append({
            "factor": factor,
            "rate": rate,
            "closed_p99_ms": closed.percentile(99.0) * 1000.0,
            "open_p99_ms": openloop.percentile_ms(99.0),
            "open_p50_ms": openloop.percentile_ms(50.0),
        })
    return capacity, points


def _report(capacity: float, points) -> TextTable:
    table = TextTable(
        ["offered", "rate rps", "closed p99 ms", "open p99 ms", "gap"],
        title=f"Tail latency with and without coordinated omission "
              f"(oltp, capacity {capacity:.0f} tps)",
    )
    for point in points:
        gap = (
            point["open_p99_ms"] / point["closed_p99_ms"]
            if point["closed_p99_ms"] > 0 else float("inf")
        )
        table.add_row(
            f"x{point['factor']:g}", round(point["rate"]),
            round(point["closed_p99_ms"], 2), round(point["open_p99_ms"], 2),
            f"x{gap:.1f}",
        )
    return table


def _check(points) -> None:
    by_factor = {point["factor"]: point for point in points}
    for factor in KNEE_FACTORS:
        point = by_factor[factor]
        # the headline acceptance: CO-free recording can only reveal
        # more waiting, never less
        assert point["open_p99_ms"] >= point["closed_p99_ms"], (
            f"open-loop p99 {point['open_p99_ms']:.2f} ms fell below the "
            f"closed-loop p99 {point['closed_p99_ms']:.2f} ms at "
            f"x{factor:g} offered load"
        )
    past = by_factor[1.2]
    # past the knee the virtual queue grows without bound: the hidden
    # backlog dwarfs any single service time
    assert past["open_p99_ms"] >= 3.0 * past["closed_p99_ms"], (
        f"past the knee the open-loop p99 ({past['open_p99_ms']:.2f} ms) "
        f"should dwarf the closed-loop p99 ({past['closed_p99_ms']:.2f} ms)"
    )
    # well below the knee there is (almost) no queue to hide
    calm = by_factor[0.5]
    assert calm["open_p99_ms"] <= 10.0 * calm["closed_p99_ms"], (
        f"at half capacity the open-loop tail ({calm['open_p99_ms']:.2f} ms) "
        f"should be near the service tail ({calm['closed_p99_ms']:.2f} ms)"
    )


def test_tail_openloop(benchmark):
    capacity, points = benchmark.pedantic(
        run_sweep, kwargs={"quick": True}, rounds=1, iterations=1
    )
    _report(capacity, points).print()
    for point in points:
        benchmark.extra_info[f"open_p99_ms_x{point['factor']:g}"] = (
            point["open_p99_ms"]
        )
        benchmark.extra_info[f"closed_p99_ms_x{point['factor']:g}"] = (
            point["closed_p99_ms"]
        )
    _check(points)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing (192 txns)"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload + schedule seed"
    )
    args = parser.parse_args(argv)
    capacity, points = run_sweep(quick=args.quick, seed=args.seed)
    _report(capacity, points).print()
    try:
        _check(points)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    knee = next(p for p in points if p["factor"] == 1.0)
    print(
        f"at the knee: open-loop p99 {knee['open_p99_ms']:.2f} ms >= "
        f"closed-loop p99 {knee['closed_p99_ms']:.2f} ms"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
