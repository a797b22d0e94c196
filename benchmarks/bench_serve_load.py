"""Serving-tier load bench: faults survive, qos holds the knee.

Two end-to-end claims about the SQL-over-socket tier, both measured
over real loopback connections with a fixed seed:

* **fault tolerance** -- with ``CONN_DROP`` chaos active the whole
  run, the load generator reconnects around the drops and finishes
  with nonzero committed TPS, every offered transaction accounted
  for, and a clean server shutdown;
* **the knee** -- driven 2.5x past the service rate a short
  closed-loop pilot measures on this host, with a tight deadline, the
  qos stack (bounded admission queue + deadline shedding) holds
  goodput >= 1.2x of the qos-off baseline, whose unbounded queue
  serves everything arbitrarily late.

Runs two ways:

* ``pytest benchmarks/bench_serve_load.py`` -- the bench suite path,
  with the headline numbers in ``benchmark.extra_info``;
* ``python benchmarks/bench_serve_load.py [--quick] [--seed N]`` --
  the CI smoke entry point; exits non-zero if either claim fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.core.report import TextTable
from repro.serve.driver import ServeRunResult, run_serve

#: the past-the-knee shape: this multiple of the closed-loop service
#: rate, offered open-loop for this long, with a deadline much tighter
#: than the backlog.  The rate is measured, not written down: a literal
#: went stale each time the socket tier got faster (2500, then 4000
#: tps), and a drive that is no longer past the knee fails the 1.2x
#: claim for reasons that have nothing to do with qos.
KNEE_OVERLOAD = 2.5
KNEE_OFFERED_S = 1.0
#: fewer than the listener's accept backlog (asyncio's default, 100):
#: beyond it the kernel parks the excess connects for a 1 s SYN
#: retransmit, so the first second of a 256-connection drive ran at
#: 100/256 of the offered rate -- at capacity, not past it
KNEE_CONNECTIONS = 64
KNEE_DEADLINE_S = 0.1
KNEE_MAX_QUEUE = 8
PILOT_CONNECTIONS = 16
PILOT_TXNS_PER_CONN = 256


def run_fault_load(quick: bool = False, seed: int = 42) -> ServeRunResult:
    """A closed-loop drive with connection drops active throughout."""
    plan = FaultPlan(
        [FaultSpec(kind=FaultKind.CONN_DROP, target="serve",
                   start_s=0.0, duration_s=3600.0, intensity=0.2)],
        seed=seed, name="serve-drops",
    )
    return run_serve(
        16, 8 if quick else 24,
        n_shards=2, qos=True,
        persona="payment", arrival="closed",
        seed=seed, row_scale=0.002, fault_plan=plan,
    )


def measure_service_rate(seed: int = 42) -> float:
    """Committed tps of a short closed-loop pilot: every connection
    always has a transaction in flight and nothing is shed, so this is
    what the tier can serve on this host right now."""
    pilot = run_serve(
        PILOT_CONNECTIONS, PILOT_TXNS_PER_CONN,
        n_shards=2, qos=False,
        persona="payment", arrival="closed",
        seed=seed, row_scale=0.002,
    )
    return pilot.tps


def run_knee(seed: int = 42):
    """The same overload drive once with qos on, once off."""
    rate_tps = KNEE_OVERLOAD * measure_service_rate(seed)
    txns_per_conn = round(rate_tps * KNEE_OFFERED_S / KNEE_CONNECTIONS)
    results = {}
    for qos in (True, False):
        results[qos] = run_serve(
            KNEE_CONNECTIONS, txns_per_conn,
            n_shards=2, qos=qos,
            persona="payment",
            arrival=f"poisson:{rate_tps:.0f}",
            deadline_s=KNEE_DEADLINE_S,
            max_queue=KNEE_MAX_QUEUE,
            seed=seed, row_scale=0.002,
        )
    return results[True], results[False]


def _report(fault: ServeRunResult, with_qos, without) -> TextTable:
    table = TextTable(
        ["stage", "qos", "conns", "offered", "committed", "lost",
         "shed+exp", "TPS", "goodput", "p99 ms"],
        title="Serving tier under faults and overload",
    )
    for stage, result in (
        ("conn-drop", fault), ("knee", with_qos), ("knee", without),
    ):
        table.add_row(
            stage, "on" if result.qos else "off", result.connections,
            result.offered, result.committed, result.lost,
            result.shed + result.expired,
            round(result.tps), round(result.goodput_tps),
            round(result.latency_ms.get("p99", 0.0), 1),
        )
    return table


def _check_fault(result: ServeRunResult) -> None:
    # the run committed real work at a nonzero rate despite the drops
    assert result.committed > 0 and result.tps > 0, (
        f"no committed throughput under CONN_DROP chaos: {result}"
    )
    # the chaos actually bit, and the generator reconnected around it
    assert result.server.get("abrupt_disconnects", 0) >= 1, (
        "CONN_DROP never fired (no abrupt disconnects server-side)"
    )
    assert result.reconnects >= 1, "no client ever reconnected after a drop"
    # every offered transaction is accounted for -- nothing vanished
    accounted = (
        result.committed + result.aborted + result.shed
        + result.expired + result.errors + result.lost
    )
    assert accounted == result.offered, (
        f"accounting leak: offered {result.offered}, accounted {accounted}"
    )
    # clean shutdown: the server stopped and handed its stats over
    assert result.server.get("accepted", 0) >= result.connections


def _check_knee(with_qos: ServeRunResult, without: ServeRunResult) -> None:
    # past the knee, shedding beats serving everything arbitrarily late
    assert with_qos.goodput_tps > 1.2 * without.goodput_tps, (
        f"qos-on goodput {with_qos.goodput_tps:.1f} tps does not clear "
        f"1.2x qos-off ({without.goodput_tps:.1f} tps)"
    )
    # and it wins *by* shedding: the queue cap / deadline did real work
    assert with_qos.shed + with_qos.expired > 0, (
        "qos-on shed nothing -- the drive never reached the knee"
    )
    assert without.shed == 0 and without.expired == 0, (
        "qos-off shed work; its queue should be unbounded"
    )


def test_serve_fault_load(benchmark):
    result = benchmark.pedantic(
        run_fault_load, kwargs={"quick": True}, rounds=1, iterations=1
    )
    benchmark.extra_info["committed_tps"] = result.tps
    benchmark.extra_info["reconnects"] = result.reconnects
    _check_fault(result)


def test_serve_knee(benchmark):
    with_qos, without = benchmark.pedantic(
        run_knee, rounds=1, iterations=1
    )
    benchmark.extra_info["goodput_qos"] = with_qos.goodput_tps
    benchmark.extra_info["goodput_noqos"] = without.goodput_tps
    _check_knee(with_qos, without)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke sizing"
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="workload and fault-plan seed"
    )
    args = parser.parse_args(argv)
    fault = run_fault_load(quick=args.quick, seed=args.seed)
    with_qos, without = run_knee(seed=args.seed)
    _report(fault, with_qos, without).print()
    try:
        _check_fault(fault)
        _check_knee(with_qos, without)
    except AssertionError as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        f"fault stage: {fault.tps:.0f} committed tps with "
        f"{fault.reconnects} reconnects; knee: qos-on goodput "
        f"{with_qos.goodput_tps:.1f} tps vs off {without.goodput_tps:.1f} "
        f"({with_qos.goodput_tps / max(without.goodput_tps, 1e-9):.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
