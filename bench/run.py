"""One run of one workload: set up, measure, crash, recover, check.

    python3 bench/run.py --workload sales_inline --seed 1 --seconds 10 --trace 0

prints progress on standard error and, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics, or with ``--trace 1`` the
per-layer ones.  ``bench/suite.py`` runs every workload through this.

A run replays the script in *slices* of a fixed number of transactions
until ``--seconds`` have passed.  Each slice is timed on its own; its
input is generated and its results are checked between slices, outside
the timing.  Counters that must repeat exactly -- WAL bytes, fsyncs, RSS
-- are read over the *counter window*, the first ``window_slices``
slices, which every run completes whatever the host's speed.  Crash and
recovery are timed there too, where every run holds the same tables and
the same log; the run ends with one more crash and recovery, after which
the tables must be what the oracle says was committed.

**Host speed.**  This host runs the same code up to 1.8 times slower for
tens of seconds at a time (noisy neighbours), longer than a whole run,
so no estimator inside a run can see past it.  What does cancel it is a
reference measured beside everything that is timed: :func:`reference_s`,
the time the benchmark takes to generate a fixed stretch of script --
pure-Python work that no change to the program can alter.  The
``slowdown`` of a slice (or a set-up, or a recovery) is the reference
around it over :data:`NOMINAL_REFERENCE_S`, and its timings are divided
by it.  Timing metrics are therefore in the units of a host on which the
reference runs at its nominal speed; the raw values and every slowdown
are kept in ``bench/out/run_*.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
if __name__ == "__main__":
    # run as a script: make ``bench`` and the program importable
    for entry in (ROOT / "src", ROOT):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))

from repro.perf.trajectory import calibration_spin  # noqa: E402

from bench.layers import PER_LAYER, layer_metrics, leftover_wrappers  # noqa: E402
from bench.oracle import Oracle  # noqa: E402
from bench.replay import NoTrace, Tally  # noqa: E402
from bench.script import READ_KINDS, SalesScript  # noqa: E402
from bench.stats import percentile  # noqa: E402
from bench.trace import RECOVERY, SETUP, Tracer  # noqa: E402
from bench.workloads import (  # noqa: E402
    KEYS,
    SLO_S,
    SPEC_BY_NAME,
    WARMUP_TXNS,
    Spec,
    Tier,
    make_script,
    make_tier,
    slice_input,
)

#: how many transactions' spans a traced run writes to its trace file
TRACE_FILE_TXNS = 2_000
#: the reference work: this many blocks of the sales script
REFERENCE_BLOCKS = 100
#: seconds the reference takes on the nominal host (this host, undisturbed)
NOMINAL_REFERENCE_S = 0.0038
#: reference readings on each side of a set-up or a recovery round
READINGS = 3


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Slice:
    """One timed slice: its raw timings and the reference beside it."""

    def __init__(
        self, latencies: Sequence[float], kinds: Sequence[int], committed: int,
        wall_s: float, cpu_s: float, late_s: Sequence[float],
    ):
        self.latencies = latencies
        self.kinds = kinds
        self.txns = len(latencies)
        self.committed = committed
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.late_s = late_s
        #: how much slower than nominal the host ran around this slice
        self.slowdown = 1.0


class Measured:
    """What :func:`measure` found."""

    def __init__(self) -> None:
        self.slices: List[Slice] = []
        self.tally = Tally()
        #: counter differences over the counter window, plus ``*_end``
        #: absolutes at its end
        self.window: Dict[str, float] = {}
        self.window_txns = 0
        #: the recovery rounds at the end of the counter window
        self.recover_s: List[float] = []
        self.reports: List[Any] = []


_REFERENCE_SCRIPT = SalesScript(0, KEYS)


def reference_s() -> float:
    """Seconds the reference work takes right now."""
    start = time.perf_counter()
    _REFERENCE_SCRIPT.txns(0, 0, REFERENCE_BLOCKS)
    return time.perf_counter() - start


def slowdown_of(readings: Sequence[float]) -> float:
    """Host slowdown from reference readings; the median keeps one
    preempted reading from mis-scaling what it stands beside."""
    return statistics.median(readings) / NOMINAL_REFERENCE_S


def timed(action) -> Tuple[Any, float, float]:
    """Run ``action`` between reference readings; returns its result,
    its wall seconds and the host slowdown around it."""
    readings = [reference_s() for _ in range(READINGS)]
    start = time.perf_counter()
    result = action()
    wall_s = time.perf_counter() - start
    readings.extend(reference_s() for _ in range(READINGS))
    return result, wall_s, slowdown_of(readings)


def set_up(spec: Spec, script, seed: int, mark: Any):
    """Load, start serving and warm up; returns the tier, its oracle,
    the seconds it took and the first block left for measuring."""
    mark.txn = SETUP
    start = time.perf_counter()
    tier = make_tier(spec)
    loaded = time.perf_counter()
    oracle = Oracle(
        tier.rows("ORDERS"), tier.rows("CUSTOMER"), tier.row_count("ORDERLINE")
    )
    lanes, _dues, n_blocks = slice_input(spec, script, seed, 0, WARMUP_TXNS)
    warm = time.perf_counter()
    _latencies, txns, results, _late = tier.replay(lanes, Tally(), NoTrace(), 0)
    done = time.perf_counter()
    oracle.check(txns, results)
    return tier, oracle, (loaded - start) + (done - warm), n_blocks


def measure(
    tier: Tier, spec: Spec, script, oracle: Oracle, seed: int, mark: Any,
    first_block: int, seconds: Optional[float], rounds: int, problems: List[str],
) -> Measured:
    """Replay slices until ``seconds`` have passed (``None``: stop at the
    end of the counter window).

    At the end of the counter window -- the same point of the script in
    every run, so the same tables and the same log to replay -- the
    database is crashed and recovered ``rounds`` times, timed, and then
    goes on serving the rest of the run."""
    found = Measured()
    block = first_block
    sent = 0
    gc.collect()
    gc.disable()  # a collection mid-slice is a tail spike that is not the program's
    try:
        before = tier.counters()
        started = time.perf_counter()
        readings = [reference_s()]
        while True:
            lanes, dues, n_blocks = slice_input(
                spec, script, seed, block, spec.slice_txns
            )
            if dues is not None:
                # open loop: offer the nominal rate in the host's own time,
                # so that the load is the same share of what it can do
                stretch = slowdown_of(readings[-3:])
                dues = [[due * stretch for due in lane] for lane in dues]
            committed = found.tally.committed
            cpu = time.process_time()
            start = time.perf_counter()
            latencies, txns, results, late_s = tier.replay(
                lanes, found.tally, mark, sent, dues
            )
            wall_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu
            readings.append(reference_s())
            oracle.check(txns, results)
            found.slices.append(Slice(
                latencies, [kind for kind, _steps in txns],
                found.tally.committed - committed, wall_s, cpu_s, late_s,
            ))
            block += n_blocks
            sent += len(txns)
            if len(found.slices) == spec.window_slices:
                after = tier.counters()
                found.window = {key: after[key] - before[key] for key in after}
                found.window.update({f"{key}_end": after[key] for key in after})
                found.window_txns = sent
                pause = time.perf_counter()
                found.recover_s, found.reports = recover(tier, rounds, mark, problems)
                started += time.perf_counter() - pause
            if len(found.slices) >= spec.window_slices and (
                seconds is None or time.perf_counter() - started >= seconds
            ):
                break
            if len(found.slices) % spec.checkpoint_slices == 0:
                tier.checkpoint()
    finally:
        gc.enable()
    # a slice stands between two readings; its neighbours' readings too
    # are taken, so that one preempted reading cannot mis-scale it
    for index, one in enumerate(found.slices):
        one.slowdown = slowdown_of(readings[max(0, index - 1):index + 3])
    return found


def recover(tier: Tier, rounds: int, mark: Any, problems: List[str]):
    """Crash and recover ``rounds`` times (recovery is idempotent) and
    check that every shard's contents survived.

    Returns each round's wall seconds in nominal-host units and the
    last round's shard reports."""
    mark.txn = RECOVERY
    before = tier.content_hashes()
    walls, reports = [], []
    for _ in range(rounds):
        gc.collect()
        reports, wall_s, slowdown = timed(tier.crash_recover)
        walls.append(wall_s / slowdown)
    if tier.content_hashes() != before:
        problems.append("content hash after crash+recover differs from before")
    return walls, reports


def finish(tier: Tier, oracle: Oracle, mark: Any, problems: List[str]) -> None:
    """Stop serving, crash and recover once more, and check that what
    survived is what the oracle says was committed."""
    mark.txn = RECOVERY  # the timed section is over: goodbyes are not its frames
    tier.stop_serving()
    recover(tier, 1, mark, problems)
    oracle.check_final(
        tier.rows("ORDERS"), tier.rows("CUSTOMER"), tier.row_count("ORDERLINE")
    )
    if not oracle.ok:
        problems.append(
            f"{oracle.mismatches} wrong results, e.g. " + "; ".join(oracle.messages)
        )
    if oracle.skipped:
        problems.append(f"{oracle.skipped} failed transactions went unchecked")


def host_slowdown(slices: Sequence[Slice]) -> float:
    return statistics.median(one.slowdown for one in slices)


def timing_metrics(slices: Sequence[Slice]) -> Dict[str, float]:
    """Throughput, CPU and latency with the host's speed divided out.

    Each is computed per slice, in the slice's own nominal-host units,
    and the run reports the median slice -- for the 99th percentile the
    lower-quartile slice: a stall of the host (tens of milliseconds,
    every few seconds here) or a neighbour's burst only ever lengthens a
    tail, and spoils the slices it falls in rather than the whole run.
    A slice holds at least ten samples beyond its 99th percentile.
    """
    rows: Dict[str, List[float]] = {name: [] for name in (
        "tps", "cpu_us_per_txn", "txn_p50_us", "txn_p99_us",
        "read_p50_us", "write_p50_us",
    )}
    for one in slices:
        scaled = [latency / one.slowdown for latency in one.latencies]
        reads = [t for t, kind in zip(scaled, one.kinds) if kind in READ_KINDS]
        writes = [t for t, kind in zip(scaled, one.kinds) if kind not in READ_KINDS]
        rows["tps"].append(one.committed / one.wall_s * one.slowdown)
        rows["cpu_us_per_txn"].append(
            one.cpu_s / one.slowdown / max(one.committed, 1) * 1e6)
        rows["txn_p50_us"].append(percentile(scaled, 0.5) * 1e6)
        rows["txn_p99_us"].append(percentile(scaled, 0.99) * 1e6)
        rows["read_p50_us"].append(percentile(reads, 0.5) * 1e6)
        rows["write_p50_us"].append(percentile(writes, 0.5) * 1e6)
    return {
        name: percentile(found, 0.25) if name == "txn_p99_us"
        else statistics.median(found)
        for name, found in rows.items()
    }


def run_plain(spec: Spec, seed: int, seconds: float, repeats: int, record: dict):
    """The untraced run: every end-to-end metric."""
    script = make_script(spec, seed)
    mark = NoTrace()
    problems: List[str] = []
    setups = []
    tier = oracle = None
    for _ in range(repeats):
        if tier is not None:
            tier.close()
        tier = oracle = None  # free one set-up before building the next
        (tier, oracle, setup_s, first_block), _wall_s, slowdown = timed(
            lambda: set_up(spec, script, seed, mark)
        )
        setups.append(setup_s / slowdown)
    log(f"set up {repeats}x: " + " ".join(f"{s:.3f}s" for s in setups))
    found = measure(
        tier, spec, script, oracle, seed, mark, first_block, seconds, repeats,
        problems,
    )
    tally, slices = found.tally, found.slices
    log(f"{len(slices)} slices, {tally.attempted} txns, {tally.failed} failed, "
        f"host slowdown {host_slowdown(slices):.2f}")
    finish(tier, oracle, mark, problems)
    if not tally.balanced:
        problems.append("attempted != committed + aborted + errors + shed + "
                        "expired + lost")
    scanned = sum(report.records_scanned for report in found.reports)
    window, n = found.window, found.window_txns
    units = {"tps": "1/s"}
    metrics = {"setup_s": (statistics.median(setups), "s")}
    metrics.update(
        (name, (value, units.get(name, "us")))
        for name, value in timing_metrics(slices).items()
    )
    metrics.update({
        "peak_rss_mb": (window["rss_mb_end"], "MiB"),
        "wal_bytes_per_txn": (window["wal_bytes"] / n, "B"),
        "fsyncs_per_txn": (window["fsyncs"] / n, "count"),
        "recover_ms_per_krec": (
            statistics.median(found.recover_s) / scanned * 1e6, "ms"),
    })
    record.update(
        slowdown=host_slowdown(slices), setups_s=setups,
        recover_s=found.recover_s,
        recover_records=scanned, window={"txns": n, **window},
        slices=[{
            "txns": s.txns, "committed": s.committed, "wall_s": s.wall_s,
            "cpu_s": s.cpu_s, "slowdown": s.slowdown,
            "p50_us": percentile(s.latencies, 0.5) * 1e6,
            "p99_us": percentile(s.latencies, 0.99) * 1e6,
        } for s in slices],
    )
    return metrics, tally, problems


def run_traced(spec: Spec, seed: int, seconds: float, record: dict):
    """The traced run: every per-layer metric.

    First the counter window untraced -- the program's own counters and
    the untraced cost per transaction -- then, on a fresh set-up built
    with the wrappers already in place, ``seconds`` of traced slices and
    one traced crash + recovery.
    """
    script = make_script(spec, seed)
    problems: List[str] = []
    tier, oracle, _setup_s, first_block = set_up(spec, script, seed, NoTrace())
    plain = measure(
        tier, spec, script, oracle, seed, NoTrace(), first_block, None, 0, problems
    )
    tier.close()
    del tier
    if not oracle.ok:
        problems.append(f"untraced window: {'; '.join(oracle.messages)}")

    tracer = Tracer()
    tracer.install()
    try:
        tier, oracle, _setup_s, first_block = set_up(spec, script, seed, tracer)
        found = measure(
            tier, spec, script, oracle, seed, tracer, first_block, seconds, 1,
            problems,
        )
        program = tier.counters()
        finish(tier, oracle, tracer, problems)
    finally:
        tracer.uninstall()
    problems.extend(f"still wrapped: {name}" for name in leftover_wrappers(tracer))

    tally, slices = found.tally, found.slices
    log(f"traced {len(slices)} slices, {tally.attempted} txns, "
        f"{len(tracer.spans)} spans")
    if not (tally.balanced and plain.tally.balanced):
        problems.append("attempted != committed + aborted + errors + shed + "
                        "expired + lost")

    def cpu_us_per_txn(measured) -> float:
        # CPU, not wall: on the open loop the schedule fixes the wall time
        return statistics.median(
            s.cpu_s / s.slowdown / s.txns for s in measured) * 1e6

    metrics, errors = layer_metrics(
        tracer, spec.tier,
        committed=tally.committed,
        timed_cpu_s=sum(s.cpu_s for s in slices),
        slowdown=host_slowdown(slices),
        window=plain.window, window_txns=plain.window_txns,
        program=program, reports=found.reports, recover_s=found.recover_s[0],
        late_s=[t for s in slices for t in s.late_s],
        slo_missed=min(tally.attempted, tally.failed + sum(
            1 for s in slices for t in s.latencies if t > SLO_S * s.slowdown)),
        attempted=tally.attempted,
        untraced_us_per_txn=cpu_us_per_txn(plain.slices),
        traced_us_per_txn=cpu_us_per_txn(slices[:spec.window_slices]),
    )
    problems.extend(errors)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace_{spec.name}.json", TRACE_FILE_TXNS)
    tally.attempted += plain.tally.attempted
    tally.committed += plain.tally.committed
    shaped = {name: (metrics[name], unit) for name, unit, _better in PER_LAYER}
    return shaped, tally, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="set-ups and crash+recover rounds per untraced run; the "
             "median of each is reported (default 5)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeats < 1:
        parser.error("--seconds must be positive and --repeats at least 1")
    spec = SPEC_BY_NAME[args.workload]
    record: Dict[str, Any] = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spin_s": [calibration_spin()],
    }
    if args.trace:
        metrics, tally, problems = run_traced(spec, args.seed, args.seconds, record)
    else:
        metrics, tally, problems = run_plain(
            spec, args.seed, args.seconds, args.repeats, record
        )
    record["spin_s"].append(calibration_spin())
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record.update(result, problems=problems)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"run_{spec.name}_{args.seed}_{args.trace}.json"
    out.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
