"""The two-stage measured harness (pilot -> measured -> profile).

Stage one, the **pilot**, runs a short closed-loop burst on its own
seed stream and observes the host's service rate.  From that it
calibrates stage two: the measured iteration count (quantised to
powers of two so "this host is 7% faster today" does not change *what*
runs) and the open-loop target arrival rate.  Stage two, the
**measured run**, rebuilds the workload from scratch on the measured
seed stream -- pilot writes never leak into the measured heap, and
pilot draws never perturb the measured statement sequence -- and
records wall time, CPU time, peak RSS, deterministic work counters,
and the p50/p95/p99/p999 latency block from the mergeable histograms.
An optional third pass replays the same measured seeds under the
:class:`~repro.perf.profiler.SubsystemProfiler` so attribution cost
never pollutes the timing numbers.

Seeding discipline (the whole point of the named streams):

* ``perf.<workload>.pilot``     -- pilot workload draws
* ``perf.<workload>.measured``  -- measured (and profile) workload draws
* ``perf.<workload>.arrival``   -- the arrival process

so a faster machine (different pilot length) or a different arrival
spec still measures the byte-identical statement sequence, which is
what makes committed/aborted/fsync counts exact, machine-independent
values.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.observer import Observer
from repro.perf.openloop import (
    ArrivalSpec,
    OpenLoopResult,
    arrival_offsets,
    parse_arrival,
    run_closed_loop,
    run_open_loop,
)
from repro.perf.profiler import SubsystemProfiler
from repro.sim.rng import RngRegistry, derive_seed

__all__ = [
    "MeasuredRun",
    "PerfWorkload",
    "TwoStageHarness",
    "peak_rss_kb",
    "perf_workload_names",
]

#: iteration-count bounds the pilot calibration is clamped to
MIN_TXNS = 64
MAX_TXNS = 50_000


def peak_rss_kb() -> float:
    """Process peak RSS in KiB (``ru_maxrss``; 0.0 where unsupported).

    A high-water mark over the whole process lifetime, so comparable
    only between runs of the same entry point.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak /= 1024.0
    return float(peak)


def _quantise(value: int) -> int:
    """Round to the nearest power of two (calibration stability)."""
    if value <= 1:
        return 1
    power = 1
    while power * 2 <= value:
        power *= 2
    return power * 2 if value - power > power * 2 - value else power


@dataclass
class PerfWorkload:
    """A measurable workload: a factory plus its identifying params.

    ``build(stage_seed)`` returns ``(run_one, counters)`` where
    ``run_one()`` executes one transaction (returning ``False`` on a
    retryable abort) and ``counters()`` reads the deterministic work
    counters ``{"committed": ..., "aborted": ..., "fsyncs": ...}``
    accumulated so far.
    """

    name: str
    params: Dict[str, Any]
    build: Callable[[int], Tuple[Callable[[], object], Callable[[], Dict[str, int]]]]


@dataclass
class MeasuredRun:
    """Everything stage two (plus the profile pass) produced."""

    workload: str
    arrival: ArrivalSpec
    seed: int
    params: Dict[str, Any]
    # pilot
    pilot_txns: int
    pilot_wall_s: float
    pilot_rate_tps: float
    target_rate_tps: float
    # measured
    txns: int
    committed: int
    aborted: int
    fsyncs: int
    wall_s: float
    cpu_s: float
    peak_rss_kb: float
    service: OpenLoopResult
    openloop: Optional[OpenLoopResult] = None
    # profile pass
    profile: Optional[SubsystemProfiler] = None
    extra_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def tps(self) -> float:
        return self.committed / self.wall_s if self.wall_s > 0 else 0.0


# ---------------------------------------------------------------------------
# built-in workloads
# ---------------------------------------------------------------------------

def _sales_workload(
    name: str,
    n_shards: int,
    cross_ratio: float,
    seed: int,
    row_scale: float,
    observer: Optional[Observer],
) -> PerfWorkload:
    """The payment workload against a freshly loaded shard fleet."""
    from repro.shard.fleet import load_sales_fleet
    from repro.shard.workload import ShardSalesWorkload

    def build(stage_seed: int):
        fleet, _data = load_sales_fleet(
            n_shards, row_scale=row_scale, seed=seed, observer=observer,
        )
        workload = ShardSalesWorkload(
            fleet, cross_ratio=cross_ratio, seed=stage_seed
        )
        fsyncs_at_start = fleet.fsyncs

        def counters() -> Dict[str, int]:
            return {
                "committed": workload.committed,
                "aborted": workload.aborted,
                "cross_committed": workload.cross_committed,
                "fsyncs": fleet.fsyncs - fsyncs_at_start,
            }

        return workload.run_one, counters

    return PerfWorkload(
        name=name,
        params={
            "n_shards": n_shards,
            "cross_ratio": cross_ratio,
            "row_scale": row_scale,
        },
        build=build,
    )


def perf_workload_names() -> Tuple[str, ...]:
    """The workloads the harness knows how to build."""
    return ("oltp", "shard")


class TwoStageHarness:
    """Pilot -> measured -> profile, producing one :class:`MeasuredRun`.

    ``txns=None`` lets the pilot calibrate the measured iteration
    count to roughly ``target_s`` seconds of work; a fixed ``txns``
    (what ``--quick`` uses) makes the deterministic counters
    byte-comparable across machines.
    """

    def __init__(
        self,
        seed: int = 42,
        row_scale: float = 0.002,
        pilot_txns: int = 48,
        target_s: float = 1.5,
        txns: Optional[int] = None,
        arrival: ArrivalSpec | str = "poisson",
        rate_factor: float = 1.0,
        profile: bool = True,
        shard_cross_ratio: float = 0.2,
        observer: Optional[Observer] = None,
    ):
        if pilot_txns < 1:
            raise ValueError("pilot_txns must be >= 1")
        if target_s <= 0:
            raise ValueError("target_s must be positive")
        if txns is not None and txns < 1:
            raise ValueError("txns must be >= 1")
        if rate_factor <= 0:
            raise ValueError("rate_factor must be positive")
        self.seed = seed
        self.row_scale = row_scale
        self.pilot_txns = pilot_txns
        self.target_s = target_s
        self.txns = txns
        self.arrival = parse_arrival(arrival)
        self.rate_factor = rate_factor
        self.profile = profile
        self.shard_cross_ratio = shard_cross_ratio
        self.observer = observer

    # -- workload construction ----------------------------------------------

    def workload(self, name: str) -> PerfWorkload:
        if name == "oltp":
            return _sales_workload(
                "oltp", n_shards=1, cross_ratio=0.0, seed=self.seed,
                row_scale=self.row_scale, observer=self.observer,
            )
        if name == "shard":
            return _sales_workload(
                "shard", n_shards=2, cross_ratio=self.shard_cross_ratio,
                seed=self.seed, row_scale=self.row_scale,
                observer=self.observer,
            )
        raise KeyError(
            f"unknown perf workload {name!r}; one of {perf_workload_names()}"
        )

    # -- the stages ----------------------------------------------------------

    def _stage_seed(self, workload: str, stage: str) -> int:
        return derive_seed(self.seed, f"perf.{workload}.{stage}")

    def run(self, name: str) -> MeasuredRun:
        spec = self.workload(name)
        observer = self.observer

        # Stage one: pilot.  Its own seed stream AND its own fleet --
        # nothing it touches survives into the measured run.
        run_one, _counters = spec.build(self._stage_seed(name, "pilot"))
        pilot_start = time.perf_counter()
        for _ in range(self.pilot_txns):
            run_one()
        pilot_wall = time.perf_counter() - pilot_start
        pilot_rate = self.pilot_txns / pilot_wall if pilot_wall > 0 else 0.0

        if self.txns is not None:
            txns = self.txns
        else:
            txns = _quantise(
                max(MIN_TXNS, min(MAX_TXNS, round(pilot_rate * self.target_s)))
            )
        target_rate = (
            self.arrival.rate
            if self.arrival.rate is not None
            else max(1.0, pilot_rate * self.rate_factor)
        )

        # Stage two: the measured run, rebuilt from scratch.  GC is
        # collected and paused for the duration: a cycle collection
        # triggered by the pilot's (or a previous workload's) garbage
        # landing mid-loop shows up as a multi-millisecond tail spike
        # that has nothing to do with the workload under test.
        run_one, counters = spec.build(self._stage_seed(name, "measured"))
        gc_was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            if self.arrival.is_open:
                arrival_rng = RngRegistry(
                    self._stage_seed(name, "arrival")
                ).stream(self.arrival.kind)
                offsets = arrival_offsets(
                    self.arrival, target_rate, txns, arrival_rng
                )
                openloop = run_open_loop(
                    run_one, offsets, observer=observer,
                    metric=f"perf.{name}.openloop.latency_s",
                )
                service = openloop.service_view()
            else:
                openloop = None
                service = run_closed_loop(
                    run_one, txns, observer=observer,
                    metric=f"perf.{name}.service_s",
                )
            wall_s = time.perf_counter() - wall_start
            cpu_s = time.process_time() - cpu_start
        finally:
            if gc_was_enabled:
                gc.enable()
        if observer is not None and observer.enabled:
            observer.complete(
                f"perf.measured.{name}", "perf",
                wall_start, wall_start + wall_s,
                track="perf", attrs={"txns": txns},
            )
        counts = counters()

        # Stage three (optional): the profile pass replays the measured
        # seeds under the deterministic tracer -- identical statements,
        # separate timing, so attribution overhead stays out of stage 2.
        profiler = None
        if self.profile:
            run_one, _counters = spec.build(self._stage_seed(name, "measured"))
            profiler = SubsystemProfiler()
            with profiler:
                for _ in range(txns):
                    run_one()
            if observer is not None:
                profiler.emit(observer)

        extra = {
            key: value for key, value in counts.items()
            if key not in ("committed", "aborted", "fsyncs")
        }
        return MeasuredRun(
            workload=name,
            arrival=self.arrival,
            seed=self.seed,
            params=spec.params,
            pilot_txns=self.pilot_txns,
            pilot_wall_s=pilot_wall,
            pilot_rate_tps=pilot_rate,
            target_rate_tps=target_rate if self.arrival.is_open else 0.0,
            txns=txns,
            committed=counts.get("committed", 0),
            aborted=counts.get("aborted", 0),
            fsyncs=counts.get("fsyncs", 0),
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_kb=peak_rss_kb(),
            service=service,
            openloop=openloop,
            profile=profiler,
            extra_counters=extra,
        )
