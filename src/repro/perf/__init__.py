"""``repro.perf``: the performance-observability subsystem.

Three layers, built on :mod:`repro.obs`:

* :mod:`repro.perf.openloop` -- coordinated-omission-free load
  generation: Poisson/burst arrival schedules per client class, with
  latency timestamped from the *scheduled* start, not the actual one.
* :mod:`repro.perf.profiler` -- a deterministic subsystem profiler
  (``sys.setprofile`` tracer, plus a virtual-clock sampler for DES
  runs) attributing measured time to engine subsystems.
* :mod:`repro.perf.harness` -- the two-stage measured harness: a pilot
  run calibrates iteration count and target rate, a measured run
  records wall/CPU/RSS and tail percentiles, an optional profile pass
  produces the subsystem cost breakdown.

Comparing commits is not done here: ``bench/`` (see ``bench/README.md``)
is the repo's one benchmark.
"""

from repro.perf.harness import MeasuredRun, TwoStageHarness, perf_workload_names
from repro.perf.openloop import (
    ArrivalSpec,
    OpenLoopResult,
    arrival_offsets,
    arrival_offsets_window,
    parse_arrival,
    replay_open_loop,
    run_closed_loop,
    run_open_loop,
)
from repro.perf.profiler import SUBSYSTEMS, ClockSampler, SubsystemProfiler

__all__ = [
    "ArrivalSpec",
    "ClockSampler",
    "MeasuredRun",
    "OpenLoopResult",
    "SUBSYSTEMS",
    "SubsystemProfiler",
    "TwoStageHarness",
    "arrival_offsets",
    "arrival_offsets_window",
    "parse_arrival",
    "perf_workload_names",
    "replay_open_loop",
    "run_closed_loop",
    "run_open_loop",
]
