"""``repro.perf``: arrival schedules and coordinated-omission-free replay.

* :mod:`repro.perf.openloop` -- Poisson/burst arrival schedules
  (:func:`arrival_offsets`, :func:`arrival_offsets_window`, parsed from
  the ``arrival=`` option by :func:`parse_arrival`) and
  :func:`replay_open_loop`, which charges already-measured service
  times their queueing delay from the *scheduled* start.  The
  ``scaleout-real``, ``oltp`` and ``ha`` evaluators run closed and
  build their open-loop view with :func:`replay_closed_run`;
  ``overload`` (a discrete-event simulation) and ``serve`` (real
  sockets) drive their schedules live, because what they measure is
  the queue the arrivals build.
* :mod:`repro.perf.trajectory` -- the home of ``calibration_spin``,
  which ``bench/run.py`` imports from that path.

Measuring and comparing commits is not done here: ``bench/`` (see
``bench/README.md``) is the repo's one benchmark.
"""

from repro.perf.openloop import (
    ArrivalSpec,
    OpenLoopResult,
    arrival_offsets,
    arrival_offsets_window,
    parse_arrival,
    replay_closed_run,
    replay_open_loop,
)

__all__ = [
    "ArrivalSpec",
    "OpenLoopResult",
    "arrival_offsets",
    "arrival_offsets_window",
    "parse_arrival",
    "replay_closed_run",
    "replay_open_loop",
]
