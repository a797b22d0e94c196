"""Deterministic simulation kernel used by the cloud substrate.

The kernel provides three building blocks:

* :mod:`repro.sim.events` -- a small discrete-event simulation (DES)
  engine with generator-based processes, in the spirit of SimPy but
  dependency-free and fully deterministic.
* :mod:`repro.sim.resources` -- FIFO resources for modelling CPUs, I/O
  channels and network links, and step-function time series.
* :mod:`repro.sim.mva` -- an exact Mean Value Analysis solver for closed
  queueing networks, used for fast steady-state throughput estimates.
* :mod:`repro.sim.rng` -- named deterministic random streams so that
  every experiment is reproducible bit-for-bit.
"""

from repro.sim.events import Environment, Event, Process, Timeout, VirtualClock
from repro.sim.mva import Center, ClosedNetwork, MvaSolution
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "Center",
    "ClosedNetwork",
    "Environment",
    "Event",
    "MvaSolution",
    "Process",
    "Resource",
    "RngRegistry",
    "Timeout",
    "VirtualClock",
]
