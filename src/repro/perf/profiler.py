"""Deterministic subsystem profiler: where did the measured time go?

Attribution is by *engine subsystem*, not by function: every frame
maps through :data:`SUBSYSTEM_MODULES` onto one of
:data:`SUBSYSTEMS` (parser/planner, executor, locks, buffer, WAL,
MVCC, 2PC, or ``other``), so the output is a handful of numbers a
table can carry -- not a 40-thousand-row pprof dump.

Two drivers, one attribution table:

* :class:`SubsystemProfiler` -- a ``sys.setprofile`` tracer.  Every
  call/return event (Python *and* C) closes the interval since the
  previous event and charges it to the subsystem on top of a shadow
  stack.  Deterministic (no signals, no sampling jitter) and complete:
  the per-subsystem seconds sum to the profiled wall time by
  construction.  Slower than an unprofiled run, which is why the
  two-stage harness runs it as a separate pass after the measured run,
  on the same seeds.
* :class:`ClockSampler` -- for virtual-time (DES) evaluations, where
  wall time is meaningless.  It wraps the observer's clock callable;
  each read attributes the virtual time elapsed since the previous
  read to the subsystem of the *calling* stack.  Instrumented sites
  already read the clock at every interesting boundary, so clock reads
  are exactly the sampling points a DES can support deterministically.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.observer import Observer

__all__ = [
    "SUBSYSTEMS",
    "SUBSYSTEM_MODULES",
    "ClockSampler",
    "SubsystemProfiler",
    "classify_filename",
]

#: the subsystems a breakdown reports, in display order
SUBSYSTEMS = (
    "parser",      # SQL parsing and planning
    "executor",    # statement execution / row loops
    "locks",       # 2PL lock manager
    "buffer",      # buffer pool and pages
    "wal",         # write-ahead log and recovery
    "mvcc",        # version chains, transactions, visibility
    "2pc",         # cross-shard coordination and routing
    "other",       # everything else (workload gen, harness, stdlib)
)

#: module basename (under ``repro/``) -> subsystem
SUBSYSTEM_MODULES: Dict[str, str] = {
    "engine/sql.py": "parser",
    "engine/executor.py": "executor",
    "engine/compiler.py": "executor",
    "engine/database.py": "executor",
    "engine/index.py": "executor",
    "engine/locks.py": "locks",
    "engine/buffer.py": "buffer",
    "engine/page.py": "buffer",
    "engine/wal.py": "wal",
    "engine/walcodec.py": "wal",
    "engine/recovery.py": "wal",
    "engine/table.py": "mvcc",
    "engine/txn.py": "mvcc",
    "shard/coordinator.py": "2pc",
    "shard/router.py": "2pc",
    "shard/fleet.py": "2pc",
}

_SENTINEL = "/repro/"


def classify_filename(filename: str) -> str:
    """Map a code object's filename onto a subsystem name."""
    path = filename.replace("\\", "/")
    index = path.rfind(_SENTINEL)
    if index < 0:
        return "other"
    return SUBSYSTEM_MODULES.get(path[index + len(_SENTINEL):], "other")


class SubsystemProfiler:
    """Deterministic ``sys.setprofile`` attribution of wall time.

    Use as a context manager around the run to profile::

        profiler = SubsystemProfiler()
        with profiler:
            workload()
        profiler.breakdown()   # {"executor": 0.41, "wal": 0.18, ...}

    The shadow stack starts at ``other`` (the harness's own loop); a
    frame entering ``repro/engine/wal.py`` pushes ``wal``, and the
    interval up to the *next* event is charged to whatever was on top
    when it elapsed.  C-function events charge the enclosing Python
    frame's subsystem, so builtins called from the executor bill the
    executor.
    """

    def __init__(self, clock: Callable[[], float] = None):
        import time

        self.clock = clock or time.perf_counter
        self.seconds: Dict[str, float] = {name: 0.0 for name in SUBSYSTEMS}
        self.events = 0
        self.wall_s = 0.0
        self._stack: List[str] = []
        self._last: float = 0.0
        self._start: float = 0.0
        self._classify_cache: Dict[str, str] = {}

    # -- the hook ------------------------------------------------------------

    def _classify(self, frame) -> str:
        filename = frame.f_code.co_filename
        subsystem = self._classify_cache.get(filename)
        if subsystem is None:
            subsystem = classify_filename(filename)
            self._classify_cache[filename] = subsystem
        return subsystem

    def _hook(self, frame, event: str, arg) -> None:
        now = self.clock()
        stack = self._stack
        self.seconds[stack[-1] if stack else "other"] += now - self._last
        self.events += 1
        if event == "call":
            stack.append(self._classify(frame))
        elif event == "return":
            if stack:
                stack.pop()
        elif event == "c_call":
            # bill the builtin to the Python frame that invoked it
            stack.append(self._classify(frame))
        elif event == "c_return" or event == "c_exception":
            if stack:
                stack.pop()
        # Reuse the entry timestamp: the hook's own cost is charged to
        # the subsystem whose events caused it, so attributed seconds
        # sum to the profiled wall time (coverage ~1.0) instead of
        # leaking the tracer overhead into an unattributed gap.
        self._last = now

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "SubsystemProfiler":
        self._start = self._last = self.clock()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        sys.setprofile(None)
        now = self.clock()
        stack = self._stack
        self.seconds[stack[-1] if stack else "other"] += now - self._last
        self.wall_s += now - self._start
        self._stack = []

    # -- reading -------------------------------------------------------------

    def breakdown(self) -> Dict[str, float]:
        """Seconds per subsystem, in :data:`SUBSYSTEMS` order."""
        return {name: self.seconds[name] for name in SUBSYSTEMS}

    def shares(self) -> Dict[str, float]:
        """Fractions of the attributed total (sums to 1 when nonzero)."""
        total = sum(self.seconds.values())
        if total <= 0:
            return {name: 0.0 for name in SUBSYSTEMS}
        return {name: self.seconds[name] / total for name in SUBSYSTEMS}

    @property
    def coverage(self) -> float:
        """Attributed seconds as a fraction of the profiled wall time.

        ~1.0 by construction for the setprofile driver; the acceptance
        gate checks >= 0.9 so a broken hook cannot silently report a
        partial breakdown as complete.
        """
        if self.wall_s <= 0:
            return 0.0
        return min(1.0, sum(self.seconds.values()) / self.wall_s)

    def emit(self, observer: Observer, track: str = "perf") -> None:
        """Publish the breakdown into the shared observer.

        One gauge per subsystem (``perf.subsystem.<name>_s``) plus a
        single instant event carrying the whole breakdown, so the
        ``--trace`` timeline shows the cost split next to the spans it
        explains.
        """
        if not observer.enabled:
            return
        for name, value in self.breakdown().items():
            observer.gauge(f"perf.subsystem.{name}_s", value)
        observer.gauge("perf.subsystem.coverage", self.coverage)
        observer.event(
            "perf.subsystem_breakdown", "perf", track=track,
            attrs={
                "wall_s": round(self.wall_s, 6),
                "coverage": round(self.coverage, 4),
                **{name: round(value, 6)
                   for name, value in self.breakdown().items() if value > 0},
            },
        )


class ClockSampler:
    """Virtual-clock-driven attribution for DES evaluations.

    Wraps a clock callable (``VirtualClock.now`` accessor or an
    ``env.now`` lambda); every read attributes the virtual seconds
    elapsed since the previous read to the subsystem of the caller's
    stack (nearest ``repro/`` frame).  Bind it in place of the raw
    clock -- e.g. ``observer.bind_clock(sampler)`` -- and the
    instrumented sites' own clock reads become the sample points:
    deterministic, zero extra machinery, and in virtual time where
    wall-time profilers are blind.
    """

    def __init__(self, clock: Callable[[], float], max_depth: int = 12):
        self.inner = clock
        self.max_depth = max_depth
        self.seconds: Dict[str, float] = {name: 0.0 for name in SUBSYSTEMS}
        self.samples = 0
        self._last: Optional[float] = None
        self._classify_cache: Dict[str, str] = {}

    def _caller_subsystem(self) -> str:
        frame = sys._getframe(2)  # skip __call__ and _caller_subsystem
        depth = 0
        while frame is not None and depth < self.max_depth:
            filename = frame.f_code.co_filename
            subsystem = self._classify_cache.get(filename)
            if subsystem is None:
                subsystem = classify_filename(filename)
                self._classify_cache[filename] = subsystem
            if subsystem != "other":
                return subsystem
            frame = frame.f_back
            depth += 1
        return "other"

    def __call__(self) -> float:
        now = self.inner()
        if self._last is not None and now > self._last:
            self.seconds[self._caller_subsystem()] += now - self._last
        self._last = now
        self.samples += 1
        return now

    def breakdown(self) -> Dict[str, float]:
        return {name: self.seconds[name] for name in SUBSYSTEMS}

    def shares(self) -> Dict[str, float]:
        total = sum(self.seconds.values())
        if total <= 0:
            return {name: 0.0 for name in SUBSYSTEMS}
        return {name: self.seconds[name] / total for name in SUBSYSTEMS}
