"""The calibration spin: a fixed pure-Python loop timed on this host.

``bench/run.py`` imports :func:`calibration_spin` from this path and
records it beside every run as a coarse host-speed reading.
"""

from __future__ import annotations

import time
from typing import List

__all__ = ["calibration_spin"]

#: iteration count of the spin
_SPIN_ITERATIONS = 200_000


def calibration_spin() -> float:
    """Wall seconds of a fixed pure-Python loop on this host.

    The loop shape (integer arithmetic + a list append per iteration)
    roughly matches the engine's own byte-shuffling.  Best-of-three to
    shrug off a noisy neighbour.
    """
    best = float("inf")
    for _ in range(3):
        sink: List[int] = []
        append = sink.append
        start = time.perf_counter()
        acc = 0
        for i in range(_SPIN_ITERATIONS):
            acc = (acc + i * 31) & 0xFFFFFFFF
            if not i & 1023:
                append(acc)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best
