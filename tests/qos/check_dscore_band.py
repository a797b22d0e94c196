"""CI gate: per-architecture D-Scores must sit in their pinned bands.

Runs the overload evaluator at the quick sizing with the default seed
and asserts, for every architecture:

* **qos on** -- D-Score >= 0.9 (goodput holds past the knee);
* **qos off** -- D-Score in [0.15, 0.5] (the baseline collapses, but
  not to an implausible zero -- a 0.0 here means the simulation broke,
  not that the baseline got worse).

The bands are intentionally loose around the measured values (~1.0 and
~0.30-0.36) so parameter-sensitive drift fails loudly while jitter in
the last decimals does not.  Exits non-zero on any violation.

Usage: ``PYTHONPATH=src python tests/qos/check_dscore_band.py``
"""

import sys

from repro.core.config import BenchConfig
from repro.core.runner import CloudyBench

QOS_MIN = 0.9
NOQOS_BAND = (0.15, 0.5)


def main() -> int:
    bench = CloudyBench(BenchConfig.quick())
    failures = []
    for qos in (True, False):
        for arch, result in bench.run("overload", qos=qos).payload.items():
            dscore = result.dscore
            if qos:
                ok = dscore >= QOS_MIN
                band = f">= {QOS_MIN}"
            else:
                ok = NOQOS_BAND[0] <= dscore <= NOQOS_BAND[1]
                band = f"in [{NOQOS_BAND[0]}, {NOQOS_BAND[1]}]"
            flag = "ok" if ok else "FAIL"
            print(
                f"{flag:4s} qos={'on ' if qos else 'off'} {arch:10s} "
                f"D-Score {dscore:.3f} (want {band})"
            )
            if not ok:
                failures.append((qos, arch, dscore))
    if failures:
        print(f"{len(failures)} D-Score(s) out of band", file=sys.stderr)
        return 1
    print("all D-Scores in band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
