"""Zero-dependency metrics: counters, gauges and latency histograms.

The registry is the numeric half of the observability layer (spans are
the other half, see :mod:`repro.obs.trace`).  Three deliberate design
constraints keep it usable inside both the wall-clock engine paths and
the virtual-time DES paths:

* **fixed buckets** -- histograms pre-allocate their bucket boundaries,
  so ``observe`` is an O(log B) bisect with no allocation; two
  histograms with the same boundaries merge by adding counts, which
  makes per-worker or per-run aggregation exact and associative;
* **time-agnostic** -- nothing here reads a clock; values are whatever
  the instrumented site passes in (wall seconds, sim seconds, bytes);
* **no labels cardinality traps** -- a metric name is just a string;
  callers bake the label into the name (``repl.lag_s.replica:0``) and
  the Prometheus exporter splits it back out.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

#: default latency boundaries: 1 us .. ~100 s, four buckets per decade
def _default_bounds() -> Tuple[float, ...]:
    bounds: List[float] = []
    mantissas = (1.0, 1.78, 3.16, 5.62)
    for exponent in range(-6, 3):
        for mantissa in mantissas:
            bounds.append(round(mantissa * 10.0 ** exponent, 12))
    return tuple(bounds)


DEFAULT_LATENCY_BOUNDS = _default_bounds()

#: the tail percentiles every snapshot reports
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: the percentiles every latency table reports
LATENCY_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def _key(pct: float) -> str:
    return "p" + f"{pct:g}".replace(".", "")


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self) -> None:
        self.value -= 1.0


class Histogram:
    """Fixed-bucket histogram with interpolated percentile estimates.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge.
    ``percentile`` interpolates linearly inside the winning bucket and
    clamps to the observed ``min``/``max``, so estimates degrade
    gracefully rather than inventing values outside the observed range.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None):
        self.name = name
        chosen = tuple(bounds) if bounds is not None else DEFAULT_LATENCY_BOUNDS
        if not chosen:
            raise ValueError("histogram needs at least one bucket boundary")
        if list(chosen) != sorted(chosen):
            raise ValueError("bucket boundaries must be sorted ascending")
        if len(set(chosen)) != len(chosen):
            raise ValueError("bucket boundaries must be distinct")
        self.bounds: Tuple[float, ...] = chosen
        self.bucket_counts: List[int] = [0] * (len(chosen) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (0 < pct <= 100)."""
        if not 0.0 < pct <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {pct}")
        if self.count == 0:
            return 0.0
        rank = pct / 100.0 * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else max(self.max, self.bounds[-1])
                )
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(self.max, max(self.min, estimate))
            cumulative += bucket_count
        return self.max  # pragma: no cover - rank <= count always hits

    def quantile_summary(self) -> Dict[str, float]:
        """The tail summary every report prints (p50/p90/p99/p999)."""
        return {_key(pct): self.percentile(pct) for pct in TAIL_PERCENTILES}

    def latency_summary_ms(self) -> Dict[str, float]:
        """The p50/p95/p99/p999 block of a latency table, in ms (the
        observations are seconds); ``{}`` before the first observation."""
        if not self.count:
            return {}
        return {_key(pct): self.percentile(pct) * 1000.0 for pct in LATENCY_PERCENTILES}

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s observations into this histogram (associative)."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.name!r} vs {other.name!r})"
            )
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class MetricsRegistry:
    """Get-or-create home of every metric in one observed run."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge(name)
        return gauge

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name, bounds)
        return histogram

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry (e.g. a worker's) into this one."""
        for name, counter in other.counters.items():
            self.counter(name).merge(counter)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other.histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict dump: counters and gauges by value, histograms by
        count/mean/tail percentiles.  JSON-serialisable as-is."""
        out: Dict[str, Dict[str, float]] = {"counters": {}, "gauges": {}}
        for name, counter in sorted(self.counters.items()):
            out["counters"][name] = counter.value
        for name, gauge in sorted(self.gauges.items()):
            out["gauges"][name] = gauge.value
        hists: Dict[str, Dict[str, float]] = {}
        for name, histogram in sorted(self.histograms.items()):
            summary: Dict[str, float] = {
                "count": float(histogram.count),
                "mean": histogram.mean,
            }
            if histogram.count:
                summary["min"] = histogram.min
                summary["max"] = histogram.max
                summary.update(histogram.quantile_summary())
            hists[name] = summary
        out["histograms"] = hists  # type: ignore[assignment]
        return out
