"""Unified observability: metrics, tracing and timeline export.

``repro.obs`` gives every layer of the testbed -- the storage engine,
the cloud discrete-event simulation, and the resilient client -- one
:class:`~repro.obs.observer.Observer` handle that collects typed
metrics (counters / gauges / mergeable latency histograms) and
structured spans, then exports them as Chrome ``trace_event`` JSON
or a Prometheus-style text snapshot.  See
``docs/observability.md`` for the span taxonomy and metric names.
"""

from repro.obs.export import (
    chrome_trace,
    metrics_to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import Span, Tracer

__all__ = [
    "Observer",
    "NULL_OBSERVER",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_LATENCY_BOUNDS",
    "Tracer",
    "Span",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_to_prometheus",
    "write_prometheus",
]
