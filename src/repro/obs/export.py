"""Exporters: Chrome ``trace_event`` JSON and Prometheus text.

Two formats, one source of truth (an :class:`~repro.obs.observer.
Observer`):

* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Trace Event
  Format understood by ``chrome://tracing`` and Perfetto.  Span tracks
  become named "threads", sim-time seconds become microsecond ``ts``
  values, instants render as markers -- a whole chaos run opens as one
  timeline.
* :func:`metrics_to_prometheus` / :func:`write_prometheus` -- a
  text-format snapshot (counters as ``_total``, histograms with
  ``_bucket``/``_sum``/``_count``) that ``promtool`` and scrapers parse.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List

from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import Span, Tracer

#: every span lives in one "process" in the chrome rendering
TRACE_PID = 1


def _track_ids(spans: List[Span]) -> Dict[str, int]:
    tracks: Dict[str, int] = {}
    for span in spans:
        if span.track not in tracks:
            tracks[span.track] = len(tracks) + 1
    return tracks


def chrome_trace(observer: Observer | Tracer) -> Dict[str, Any]:
    """Build the ``{"traceEvents": [...]}`` document as a dict."""
    tracer = observer.tracer if isinstance(observer, Observer) else observer
    spans = list(tracer.spans())
    tracks = _track_ids(spans)
    events: List[Dict[str, Any]] = []
    for track, tid in tracks.items():
        events.append({
            "ph": "M", "pid": TRACE_PID, "tid": tid,
            "name": "thread_name", "args": {"name": track},
        })
    for span in spans:
        args = dict(span.attrs) if span.attrs else {}
        if span.parent_id is not None:
            args["parent_span"] = span.parent_id
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tracks[span.track],
            "ts": span.start_s * 1e6,
            "args": args,
        }
        if span.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = max(0.0, span.duration_s) * 1e6
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(observer: Observer | Tracer, path: str) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    document = chrome_trace(observer)
    with open(path, "w") as handle:
        json.dump(document, handle)
    return len(document["traceEvents"])


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Metric names like ``repl.lag_s.replica:0`` -> valid Prometheus
    identifiers (dots and colons in the tail become underscores)."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _prom_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def metrics_to_prometheus(
    registry: MetricsRegistry, tracer: Tracer | None = None
) -> str:
    """Render the registry in the Prometheus exposition text format.

    With ``tracer`` the snapshot also exposes the tracer's own health
    (``tracer_spans_recorded_total`` / ``tracer_spans_dropped_total``)
    so a scrape shows when the span ring buffer overflowed.
    """
    lines: List[str] = []
    if tracer is not None:
        lines.append("# TYPE tracer_spans_recorded_total counter")
        lines.append(f"tracer_spans_recorded_total {_prom_value(tracer.recorded)}")
        lines.append("# TYPE tracer_spans_dropped_total counter")
        lines.append(f"tracer_spans_dropped_total {_prom_value(tracer.dropped)}")
    for name, counter in sorted(registry.counters.items()):
        prom = _prom_name(name) + "_total"
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(counter.value)}")
    for name, gauge in sorted(registry.gauges.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(gauge.value)}")
    for name, histogram in sorted(registry.histograms.items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, bucket_count in zip(histogram.bounds, histogram.bucket_counts):
            cumulative += bucket_count
            lines.append(
                f'{prom}_bucket{{le="{_prom_value(bound)}"}} {cumulative}'
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {histogram.count}')
        lines.append(f"{prom}_sum {_prom_value(histogram.sum)}")
        lines.append(f"{prom}_count {histogram.count}")
    return "\n".join(lines) + "\n"


def write_prometheus(observer: Observer | MetricsRegistry, path: str) -> str:
    """Write the text snapshot to ``path``; returns the rendered text."""
    if isinstance(observer, Observer):
        text = metrics_to_prometheus(observer.metrics, tracer=observer.tracer)
    else:
        text = metrics_to_prometheus(observer)
    with open(path, "w") as handle:
        handle.write(text)
    return text
