"""Tracer semantics: nesting, ring buffer, clocks, no-op fast path."""

import pytest

from repro.obs.observer import NULL_OBSERVER, Observer, _NullObserver
from repro.obs.trace import NOOP_SPAN, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_spans_link_parents():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer", "engine") as outer:
        clock.now = 1.0
        with tracer.span("inner", "engine"):
            clock.now = 2.0
        clock.now = 3.0
    spans = list(tracer.spans())
    assert [span.name for span in spans] == ["inner", "outer"]
    inner, outer_span = spans
    assert inner.parent_id == outer.span_id
    assert outer_span.parent_id is None
    assert inner.start_s == 1.0 and inner.end_s == 2.0
    assert outer_span.duration_s == 3.0


def test_span_records_error_attr():
    tracer = Tracer(clock=FakeClock())
    with pytest.raises(RuntimeError):
        with tracer.span("boom", "engine"):
            raise RuntimeError("nope")
    (span,) = tracer.spans()
    assert span.attrs["error"] == "RuntimeError"


def test_explicit_timestamps_and_parents():
    tracer = Tracer(clock=FakeClock())
    ship = tracer.add_complete("ship", "replication", 1.0, 2.0, track="replica:0")
    replay_id = tracer.add_complete("replay", "replication", 2.0, 3.0, track="replica:0")
    assert replay_id != ship
    (replay,) = [span for span in tracer.spans() if span.name == "replay"]
    assert (replay.start_s, replay.end_s) == (2.0, 3.0)
    assert replay.parent_id is None  # interleaved producers bypass the stack
    assert replay.track == "replica:0"


def test_instant_events():
    tracer = Tracer(clock=FakeClock())
    tracer.instant("fault.bite", "chaos", ts=5.0, attrs={"kind": "partition"})
    (span,) = tracer.spans()
    assert span.kind == "instant"
    assert span.start_s == span.end_s == 5.0
    assert span.track == "chaos"  # track defaults to category


def test_ring_buffer_drops_oldest():
    tracer = Tracer(clock=FakeClock(), capacity=3)
    for index in range(5):
        tracer.add_complete(f"s{index}", "x", float(index), float(index))
    assert len(tracer) == 3
    assert tracer.recorded == 5
    assert tracer.dropped == 2
    assert [span.name for span in tracer.spans()] == ["s2", "s3", "s4"]


def test_disabled_tracer_is_noop():
    tracer = Tracer(clock=FakeClock(), enabled=False)
    assert tracer.span("a", "b") is NOOP_SPAN
    with tracer.span("a", "b") as span:
        span.set("k", "v")
    assert tracer.add_complete("a", "b", 0.0, 1.0) == 0
    assert tracer.instant("a", "b") == 0
    assert len(tracer) == 0 and tracer.recorded == 0


def test_observer_clock_rebinding():
    obs = Observer(clock=lambda: 1.0)
    assert obs.now() == 1.0
    obs.bind_clock(lambda: 42.0)
    assert obs.now() == 42.0
    obs.complete("x", "engine", obs.now(), obs.now())
    (span,) = obs.tracer.spans()
    assert span.start_s == 42.0


def test_null_observer_is_inert():
    assert isinstance(NULL_OBSERVER, _NullObserver)
    assert not NULL_OBSERVER.enabled
    NULL_OBSERVER.count("x")
    NULL_OBSERVER.gauge("x", 1.0)
    NULL_OBSERVER.observe("x", 1.0)
    assert NULL_OBSERVER.span("x", "y") is NOOP_SPAN
    assert NULL_OBSERVER.complete("x", "y", 0.0, 1.0) == 0
    assert NULL_OBSERVER.event("x", "y") == 0
    assert NULL_OBSERVER.now() == 0.0
    assert NULL_OBSERVER.metrics.counters == {}
    assert len(NULL_OBSERVER.tracer) == 0


def test_observer_snapshot():
    obs = Observer(clock=lambda: 0.0)
    obs.count("c", 2.0)
    obs.observe("h", 0.5)
    obs.complete("x", "engine", 0.0, 1.0)
    snap = obs.snapshot()
    assert snap["enabled"] is True
    assert snap["metrics"]["counters"]["c"] == 2.0
    assert snap["trace"] == {"spans": 1, "recorded": 1, "dropped": 0}


def test_capacity_validation():
    with pytest.raises(ValueError):
        Tracer(capacity=0)
