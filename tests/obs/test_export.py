"""Exporter formats: Chrome trace_event, Prometheus text."""

import io
import json

from repro.obs.export import (
    TRACE_PID,
    chrome_trace,
    metrics_to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.observer import Observer


def make_observer():
    obs = Observer(clock=lambda: 0.0)
    obs.complete("txn", "engine", 1.0, 1.5, track="engine",
                 attrs={"txn_id": 7, "outcome": "commit"})
    obs.complete("ship", "replication", 1.5, 1.6, track="replica:0")
    obs.complete("replay", "replication", 1.6, 1.7, track="replica:0")
    obs.event("breaker.open", "client", ts=2.0, track="client")
    obs.count("engine.txn.commit")
    obs.observe("repl.lag_s", 0.2)
    obs.gauge("vcores", 4.0)
    return obs


def test_chrome_trace_structure():
    doc = chrome_trace(make_observer())
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {m["args"]["name"] for m in meta} == {"engine", "replica:0", "client"}
    assert all(m["name"] == "thread_name" for m in meta)

    complete = [e for e in events if e["ph"] == "X"]
    txn = next(e for e in complete if e["name"] == "txn")
    assert txn["ts"] == 1.0 * 1e6          # seconds -> microseconds
    assert txn["dur"] == 0.5 * 1e6
    assert txn["pid"] == TRACE_PID
    assert txn["args"]["outcome"] == "commit"

    replay = next(e for e in complete if e["name"] == "replay")
    ship = next(e for e in complete if e["name"] == "ship")
    assert replay["tid"] == ship["tid"]    # same track, same thread row

    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1
    assert instants[0]["s"] == "t"
    assert "dur" not in instants[0]


def test_write_chrome_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(make_observer(), str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == count
    assert count == 3 + 4  # 3 track metadata + 4 span events


def test_prometheus_text_format():
    obs = make_observer()
    text = metrics_to_prometheus(obs.metrics)
    assert "# TYPE engine_txn_commit_total counter" in text
    assert "engine_txn_commit_total 1.0" in text
    assert "# TYPE vcores gauge" in text
    assert "vcores 4.0" in text
    assert "# TYPE repl_lag_s histogram" in text
    assert 'repl_lag_s_bucket{le="+Inf"} 1' in text
    assert "repl_lag_s_sum 0.2" in text
    assert "repl_lag_s_count 1" in text

    # bucket counts are cumulative and end at the total count
    bucket_lines = [
        line for line in text.splitlines() if line.startswith("repl_lag_s_bucket")
    ]
    counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
    assert counts == sorted(counts)
    assert counts[-1] == 1


def test_write_prometheus_accepts_registry_or_observer(tmp_path):
    obs = make_observer()
    path_a = tmp_path / "a.prom"
    path_b = tmp_path / "b.prom"
    text_a = write_prometheus(obs, str(path_a))
    text_b = write_prometheus(obs.metrics, str(path_b))
    assert text_a == path_a.read_text()
    assert text_b == path_b.read_text()
    # The observer path adds the tracer's own accounting on top of the
    # identical registry snapshot; a bare registry has no tracer.
    assert text_a.endswith(text_b)
    assert "tracer_spans_recorded_total" in text_a
    assert "tracer_spans_recorded_total" not in text_b
