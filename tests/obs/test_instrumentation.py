"""The observer threaded through engine, cloud DES, chaos and client
layers emits the typed events the timeline and dashboards rely on."""

from repro.chaos.availability import AvailabilityEvaluator
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.cloud.architectures import get as get_architecture
from repro.core.resilience import ResilientSession
from repro.engine.database import Database
from repro.engine.errors import NodeUnavailableError
from repro.engine.types import Column, ColumnType, Schema
from repro.obs import NULL_OBSERVER, Observer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def find(obs, name=None, category=None):
    """The retained spans with this name and/or category, oldest first."""
    return [
        span for span in obs.tracer.spans()
        if (name is None or span.name == name)
        and (category is None or span.category == category)
    ]


def make_db(obs=None):
    db = Database("obs-test", observer=obs)
    db.create_table(Schema(
        "ACCOUNTS",
        (
            Column("A_ID", ColumnType.INT, nullable=False),
            Column("BALANCE", ColumnType.DECIMAL, nullable=False, default=0.0),
        ),
        primary_key="A_ID",
    ))
    for a_id in range(1, 6):
        db.execute("INSERT INTO accounts VALUES (?, ?)", [a_id, 100.0])
    return db


# -- engine ------------------------------------------------------------------


def test_database_defaults_to_null_observer():
    db = make_db()
    assert db.obs is NULL_OBSERVER
    assert len(db.obs.tracer) == 0


def test_commit_and_abort_emit_counters_and_spans():
    clock = FakeClock()
    obs = Observer(clock=clock)
    db = make_db(obs)
    counters = obs.metrics.counters

    clock.now = 10.0
    txn = db.begin()
    db.execute("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?", [1.0, 1], txn=txn)
    clock.now = 10.5
    txn.commit()
    assert counters["engine.txn.commit"].value >= 1
    spans = find(obs, name="txn", category="engine")
    committed = [s for s in spans if s.attrs["outcome"] == "commit"][-1]
    assert committed.start_s == 10.0 and committed.end_s == 10.5
    assert committed.attrs["writes"] == 1

    txn = db.begin()
    db.execute("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?", [2.0, 2], txn=txn)
    txn.rollback()
    assert counters["engine.txn.abort"].value == 1
    aborted = find(obs, name="txn", category="engine")[-1]
    assert aborted.attrs["outcome"] == "abort"

    hist = obs.metrics.histograms["engine.txn.duration_s"]
    assert hist.count == counters["engine.txn.begin"].value


def test_wal_buffer_and_lock_metrics():
    obs = Observer(clock=FakeClock())
    db = make_db(obs)
    db.execute("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?", [7.0, 3])
    db.query("SELECT BALANCE FROM accounts WHERE A_ID = ?", [3])
    counters = obs.metrics.counters
    assert counters["engine.wal.append"].value > 0
    assert counters["engine.wal.bytes"].value > 0
    assert counters["engine.wal.fsync"].value > 0     # one per commit record
    # an autocommit statement's uncontended locks are elided, not taken
    assert counters["engine.lock.elided"].value > 0
    assert counters["engine.lock.granted"].value == 0
    # a lock held to commit is granted, and its release records its hold
    txn = db.begin()
    db.execute("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?", [8.0, 3], txn=txn)
    assert counters["engine.lock.granted"].value == 1
    txn.commit()
    assert obs.metrics.histograms["engine.lock.hold_s"].count == 1


def test_crash_and_recovery_spans():
    obs = Observer(clock=FakeClock())
    db = make_db(obs)
    db.execute("UPDATE accounts SET BALANCE = ? WHERE A_ID = ?", [5.0, 1])
    db.crash()
    report = db.recover()
    assert report is not None
    counters = obs.metrics.counters
    assert counters["engine.crash"].value == 1
    assert counters["engine.recovery.runs"].value == 1
    root = find(obs, name="recovery", category="engine")
    assert len(root) == 1
    for phase in ("recovery.analysis", "recovery.redo", "recovery.undo"):
        (span,) = find(obs, name=phase)
        assert span.parent_id == root[0].span_id
    assert find(obs, name="db.crash")[0].kind == "instant"


# -- chaos -------------------------------------------------------------------


def test_injector_emits_fault_windows_and_bite_markers():
    obs = Observer(clock=FakeClock())
    plan = FaultPlan([
        FaultSpec(FaultKind.PARTITION, "replica:0", start_s=5.0, duration_s=10.0),
    ], seed=1, name="t")
    injector = ChaosInjector(plan, observer=obs)
    (window,) = find(obs, category="chaos")
    assert window.name == "partition"
    assert window.start_s == 5.0 and window.end_s == 15.0
    assert obs.metrics.counters["chaos.fault.partition"].value == 1

    assert injector.partitioned("replica:0", 6.0)
    assert injector.partitioned("replica:0", 7.0)  # bites once in the trace
    bites = find(obs, name="fault.bite")
    assert len(bites) == 1
    assert bites[0].attrs == {"kind": "partition", "target": "replica:0"}


# -- client ------------------------------------------------------------------


def test_resilient_session_observability():
    clock = FakeClock()
    obs = Observer(clock=clock)
    session = ResilientSession(
        ["replica:0", "primary"], clock=clock, observer=obs,
    )
    attempts = {"n": 0}

    def flaky(endpoint):
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise NodeUnavailableError("down")
        return "ok"

    outcome = session.call(flaky)
    assert outcome.ok and outcome.attempts == 2
    counters = obs.metrics.counters
    assert counters["client.calls"].value == 1
    assert counters["client.retries"].value == 1
    assert counters["client.backoff"].value == 1
    assert obs.metrics.histograms["client.call_s"].count == 1
    (span,) = find(obs, name="call", category="client")
    assert span.attrs["ok"] is True and span.attrs["attempts"] == 2


def test_breaker_transitions_traced():
    clock = FakeClock()
    obs = Observer(clock=clock)
    session = ResilientSession(
        ["primary"], clock=clock, observer=obs, breaker_reset_s=0.5,
    )

    def down(endpoint):
        raise NodeUnavailableError("gone")

    session.call(down)
    assert obs.metrics.counters["client.breaker.open"].value >= 1
    assert find(obs, name="breaker.open")


# -- end to end --------------------------------------------------------------


def test_availability_run_produces_all_layer_spans():
    obs = Observer()
    plan = FaultPlan((), seed=3, name="healthy")
    evaluator = AvailabilityEvaluator(
        get_architecture("cdb1"), plan,
        n_clients=2, n_replicas=1, duration_s=3.0,
        row_scale=0.001, observer=obs,
    )
    score = evaluator.run()
    assert score.requests > 0
    categories = {span.category for span in obs.tracer.spans()}
    assert {"engine", "replication", "client"} <= categories
    assert obs.metrics.histograms["repl.lag_s"].count > 0
    # every span carries virtual-time stamps inside the run window
    for span in obs.tracer.spans():
        assert 0.0 <= span.start_s <= span.end_s <= score.duration_s + 10.0
