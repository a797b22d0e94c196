"""Replayers send the same statements; the oracle tells right from wrong."""

import asyncio

from repro.core.client import EngineClient
from repro.core.datagen import load_sales_database
from repro.engine.executor import ResultSet

from bench.oracle import Oracle
from bench.replay import NoTrace, Tally, _frame, replay_async, replay_sync
from bench.script import BEGIN, COMMIT, EXECUTE, QUERY, KeySpace, SalesScript

KEYS = KeySpace(orders=300, customers=300, orderlines=2_700)
_EMPTY = ResultSet((), [], 0)


class SyncRecorder:
    in_txn = False

    def __init__(self):
        self.calls = []

    def execute(self, sql, params=()):
        self.calls.append((EXECUTE, sql, tuple(params)))
        return _EMPTY

    def query(self, sql, params=()):
        self.calls.append((QUERY, sql, tuple(params)))
        return _EMPTY

    def begin(self):
        self.calls.append((BEGIN, None, ()))

    def commit(self):
        self.calls.append((COMMIT, None, ()))


class AsyncRecorder(SyncRecorder):
    connected = True

    async def execute(self, sql, params=()):
        return SyncRecorder.execute(self, sql, params)

    async def query(self, sql, params=()):
        return SyncRecorder.query(self, sql, params)

    async def begin(self):
        SyncRecorder.begin(self)

    async def commit(self):
        SyncRecorder.commit(self)


def test_sync_and_async_replayers_issue_identical_statements():
    txns = SalesScript(5, KEYS).txns(0, 0, 10)
    scripted = [step for _kind, steps in txns for step in steps]
    sync, tally = SyncRecorder(), Tally()
    latencies, results = replay_sync(sync, txns, tally, NoTrace())
    assert sync.calls == scripted
    assert len(latencies) == len(txns) and tally.committed == len(txns)
    assert len(results) == sum(1 for verb, _s, _p in scripted if verb in (EXECUTE, QUERY))

    recorder, tally = AsyncRecorder(), Tally()
    asyncio.run(replay_async([recorder], [txns], tally, NoTrace()))
    assert recorder.calls == scripted
    assert tally.balanced and tally.committed == len(txns)
    # the pipelining replayer builds its frames from the same steps
    ops = [_frame(*step)["op"] for step in scripted]
    assert ops == [("execute", "query", "begin", "commit")[verb] for verb, _s, _p in scripted]


def _loaded():
    db, _ = load_sales_database(row_scale=0.001)
    db.checkpoint()
    oracle = Oracle(
        (row for _rid, row in db.table("ORDERS").scan()),
        (row for _rid, row in db.table("CUSTOMER").scan()),
        db.table("ORDERLINE").row_count,
    )
    return db, oracle


def _final(db, oracle):
    oracle.check_final(
        (row for _rid, row in db.table("ORDERS").scan()),
        (row for _rid, row in db.table("CUSTOMER").scan()),
        db.table("ORDERLINE").row_count,
    )


def test_oracle_accepts_the_engine_and_rejects_a_wrong_row():
    db, oracle = _loaded()
    txns = SalesScript(3, KEYS).txns(0, 0, 30)
    tally = Tally()
    _latencies, results = replay_sync(EngineClient(db), txns, tally, NoTrace())
    assert tally.failed == 0 and tally.balanced
    oracle.check(txns, results)
    _final(db, oracle)
    assert oracle.ok, oracle.messages
    assert oracle.checked == len(txns)

    # silently lose one committed update: the final check must notice
    db.execute("UPDATE customer SET C_CREDIT = C_CREDIT + ? WHERE C_ID = ?", [1.0, 1])
    _final(db, oracle)
    assert not oracle.ok
    assert any("CUSTOMER row 1" in message for message in oracle.messages)


def test_oracle_rejects_a_wrong_statement_result():
    db, oracle = _loaded()
    txns = SalesScript(3, KEYS).txns(0, 0, 5)
    _latencies, results = replay_sync(EngineClient(db), txns, Tally(), NoTrace())
    results[0] = ResultSet((), [(0, 0.0, "LOST")], 7)
    oracle.check(txns, results)
    assert oracle.mismatches == 1
