"""Transport parity: the ``Client`` protocol over sockets vs in-process.

The same verbs against the same seeded data must produce the same
rows, the same exception classes, and the same ``retryable``
classification whether the transport is a function call
(:class:`FleetClient`) or a real TCP socket (:class:`SocketClient`).
"""

import asyncio
import contextlib
import inspect
from types import SimpleNamespace

import pytest

from repro.core.client import (
    Client,
    ClientError,
    EngineClient,
    FleetClient,
    quiet_rollback,
)
from repro.core.datagen import load_sales_database
from repro.core.workload import READ_WRITE, SalesWorkload
from repro.engine.database import Database
from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    OverloadError,
    SchemaError,
    SqlError,
)
from repro.engine.txn import IsolationLevel
from repro.qos.admission import AdmissionPolicy
from repro.serve import server as server_module
from repro.serve import wire
from repro.serve.client import AsyncSQLClient, SocketClient
from repro.serve.driver import BackgroundServer, collect_keys
from repro.serve.errors import wire_code
from repro.serve.server import ServerConfig
from repro.shard.fleet import ShardedDatabase, load_sales_fleet
from repro.shard.workload import primary_keys

from tests.engine.test_planner import UNORDERABLE, load_events

READ_CREDIT = "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ?"
BUMP_CREDIT = "UPDATE CUSTOMER SET C_CREDIT = C_CREDIT + ? WHERE C_ID = ?"


def _serving(fleet, config):
    """A BackgroundServer under ``config`` in place of its default one."""
    background = BackgroundServer(fleet)
    if config is not None:
        background.config = config
    return background


def _fleet(name):
    db, _data = load_sales_fleet(2, row_scale=0.001, seed=42, name=name)
    return db


class TestProtocolShape:
    def test_every_transport_satisfies_the_protocol(self):
        fleet = _fleet("proto-a")
        assert isinstance(FleetClient(fleet), Client)
        assert isinstance(EngineClient(Database("proto-db")), Client)
        assert isinstance(SocketClient("127.0.0.1", 1), Client)


class _DeadShardClient(EngineClient):
    """Statements and rollback fail the way a dead shard makes them:
    the failed rollback leaves the client inside its transaction."""

    dead = False

    def execute(self, sql, params=()):
        if self.dead:
            raise EngineError("shard down")
        return super().execute(sql, params)

    def rollback(self):
        if self.dead:
            raise EngineError("shard down")
        super().rollback()


class TestQuietRollback:
    def test_swallowed_rollback_abandons_the_client(self):
        client = _DeadShardClient(Database("quiet-db"))
        client.begin()
        client.dead = True
        quiet_rollback(client)  # must not raise, must not stay pinned
        assert not client.in_txn
        client.begin()
        client.dead = False
        quiet_rollback(client)
        assert not client.in_txn
        quiet_rollback(client)  # no-op outside a transaction

    def test_sales_workload_is_not_pinned_by_a_dead_shard(self):
        db, _data = load_sales_database(row_scale=0.001)
        client = _DeadShardClient(db)
        workload = SalesWorkload(db, READ_WRITE)
        workload.client = client  # the workload's client, over a shard that dies
        client.connect()
        client.dead = True
        with pytest.raises(EngineError, match="shard down"):
            workload.run_t2()
        assert not client.in_txn
        client.dead = False
        assert workload.run_t2() is not None


class _ParityHarness:
    """One in-process client and one socket client over twin fleets --
    and, ``asynchronous``, an :class:`AsyncSQLClient` over a third."""

    def __init__(self, asynchronous=False):
        self.inline_fleet = _fleet("parity-inline")
        self.keys = collect_keys(self.inline_fleet)
        self.servers = [BackgroundServer(_fleet("parity-socket"))]
        if asynchronous:
            self.servers.append(BackgroundServer(_fleet("parity-async")))

    def __enter__(self):
        addresses = [bg.start() for bg in self.servers]
        self.inline = FleetClient(self.inline_fleet)
        self.socket = SocketClient(*addresses[0], client_name="parity")
        #: (in-process, socket[, async]): the transports under comparison
        self.clients = (
            self.inline, self.socket, *(_Blocking(*a) for a in addresses[1:])
        )
        for client in self.clients:
            client.connect()
        return self

    def __exit__(self, exc_type, exc, tb):
        for client in reversed(self.clients):
            client.close()
        for bg in self.servers:
            bg.stop()


class TestParity:
    def test_identical_rows_and_rowcounts(self):
        with _ParityHarness() as harness:
            cids = harness.keys["customers"][:4]
            for client in harness.clients:
                for index, cid in enumerate(cids):
                    result = client.execute(BUMP_CREDIT, [float(index), cid])
                    assert result.rowcount == 1
            rows_inline = [
                harness.inline.query(READ_CREDIT, [cid]).rows for cid in cids
            ]
            rows_socket = [
                harness.socket.query(READ_CREDIT, [cid]).rows for cid in cids
            ]
            assert rows_inline == rows_socket

    def test_transactions_commit_identically(self):
        with _ParityHarness() as harness:
            cid = harness.keys["customers"][0]
            for client in harness.clients:
                client.begin()
                assert client.in_txn
                client.execute(BUMP_CREDIT, [7.5, cid])
                client.commit()
                assert not client.in_txn
                assert client.gtid is not None  # both are fleet transports
            assert (
                harness.inline.query(READ_CREDIT, [cid]).rows
                == harness.socket.query(READ_CREDIT, [cid]).rows
            )

    def test_sql_errors_match_class_and_retryable(self):
        with _ParityHarness() as harness:
            caught = {}
            for label, client in zip(("inline", "socket"), harness.clients):
                with pytest.raises(EngineError) as exc_info:
                    client.query("SELECT * FROM NO_SUCH_TABLE", [])
                caught[label] = exc_info.value
            assert type(caught["inline"]) is type(caught["socket"])
            assert (
                caught["inline"].retryable == caught["socket"].retryable
            )

    def test_unorderable_range_bound_is_a_sql_error_on_both(self):
        """A bound the ordered index cannot compare used to leak a bare
        TypeError: raw in process, wire code ``internal`` over the
        socket.  It is a statement error on both."""
        fleet = load_events(ShardedDatabase(2, name="parity-events"))
        with BackgroundServer(fleet) as bg:
            inline = FleetClient(fleet)
            inline.connect()
            remote = SocketClient(*bg.server.address)
            remote.connect()
            for client in (inline, remote):
                for sql, params in UNORDERABLE:
                    with pytest.raises(
                        SqlError, match="predicate comparison failed"
                    ) as exc_info:
                        client.query(sql, params)
                    assert wire_code(exc_info.value) == "sql"
            remote.close()

    def test_protocol_misuse_matches(self):
        with _ParityHarness() as harness:
            for client in harness.clients:
                with pytest.raises(ClientError):
                    client.commit()  # outside a transaction
                client.begin()
                with pytest.raises(ClientError):
                    client.begin()  # inside an open transaction
                client.rollback()

    def test_abandon_then_begin_afresh(self):
        """The post-crash convention works identically over the wire:
        abandon() drops affinity without rollback, and the session can
        begin the next transaction."""
        with _ParityHarness() as harness:
            cid = harness.keys["customers"][1]
            for client in harness.clients:
                client.begin()
                client.execute(BUMP_CREDIT, [1.0, cid])
                client.abandon()
                assert not client.in_txn
                client.abandon()  # idempotent outside a transaction
                client.begin()
                client.commit()

    def test_transactions_agree_step_by_step_on_three_transports(self):
        """Each answered step gives the same rows, rowcount or error
        class, and knows a gtid exactly when the in-process client does
        -- although the socket clients' begin rides on the next frame."""
        with _ParityHarness(asynchronous=True) as harness:
            cid = harness.keys["customers"][0]
            seen = []
            for client in harness.clients:
                steps = []

                def step(verb, *args):
                    try:
                        result = getattr(client, verb)(*args)
                    except EngineError as error:
                        result = type(error)
                    else:
                        result = result and (result.rows, result.rowcount)
                    steps.append((verb, result, client.gtid is not None))

                step("execute", BUMP_CREDIT, [1.0, cid])  # autocommit
                client.begin()
                step("query", "SELECT * FROM NO_SUCH_TABLE", [])
                step("rollback")
                client.begin("SERIALIZABLE")
                step("execute", BUMP_CREDIT, [2.0, cid])
                step("query", READ_CREDIT, [cid])
                step("commit")
                client.begin()
                step("commit")  # an empty transaction
                step("query", READ_CREDIT, [cid])
                seen.append(steps)
            assert seen[0] == seen[1] == seen[2]
            assert [known for _verb, _result, known in seen[0]] == [
                False, True, True, True, True, True, True, True
            ]


#: Parameters a JSON client can send that the schema cannot take: each
#: used to leak a bare ValueError/TypeError out of ``execute`` (wire
#: code ``internal``).  ``params`` is built from a live customer id.
BAD_PARAMETERS = [
    pytest.param(
        "UPDATE CUSTOMER SET C_CREDIT = ? WHERE C_ID = ?",
        lambda cid: ["abc", cid], SchemaError, "schema", id="uncoercible",
    ),
    pytest.param(
        BUMP_CREDIT, lambda cid: ["a", cid], SqlError, "sql", id="arithmetic",
    ),
    pytest.param(
        READ_CREDIT, lambda cid: [[cid]], SqlError, "sql", id="unhashable-key",
    ),
]

#: Frame fields of the wrong shape: each used to reach the server's
#: catch-all as a bare ValueError, TypeError or IndexError (wire code
#: ``internal``), or to be taken silently (a bool or fractional priority,
#: a string split into one parameter per character).
BAD_FRAMES = [
    pytest.param({"op": "hello", "priority": "x"}, id="priority-text"),
    pytest.param({"op": "hello", "priority": True}, id="priority-bool"),
    pytest.param({"op": "hello", "priority": 1.9}, id="priority-fraction"),
    pytest.param({"op": "execute", "sql": READ_CREDIT, "params": 5}, id="params-number"),
    pytest.param({"op": "execute", "sql": READ_CREDIT, "params": "ab"}, id="params-text"),
    pytest.param({"op": "batch", "stmts": [5]}, id="stmt-number"),
    pytest.param({"op": "batch", "stmts": [[]]}, id="stmt-empty"),
    pytest.param({"op": "batch", "stmts": [[5]]}, id="stmt-sql-number"),
]


@contextlib.contextmanager
def _client(kind):
    """``(client, engines behind it)`` for one of the three transports."""
    if kind == "engine":
        db, _data = load_sales_database(row_scale=0.001)
        yield EngineClient(db), [db]
        return
    fleet = _fleet(f"client-{kind}")
    with contextlib.ExitStack() as stack:
        if kind == "fleet":
            client = FleetClient(fleet)
        else:
            bg = stack.enter_context(BackgroundServer(fleet))
            client = SocketClient(*bg.server.address)
        client.connect()
        stack.callback(client.close)  # runs before the server stops
        yield client, fleet.shards


@contextlib.contextmanager
def _transport(kind):
    """``(execute, engines behind it)`` for one of the three ways in;
    the engines are there to check that nothing leaked."""
    if kind == "database":
        db, _data = load_sales_database(row_scale=0.001)
        yield db.execute, [db]
        return
    with _client(kind) as (client, engines):
        yield client.execute, engines


@pytest.mark.parametrize("kind", ["engine", "fleet", "socket"])
def test_query_is_read_only_inside_a_transaction_too(kind):
    """``query`` used to fall through to ``execute`` once a transaction
    was open: the DELETE it refused outside ran inside (rowcount 1)."""
    delete = "DELETE FROM CUSTOMER WHERE C_ID = ?"
    with _client(kind) as (client, engines):
        cid = min(
            key for engine in engines for key in primary_keys(engine, "CUSTOMER")
        )
        with pytest.raises(EngineError, match="read-only"):
            client.query(delete, [cid])
        client.begin()
        client.execute(BUMP_CREDIT, [1.0, cid])
        inside = client.query(READ_CREDIT, [cid]).rows  # sees its own write
        with pytest.raises(EngineError, match="read-only"):
            client.query(delete, [cid])
        assert client.in_txn  # refused before it ran, nothing rolled back
        client.commit()
        assert client.query(READ_CREDIT, [cid]).rows == inside


@pytest.mark.parametrize("kind", ["database", "fleet", "socket"])
@pytest.mark.parametrize("sql, make_params, error, code", BAD_PARAMETERS)
def test_bad_parameter_is_a_typed_error(kind, sql, make_params, error, code):
    with _transport(kind) as (execute, engines):
        cid = min(primary_keys(engines[0], "CUSTOMER"))
        before = execute(READ_CREDIT, [cid]).rows
        with pytest.raises(error) as exc_info:
            execute(sql, make_params(cid))
        assert type(exc_info.value) is error
        assert wire_code(exc_info.value) == code
        # the statement's transaction rolled back and holds nothing...
        for engine in engines:
            assert not engine.txns.active
            engine.locks.sanity_check()
            assert not engine.locks._held_by_txn
        # ...and the session serves the next statements, on the same row
        assert execute(READ_CREDIT, [cid]).rows == before
        assert execute(BUMP_CREDIT, [1.0, cid]).rowcount == 1


@pytest.mark.parametrize("frame", BAD_FRAMES)
def test_malformed_frame_field_is_a_protocol_error(frame):
    with _client("socket") as (client, engines):
        with pytest.raises(SqlError, match="protocol: ") as exc_info:
            client._request(frame)
        assert wire_code(exc_info.value) == "sql"
        assert exc_info.value.retryable is False
        for engine in engines:
            assert not engine.txns.active
        assert client.ping()  # the session goes on


class _Blocking:
    """An :class:`AsyncSQLClient` behind blocking verbs, on its own loop:
    every coroutine method runs to completion, attributes pass through."""

    def __init__(self, host, port):
        self._loop = asyncio.new_event_loop()
        self._client = AsyncSQLClient(host, port, client_name="parity-async")

    def __getattr__(self, name):
        value = getattr(self._client, name)
        if not inspect.iscoroutinefunction(value):
            return value
        return lambda *args: self._loop.run_until_complete(value(*args))

    def close(self):
        self._loop.run_until_complete(self._client.close())
        self._loop.close()


class TestParityWithStatementIds:
    """Every statement below runs more than once per connection, so
    after its first use it crosses the wire as an id: rows, rowcounts,
    error classes and ``retryable`` must not notice."""

    def test_three_transports_agree(self):
        with _ParityHarness(asynchronous=True) as harness:
            cids = harness.keys["customers"][:4]
            seen = []
            for client in harness.clients:
                rowcounts, errors = [], []
                for index, cid in enumerate(cids):
                    result = client.execute(BUMP_CREDIT, [float(index), cid])
                    rowcounts.append(result.rowcount)
                rows = [client.query(READ_CREDIT, [cid]).rows for cid in cids]
                for _ in range(2):  # by text, then by id
                    with pytest.raises(EngineError) as exc_info:
                        client.query("SELECT * FROM NO_SUCH_TABLE", [])
                    errors.append((
                        type(exc_info.value), exc_info.value.retryable,
                        str(exc_info.value),
                    ))
                seen.append((rowcounts, rows, errors))
            assert seen[0] == seen[1] == seen[2]
            assert seen[0][0] == [1, 1, 1, 1]
            assert harness.socket._sids[BUMP_CREDIT] == 0
            assert len(harness.socket._sids) == 3


@contextlib.contextmanager
def _served(kind, monkeypatch, config=None):
    """A connected ``"socket"`` or ``"async"`` client, the request
    frames it sent since it connected, and its session on the server."""
    sessions = []

    class Recorded(server_module._Session):
        def __init__(self, conn_id):
            super().__init__(conn_id)
            sessions.append(self)

    monkeypatch.setattr(server_module, "_Session", Recorded)
    fleet = _fleet(f"rides-{kind}")
    with _serving(fleet, config) as bg:
        client = (SocketClient if kind == "socket" else _Blocking)(
            *bg.server.address
        )
        client.connect()
        sent = []
        encode = wire.encode_frame

        def spy(payload):
            if "op" in payload:  # a request; responses carry none
                sent.append(dict(payload))
            return encode(payload)

        monkeypatch.setattr(wire, "encode_frame", spy)
        try:
            yield SimpleNamespace(
                client=client, sent=sent, session=sessions[0],
                cid=collect_keys(fleet)["customers"][0],
            )
        finally:
            client.close()


def _txn(statements, end):
    def shape(client, cid):
        client.begin()
        for _ in range(statements):
            client.execute(BUMP_CREDIT, [1.0, cid])
        getattr(client, end)()
    return shape


#: (what the client does, requests it sends, whether a gtid is known)
REQUEST_SHAPES = [
    pytest.param(
        lambda client, cid: client.execute(BUMP_CREDIT, [1.0, cid]), 1, False,
        id="autocommit",
    ),
    pytest.param(_txn(1, "commit"), 2, True, id="begin-1-commit"),
    pytest.param(_txn(3, "commit"), 4, True, id="begin-3-commit"),
    pytest.param(_txn(0, "commit"), 1, True, id="begin-commit"),
    pytest.param(_txn(0, "rollback"), 0, False, id="begin-rollback"),
    pytest.param(_txn(1, "rollback"), 2, True, id="begin-1-rollback"),
]

#: first frames that never run: shed by a full queue, or expired in it
NEVER_RAN = [
    pytest.param(
        ServerConfig(qos=True, policy=AdmissionPolicy(max_queue=0)),
        OverloadError, id="shed",
    ),
    pytest.param(
        ServerConfig(qos=True, deadline_s=1e-9), DeadlineExceededError,
        id="expired",
    ),
]


@pytest.mark.parametrize("kind", ["socket", "async"])
class TestBeginRidesTheFirstFrame:
    """A transaction's round trips are its statements (and its commit):
    ``begin()`` sends nothing, the next frame carries it."""

    @pytest.mark.parametrize("shape, requests, gtid", REQUEST_SHAPES)
    def test_requests_per_transaction_shape(
        self, kind, monkeypatch, shape, requests, gtid
    ):
        with _served(kind, monkeypatch) as s:
            shape(s.client, s.cid)
            assert len(s.sent) == requests
            assert sum("begin" in frame for frame in s.sent) == gtid
            assert (s.client.gtid is not None) is gtid
            assert not s.session.in_txn

    def test_a_failed_first_statement_leaves_the_transaction_open(
        self, kind, monkeypatch
    ):
        with _served(kind, monkeypatch) as s:
            s.client.begin()
            with pytest.raises(EngineError, match="NO_SUCH_TABLE"):
                s.client.query("SELECT * FROM NO_SUCH_TABLE", [])
            assert s.client.gtid is not None  # the begin ran
            assert s.session.in_txn
            s.client.rollback()
            assert [frame["op"] for frame in s.sent] == ["query", "rollback"]
            assert not s.session.in_txn

    @pytest.mark.parametrize("config, error", NEVER_RAN)
    def test_a_first_frame_that_never_ran_leaves_the_begin_pending(
        self, kind, monkeypatch, config, error
    ):
        with _served(kind, monkeypatch, config) as s:
            s.client.begin("SERIALIZABLE")
            for _ in range(2):  # the retry carries the begin again
                with pytest.raises(error):
                    s.client.execute(BUMP_CREDIT, [1.0, s.cid])
            assert [frame.get("begin") for frame in s.sent] == ["SERIALIZABLE"] * 2
            assert s.client.gtid is None
            assert not s.session.in_txn
            s.client.rollback()  # nothing to undo: no frame
            assert len(s.sent) == 2
            assert not s.session.in_txn

    def test_begin_while_a_begin_is_pending_is_refused(self, kind, monkeypatch):
        with _served(kind, monkeypatch) as s:
            s.client.begin()
            with pytest.raises(ClientError):
                s.client.begin("SERIALIZABLE")
            s.client.commit()
            assert [frame.get("begin", "-") for frame in s.sent] == [None]

    def test_the_field_is_refused_on_ping_and_batch(self, kind, monkeypatch):
        with _served(kind, monkeypatch) as s:
            request = getattr(s.client, "_request", None) or s.client.request
            for frame in (
                {"op": "ping", "begin": None},
                {"op": "batch", "begin": None,
                 "stmts": [[BUMP_CREDIT, [1.0, s.cid]]]},
            ):
                with pytest.raises(SqlError, match="protocol: begin rides") as exc_info:
                    request(frame)
                assert exc_info.value.retryable is False
                assert not s.session.in_txn
            # a batch under a pending begin carries it, and is refused alike
            s.client.begin()
            with pytest.raises(SqlError, match="protocol: begin rides"):
                s.client.batch([[BUMP_CREDIT, [1.0, s.cid]]])
            assert s.client.gtid is None and not s.session.in_txn
            s.client.rollback()
            assert len(s.sent) == 3

    def test_isolation_reaches_the_fleet_as_through_the_begin_op(
        self, kind, monkeypatch
    ):
        seen = []
        begin = ShardedDatabase.begin

        def spy(fleet, *args, **kwargs):
            seen.append(kwargs.get("isolation"))
            return begin(fleet, *args, **kwargs)

        monkeypatch.setattr(ShardedDatabase, "begin", spy)
        with _served(kind, monkeypatch) as s:
            request = getattr(s.client, "_request", None) or s.client.request
            for isolation in ("SERIALIZABLE", None):
                request({"op": "begin", "isolation": isolation})
                request({"op": "rollback"})
                s.client.begin(isolation)
                s.client.commit()
        assert seen == [IsolationLevel.SERIALIZABLE] * 2 + [None] * 2
