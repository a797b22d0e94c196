"""Graceful drain: ``SQLServer.stop(drain=True)`` loses nothing.

The drain contract: every statement already admitted finishes and its
response reaches the client before the sockets close; statements (and
connections) arriving *during* the drain are shed with a retryable
``OverloadError`` carrying a ``retry_after_s`` hint -- so a retrying
client loses zero requests across the handover.
"""

import asyncio

import pytest

from repro.engine.errors import OverloadError
from repro.serve.driver import collect_keys
from repro.serve.loadgen import run_load
from repro.serve.server import DRAIN_RETRY_AFTER_S, ServerConfig, SQLServer
from repro.shard.fleet import load_sales_fleet


def _fleet(name):
    fleet, _data = load_sales_fleet(
        2, row_scale=0.001, seed=42, name=name
    )
    return fleet


class TestDrain:
    def test_drain_mid_load_loses_nothing(self):
        """Stop with drain while a closed-loop drive is in flight: every
        offered request gets a response (none lost to a dead socket)."""

        async def scenario():
            fleet = _fleet("drain-load")
            server = SQLServer(fleet, ServerConfig(qos=False))
            await server.start()
            host, port = server.address
            keys = collect_keys(fleet)
            load = asyncio.ensure_future(run_load(
                host, port, connections=4, txns_per_conn=48,
                keys=keys, persona="payment", seed=42,
            ))
            while server.statements == 0:  # let the drive get airborne
                await asyncio.sleep(0.001)
            stop = asyncio.ensure_future(server.stop(drain=True))
            result = await load
            await stop
            return server, result

        server, result = asyncio.run(scenario())
        assert result.offered == 4 * 48
        # the whole point: no request died with its connection
        assert result.lost == 0
        assert result.reconnects == 0
        assert result.errors == 0
        # every request was answered: committed before the drain, shed
        # retryably after it (aborts are ordinary engine retryables)
        answered = result.committed + result.shed + result.aborted
        assert answered == result.offered
        assert result.committed > 0
        assert server._pending_stmts == 0
        assert server.shed == result.shed

    def test_drain_sheds_new_statements_retryably(self):
        """A statement arriving during the drain gets the retryable
        overload error with the backoff hint, while control frames and
        already-open sessions keep working until they disconnect."""

        async def scenario():
            fleet = _fleet("drain-shed")
            server = SQLServer(fleet, ServerConfig(qos=False))
            await server.start()
            host, port = server.address
            from repro.serve.client import AsyncSQLClient

            client = AsyncSQLClient(host, port)
            await client.connect()
            keys = collect_keys(fleet)
            cid = keys["customers"][0]
            ok = await client.query(
                "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ?", [cid]
            )
            assert ok.rows
            stop = asyncio.ensure_future(server.stop(drain=True))
            await asyncio.sleep(0)  # _draining is set synchronously
            shed_error = None
            try:
                await client.query(
                    "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ?", [cid]
                )
            except OverloadError as error:
                shed_error = error
            # control frames still answered inline during the drain
            assert await client.ping()
            await client.close()
            await stop
            return server, shed_error

        server, shed_error = asyncio.run(scenario())
        assert isinstance(shed_error, OverloadError)
        assert shed_error.retryable
        assert shed_error.retry_after_s == pytest.approx(DRAIN_RETRY_AFTER_S)
        assert server.shed == 1

    def test_drain_rejects_new_connections(self):
        """Connections arriving during the drain are turned away with
        the same retryable hint instead of hanging."""

        async def scenario():
            fleet = _fleet("drain-conn")
            server = SQLServer(fleet, ServerConfig(qos=False))
            await server.start()
            host, port = server.address
            from repro.serve.client import AsyncSQLClient

            # pin the drain window open directly (stop() would close the
            # listener the instant the queue is empty, racing the
            # late connection into a plain refused socket)
            server._draining = True
            late = AsyncSQLClient(host, port)
            rejected = None
            try:
                await late.connect()
            except OverloadError as error:
                rejected = error
            await server.stop()
            return server, rejected

        server, rejected = asyncio.run(scenario())
        assert isinstance(rejected, OverloadError)
        assert rejected.retryable
        assert rejected.retry_after_s == pytest.approx(DRAIN_RETRY_AFTER_S)
        assert server.rejected == 1

    def test_plain_stop_still_abrupt(self):
        """Without ``drain`` the old contract holds: stop() tears down
        immediately and is idempotent."""

        async def scenario():
            fleet = _fleet("drain-plain")
            server = SQLServer(fleet, ServerConfig(qos=False))
            await server.start()
            await server.stop()
            await server.stop()  # idempotent
            return server

        server = asyncio.run(scenario())
        assert server.shed == 0
        assert server._server is None
