"""SQLServer behaviour over real sockets.

Covers the ISSUE's serving-tier edge cases end-to-end: transaction
affinity, pipelining order, connection limits, oversized statements,
malformed length prefixes, partial reads, mid-pipeline connection
drops, and server-side session cleanup after an abrupt disconnect.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.chaos.plan import FaultKind, FaultPlan, FaultSpec
from repro.engine.errors import (
    DeadlineExceededError,
    OverloadError,
    SqlError,
)
from repro.qos.admission import AdmissionPolicy
from repro.serve.client import AsyncSQLClient, SocketClient
from repro.serve.driver import BackgroundServer, collect_keys
from repro.serve.server import STALL_SCALE_S, ServeFaultInjector, ServerConfig, SQLServer
from repro.serve.wire import FrameDecoder
from repro.shard.fleet import load_sales_fleet

READ_CREDIT = "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ?"
BUMP_CREDIT = "UPDATE CUSTOMER SET C_CREDIT = C_CREDIT + ? WHERE C_ID = ?"


def _serving(fleet, config):
    """A BackgroundServer under ``config`` in place of its default one."""
    background = BackgroundServer(fleet)
    if config is not None:
        background.config = config
    return background


@pytest.fixture
def fleet():
    db, _data = load_sales_fleet(
        2, row_scale=0.001, seed=42, name="serve-test"
    )
    return db


def _credit(client, cid):
    return client.query(READ_CREDIT, [cid]).rows[0][0]


class TestSessions:
    def test_txn_affinity_commit_and_rollback(self, fleet):
        keys = collect_keys(fleet)
        cid = keys["customers"][0]
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            before = _credit(client, cid)

            client.begin()
            client.execute(BUMP_CREDIT, [5.0, cid])
            # reads inside the transaction see its own writes
            assert _credit(client, cid) == pytest.approx(before + 5.0)
            client.rollback()
            assert _credit(client, cid) == pytest.approx(before)

            client.begin()
            client.execute(BUMP_CREDIT, [5.0, cid])
            client.commit()
            assert _credit(client, cid) == pytest.approx(before + 5.0)
            assert not client.in_txn
            client.close()

    def test_clean_goodbye_is_not_abrupt(self, fleet):
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            assert client.ping()
            client.close()
            time.sleep(0.05)
            assert bg.server.accepted == 1
            assert bg.server.abrupt_disconnects == 0
            assert bg.server.orphan_rollbacks == 0

    def test_unknown_op_is_a_protocol_error(self, fleet):
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            with pytest.raises(SqlError, match="protocol: unknown op"):
                client._request({"op": "transmogrify"})
            client.close()

    def test_abandon_drops_affinity_without_rollback(self, fleet):
        keys = collect_keys(fleet)
        cid = keys["customers"][0]
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            client.begin()
            client.execute(BUMP_CREDIT, [1.0, cid])
            client.abandon()
            assert not client.in_txn
            abandoned = client.gtid
            # the session can begin afresh (fresh gtid, clean commit);
            # the gtid is read after the commit because the begin only
            # reaches the server on the commit's frame
            client.begin()
            client.commit()
            assert client.gtid not in (None, abandoned)
            client.close()

    def test_accept_backlog_follows_max_connections(self, fleet, monkeypatch):
        """The listener queues up to ``max_connections`` connects."""
        seen = []
        create_server = asyncio.BaseEventLoop.create_server

        async def spy(loop, factory, *args, **kwargs):
            seen.append(kwargs)
            return await create_server(loop, factory, *args, **kwargs)

        monkeypatch.setattr(asyncio.BaseEventLoop, "create_server", spy)

        async def scenario():
            server = SQLServer(fleet, ServerConfig(qos=False, max_connections=300))
            await server.start()
            try:
                client = AsyncSQLClient(*server.address)
                await client.connect()
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())
        assert len(seen) == 1 and seen[0]["backlog"] == 300


class TestPipelining:
    def test_responses_come_back_in_request_order(self, fleet):
        keys = collect_keys(fleet)
        cids = keys["customers"][:8]

        async def scenario():
            async with SQLServer(fleet, ServerConfig(qos=False)) as server:
                host, port = server.address
                client = AsyncSQLClient(host, port)
                await client.connect()
                expected = []
                for cid in cids:
                    result = await client.query(READ_CREDIT, [cid])
                    expected.append(result.rows[0][0])
                # now pipeline all eight without awaiting any response
                for cid in cids:
                    client.send_nowait(
                        {"op": "query", "sql": READ_CREDIT, "params": [cid]}
                    )
                await client.drain()
                assert client.pending == len(cids)
                got = []
                for _ in cids:
                    frame = await client.recv_response()
                    got.append(frame["rows"][0][0])
                assert got == expected
                assert client.pending == 0
                await client.close()

        asyncio.run(scenario())

    def test_a_request_on_a_hung_up_connection_raises_its_error(self, fleet):
        """The server answered and hung up; its answers sit unread.  A
        request on the dead connection -- its transport not paused, so
        there is no write buffer to wait on -- raises the recorded
        connection error rather than return a stale frame."""

        async def scenario():
            async with SQLServer(fleet, ServerConfig(qos=False)) as server:
                client = AsyncSQLClient(*server.address)
                await client.connect()
                client.send_nowait({"op": "ping"})
                client.send_nowait({"op": "goodbye"})
                conn = client._conn
                for _ in range(500):
                    if conn.error is not None:
                        break
                    await asyncio.sleep(0.01)
                assert len(conn.inbox) == 2 and not conn.paused
                with pytest.raises(ConnectionError, match="server closed"):
                    await client.request({"op": "ping"})
                assert len(conn.inbox) == 2
                client.abort()

        asyncio.run(scenario())

    def test_mid_pipeline_connection_drop(self, fleet):
        """CONN_DROP mid-pipeline: the client sees a dead connection,
        the server counts the abrupt disconnect, the injector fired."""
        plan = FaultPlan(
            [FaultSpec(kind=FaultKind.CONN_DROP, target="serve",
                       start_s=0.2, duration_s=3600.0, intensity=1.0)],
            seed=7, name="drop-everything",
        )
        injector = ServeFaultInjector(plan, seed=7)

        async def scenario():
            server = SQLServer(
                fleet, ServerConfig(qos=False), fault_injector=injector
            )
            await server.start()
            try:
                client = AsyncSQLClient(host=server.address[0],
                                        port=server.address[1])
                await client.connect()  # before the drop window opens
                await asyncio.sleep(0.25)
                for _ in range(4):
                    client.send_nowait({"op": "ping"})
                await client.drain()
                with pytest.raises((ConnectionError, OSError)):
                    for _ in range(4):
                        await client.recv_response()
                client.abort()
                for _ in range(100):
                    if server.abrupt_disconnects:
                        break
                    await asyncio.sleep(0.01)
            finally:
                await server.stop()
            assert injector.drops >= 1
            assert server.abrupt_disconnects >= 1

        asyncio.run(scenario())


class TestSessionCleanup:
    def test_abrupt_disconnect_rolls_back_the_orphan_txn(self, fleet):
        keys = collect_keys(fleet)
        cid = keys["customers"][0]

        async def scenario():
            async with SQLServer(fleet, ServerConfig(qos=False)) as server:
                host, port = server.address
                probe = AsyncSQLClient(host, port, client_name="probe")
                await probe.connect()
                before = (await probe.query(READ_CREDIT, [cid])).rows[0][0]

                victim = AsyncSQLClient(host, port, client_name="victim")
                await victim.connect()
                await victim.begin()
                await victim.execute(BUMP_CREDIT, [9.0, cid])
                # the client dies mid-write: half a frame, then the
                # connection is gone -- a truncated stream, not a clean
                # EOF at a frame boundary
                victim._conn.transport.write(
                    struct.pack(">I", 64) + b'{"op'
                )
                await victim.drain()
                await asyncio.sleep(0.05)
                victim.abort()

                for _ in range(200):
                    if server.orphan_rollbacks:
                        break
                    await asyncio.sleep(0.01)
                assert server.abrupt_disconnects == 1
                assert server.orphan_rollbacks == 1

                # the write was rolled back and the lock released: a new
                # transaction on the same row commits cleanly
                after = (await probe.query(READ_CREDIT, [cid])).rows[0][0]
                assert after == pytest.approx(before)
                await probe.begin()
                await probe.execute(BUMP_CREDIT, [1.0, cid])
                await probe.commit()
                await probe.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("how", ["reset", "eof"])
    def test_disconnect_with_a_statement_queued_rolls_back_after_it(
        self, fleet, how
    ):
        """The connection dies (RST), or ends (FIN), while its statement
        sits in the admission queue: the statement still runs inside
        the session's transaction, and only then -- but before anyone
        else's statement -- is the orphan rolled back, once."""
        keys = collect_keys(fleet)
        cid = keys["customers"][0]
        # one admission slot, held by the test: queued work stays queued
        config = ServerConfig(qos=True, policy=AdmissionPolicy(
            initial_limit=1.0, min_limit=1.0, max_limit=1.0, max_queue=8,
        ))

        async def scenario():
            async with SQLServer(fleet, config) as server:
                host, port = server.address
                probe = AsyncSQLClient(host, port, client_name="probe")
                await probe.connect()
                before = (await probe.query(READ_CREDIT, [cid])).rows[0][0]

                victim = AsyncSQLClient(host, port, client_name="victim")
                await victim.connect()
                await victim.begin()
                await victim.execute(BUMP_CREDIT, [9.0, cid])
                server.controller.try_acquire(server._now())
                victim.send_nowait(
                    {"op": "execute", "sql": BUMP_CREDIT,
                     "params": [4.0, cid]}
                )
                for _ in range(200):
                    if server.controller.queue_depth:
                        break
                    await asyncio.sleep(0.005)
                assert server.controller.queue_depth == 1
                if how == "reset":  # close() sends RST, not FIN
                    victim._conn.transport.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )
                victim.abort()
                await asyncio.sleep(0.1)
                # the session outlives its socket: its statement is queued
                assert server.active_connections == 2
                assert server.orphan_rollbacks == 0
                assert server.abrupt_disconnects == 0

                # free the slot; the probe's query drains the queue, the
                # victim's statement first
                server.controller.release(server._now(), -1.0)
                after = (await probe.query(READ_CREDIT, [cid])).rows[0][0]
                assert server.orphan_rollbacks == 1
                # a FIN on a frame boundary is a clean goodbye
                assert server.abrupt_disconnects == (how == "reset")
                assert server.active_connections == 1
                assert server.errors == 0  # it ran, inside the txn
                assert after == pytest.approx(before)
                # the row lock went with the rollback
                await probe.begin()
                await probe.execute(BUMP_CREDIT, [1.0, cid])
                await probe.commit()
                await probe.close()

        asyncio.run(scenario())


class TestFraming:
    def test_oversized_statement_errors_then_hangs_up(self, fleet):
        config = ServerConfig(qos=False, max_frame=512)
        with _serving(fleet, config) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            with pytest.raises(SqlError, match="protocol.*exceeds"):
                client.execute(
                    "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ? "
                    + "-- " + "x" * 2000,
                    [1],
                )
            # the stream is poisoned: the server hung up after the
            # error frame, so the next request finds a dead connection
            with pytest.raises((ConnectionError, OSError)):
                client.ping()
            time.sleep(0.05)
            assert bg.server.abrupt_disconnects == 1

    def test_a_response_too_big_for_a_frame_is_an_error_frame(
        self, fleet, monkeypatch
    ):
        """The result does not fit a frame: the client is told so, and
        the session goes on."""
        from repro.serve import wire

        with BackgroundServer(fleet) as bg:
            client = SocketClient(*bg.server.address)
            client.connect()
            monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 2048)
            with pytest.raises(SqlError, match="protocol: frame payload"):
                client.query("SELECT * FROM CUSTOMER WHERE C_ID >= ?", [0])
            assert client.ping()
            # the frame that carried a begin says the begin ran, even
            # when its result did not fit: the rollback is sent
            client.begin()
            with pytest.raises(SqlError, match="protocol: frame payload"):
                client.query("SELECT * FROM CUSTOMER WHERE C_ID >= ?", [0])
            assert client.gtid is not None
            client.rollback()
            client.close()
            time.sleep(0.05)
            assert bg.server.abrupt_disconnects == 0
            assert bg.server.orphan_rollbacks == 0

    def test_malformed_length_prefix_gets_one_error_frame(self, fleet):
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            raw = socket.create_connection((host, port), timeout=5.0)
            try:
                raw.sendall(b"\x00\x00\x00\x00")  # zero-length prefix
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    data = raw.recv(65536)
                    if not data:
                        break
                    frames.extend(decoder.feed(data))
                assert frames, "expected a final error frame before close"
                assert frames[0]["ok"] is False
                assert "protocol" in frames[0]["error"]["message"]
                assert frames[0]["error"]["retryable"] is False
                # and then the hang-up
                assert raw.recv(65536) == b""
            finally:
                raw.close()

    def test_partial_reads_assemble_into_whole_frames(self, fleet):
        """A frame delivered one byte at a time still gets served."""
        from repro.serve.wire import encode_frame

        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            raw = socket.create_connection((host, port), timeout=5.0)
            try:
                hello = encode_frame({"op": "hello", "client": "dribble"})
                for index in range(len(hello)):
                    raw.sendall(hello[index:index + 1])
                decoder = FrameDecoder()
                frames = []
                while not frames:
                    frames.extend(decoder.feed(raw.recv(65536)))
                assert frames[0]["ok"] is True
                assert frames[0]["n_shards"] == 2

                ping = encode_frame({"op": "ping"})
                raw.sendall(ping[:3])
                time.sleep(0.02)
                raw.sendall(ping[3:])
                frames = []
                while not frames:
                    frames.extend(decoder.feed(raw.recv(65536)))
                assert frames[0] == {"ok": True}
            finally:
                raw.close()

    def test_good_frames_before_a_poisoned_prefix_are_answered(self, fleet):
        """Two pings and a zero-length prefix in one segment: both pings
        are answered in order, then the one error frame, then EOF."""
        from repro.serve.wire import encode_frame

        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            raw = socket.create_connection((host, port), timeout=5.0)
            try:
                ping = encode_frame({"op": "ping"})
                raw.sendall(ping + ping + b"\x00\x00\x00\x00")
                decoder = FrameDecoder()
                frames = []
                while True:
                    data = raw.recv(65536)
                    if not data:
                        break
                    frames.extend(decoder.feed(data))
                decoder.end_of_stream()  # the server closed on a frame boundary
                assert frames[:2] == [{"ok": True}, {"ok": True}]
                assert len(frames) == 3
                assert frames[2]["ok"] is False
                assert "zero-length" in frames[2]["error"]["message"]
                assert frames[2]["error"]["retryable"] is False
            finally:
                raw.close()
            time.sleep(0.05)
            assert bg.server.abrupt_disconnects == 1

    def test_a_body_json_will_not_build_gets_one_error_frame(self, fleet):
        """A ping, then a frame whose integer is past the stdlib's digit
        limit: the ping is answered, then one protocol error frame, then
        EOF -- the connection handler never sees the decoder's error."""
        from repro.serve.wire import encode_frame

        body = b'{"op":"ping","n":' + b"9" * 5000 + b"}"
        with BackgroundServer(fleet) as bg:
            raw = socket.create_connection(bg.server.address, timeout=5.0)
            try:
                raw.sendall(encode_frame({"op": "ping"}) + struct.pack(">I", len(body)) + body)
                decoder = FrameDecoder()
                frames = []
                while True:
                    data = raw.recv(65536)
                    if not data:
                        break
                    frames.extend(decoder.feed(data))
                assert frames[0] == {"ok": True} and len(frames) == 2
                assert frames[1]["ok"] is False
                assert "not valid JSON" in frames[1]["error"]["message"]
            finally:
                raw.close()

    def test_a_client_that_never_reads_is_paused_alone(self, fleet):
        """Back-pressure: a raw client pipelines far more than it reads,
        the server stops reading (and serving) that connection once its
        write buffer is full -- and goes on serving everyone else."""
        from repro.serve.wire import encode_frame

        n_requests = 600
        with BackgroundServer(fleet) as bg:
            server = bg.server
            host, port = server.address
            raw = socket.socket()
            # a small receive window: the kernel holds little for us
            raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            raw.settimeout(10.0)
            raw.connect((host, port))
            other = SocketClient(host, port, client_name="other")
            try:
                request = encode_frame({
                    "op": "query",
                    "sql": "SELECT * FROM CUSTOMER WHERE C_ID >= ?",
                    "params": [0],
                })
                raw.setblocking(False)
                pipeline = memoryview(request * n_requests)
                sent = 0
                steady = 0
                last = -1
                while steady < 5:  # until the server has stopped serving it
                    if sent < len(pipeline):
                        try:
                            sent += raw.send(pipeline[sent:])
                        except BlockingIOError:
                            pass  # our own send buffer is full, too
                    time.sleep(0.05)
                    steady = steady + 1 if server.statements == last else 0
                    last = server.statements
                paused_at = server.statements
                assert 0 < paused_at < n_requests

                other.connect()
                assert other.ping()
                assert _credit(other, collect_keys(fleet)["customers"][0]) >= 0
                assert server.statements == paused_at + 1

                # the slow client catches up: everything is answered
                raw.setblocking(True)
                raw.settimeout(30.0)
                decoder = FrameDecoder()
                answered = 0
                while answered < n_requests:
                    if sent < len(pipeline):
                        raw.setblocking(False)
                        try:
                            sent += raw.send(pipeline[sent:])
                        except BlockingIOError:
                            pass
                        raw.setblocking(True)
                    frames = decoder.feed(raw.recv(1 << 20))
                    assert all(frame["ok"] for frame in frames)
                    answered += len(frames)
                assert server.statements == n_requests + 1
            finally:
                other.close()
                raw.close()


class TestAdmission:
    def test_connection_limit_sheds_with_a_retryable_error(self, fleet):
        config = ServerConfig(qos=False, max_connections=1)
        with _serving(fleet, config) as bg:
            host, port = bg.server.address
            first = SocketClient(host, port, client_name="first")
            first.connect()
            second = SocketClient(host, port, client_name="second")
            with pytest.raises(OverloadError) as exc_info:
                second.connect()
            assert exc_info.value.retryable is True
            assert bg.server.rejected == 1
            assert not second.connected  # rejected handshake tore down

            first.close()
            # the slot frees as the server finishes the first session
            for _ in range(200):
                try:
                    second.connect()
                    break
                except OverloadError:
                    time.sleep(0.01)
            assert second.connected
            second.close()

    def test_full_admission_queue_sheds_statements(self, fleet):
        config = ServerConfig(
            qos=True, policy=AdmissionPolicy(max_queue=0)
        )
        with _serving(fleet, config) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()  # control ops bypass statement admission
            with pytest.raises(OverloadError) as exc_info:
                client.query(READ_CREDIT, [1])
            assert exc_info.value.retryable is True
            assert client.ping()  # the connection survived the shed
            client.close()
            assert bg.server.shed == 1
            assert bg.server.errors == 0

    def test_deadline_expires_queued_work_unexecuted(self, fleet):
        config = ServerConfig(qos=True, deadline_s=1e-9)
        with _serving(fleet, config) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            with pytest.raises(DeadlineExceededError):
                client.query(READ_CREDIT, [1])
            client.close()
            assert bg.server.expired == 1
            assert bg.server.statements == 0  # never executed

    def test_time_in_the_inbox_counts_against_the_deadline(self, fleet):
        """A pipelined burst waits in its connection's inbox, behind its
        own first request, before any of it is admitted: that wait
        counts too, so the whole late burst expires -- not just the one
        request that waited in the admission queue."""
        cid = collect_keys(fleet)["customers"][0]
        # one admission slot, held by the test while the burst waits
        config = ServerConfig(qos=True, deadline_s=0.05, policy=AdmissionPolicy(
            initial_limit=1.0, min_limit=1.0, max_limit=1.0, max_queue=8,
        ))

        async def scenario():
            async with SQLServer(fleet, config) as server:
                probe = AsyncSQLClient(*server.address, client_name="probe")
                burst = AsyncSQLClient(*server.address, client_name="burst")
                await probe.connect()
                await burst.connect()
                server.controller.try_acquire(server._now())
                for _ in range(3):
                    burst.send_nowait(
                        {"op": "query", "sql": READ_CREDIT, "params": [cid]}
                    )
                await burst.drain()
                await asyncio.sleep(0.15)
                server.controller.release(server._now(), -1.0)
                # the probe's query runs the queue again
                assert (await probe.query(READ_CREDIT, [cid])).rows
                outcomes = []
                for _ in range(3):
                    try:
                        await burst.recv_response()
                        outcomes.append("ran")
                    except DeadlineExceededError:
                        outcomes.append("expired")
                await probe.close()
                await burst.close()
                return outcomes

        assert asyncio.run(scenario()) == ["expired"] * 3


class TestStatementIds:
    def test_text_crosses_the_wire_once_per_connection(
        self, fleet, monkeypatch
    ):
        from repro.serve import wire

        sent = []
        encode = wire.encode_frame

        def recording(payload):
            if payload.get("op") == "query":
                sent.append((dict(payload), len(encode(payload))))
            return encode(payload)

        monkeypatch.setattr(wire, "encode_frame", recording)
        cids = collect_keys(fleet)["customers"][:3]
        with BackgroundServer(fleet) as bg:
            client = SocketClient(*bg.server.address)
            client.connect()
            for cid in cids:
                assert client.query(READ_CREDIT, [cid]).rows
            client.close()
        (first, first_len), *later = sent
        assert first["sql"] == READ_CREDIT and first["sid"] == 0
        for frame, length in later:
            assert "sql" not in frame and frame["sid"] == 0
            assert length <= first_len - len(READ_CREDIT)

    def test_unknown_id_is_a_protocol_error_the_session_survives(
        self, fleet
    ):
        cid = collect_keys(fleet)["customers"][0]
        with BackgroundServer(fleet) as bg:
            client = SocketClient(*bg.server.address)
            client.connect()
            for sid in (7, "seven", None):
                with pytest.raises(SqlError, match="protocol") as exc_info:
                    client._request(
                        {"op": "query", "sid": sid, "params": [cid]}
                    )
                assert exc_info.value.retryable is False
            assert _credit(client, cid) >= 0  # still usable
            client.close()
            assert bg.server.errors == 3

    def test_one_registration_too_many_is_refused(self, fleet):
        from repro.serve.wire import MAX_STATEMENT_IDS

        cid = collect_keys(fleet)["customers"][0]
        with BackgroundServer(fleet) as bg:
            client = SocketClient(*bg.server.address)
            client.connect()
            for sid in range(MAX_STATEMENT_IDS):
                client._request({"op": "query", "sql": READ_CREDIT,
                                 "sid": sid, "params": [cid]})
            with pytest.raises(SqlError, match="table is full") as exc_info:
                client._request(
                    {"op": "query", "sql": READ_CREDIT,
                     "sid": MAX_STATEMENT_IDS, "params": [cid]}
                )
            assert exc_info.value.retryable is False
            # ids already registered still work, and may be re-registered
            assert client._request(
                {"op": "query", "sid": 3, "params": [cid]}
            )["rows"]
            assert client._request(
                {"op": "query", "sql": READ_CREDIT, "sid": 3,
                 "params": [cid]}
            )["rows"]
            client.close()

    def test_a_client_past_the_limit_sends_the_text(self):
        from repro.serve.client import _statement
        from repro.serve.wire import MAX_STATEMENT_IDS

        sids = {f"SELECT {i}": i for i in range(MAX_STATEMENT_IDS)}
        frame = _statement("query", "SELECT 'one more'", [1], sids)
        assert frame == {
            "op": "query", "sql": "SELECT 'one more'", "params": [1]
        }
        assert len(sids) == MAX_STATEMENT_IDS

    def test_a_shed_statement_still_registered_its_id(self, fleet):
        """Ids are registered as frames come off the wire: a retry by id
        after an admission shed is shed again, not a protocol error."""
        config = ServerConfig(qos=True, policy=AdmissionPolicy(max_queue=0))
        with _serving(fleet, config) as bg:
            client = SocketClient(*bg.server.address)
            client.connect()
            for _ in range(2):
                with pytest.raises(OverloadError):
                    client.query(READ_CREDIT, [1])
            client.close()
            assert bg.server.shed == 2
            assert bg.server.errors == 0

    def test_reconnect_starts_a_new_table(self, fleet):
        cid = collect_keys(fleet)["customers"][0]
        with BackgroundServer(fleet) as bg:
            host, port = bg.server.address
            client = SocketClient(host, port)
            client.connect()
            assert _credit(client, cid) >= 0
            assert client._sids == {READ_CREDIT: 0}
            client.close()
            assert client._sids == {}
            client.connect()  # a new session: the server knows no ids
            assert _credit(client, cid) >= 0
            assert _credit(client, cid) >= 0
            client.close()

            async def scenario():
                client = AsyncSQLClient(host, port)
                await client.connect()
                assert (await client.query(READ_CREDIT, [cid])).rows
                assert client._sids == {READ_CREDIT: 0}
                client.abort()
                assert client._sids == {}
                await client.connect()
                assert (await client.query(READ_CREDIT, [cid])).rows
                assert (await client.query(READ_CREDIT, [cid])).rows
                await client.close()
                assert client._sids == {}

            asyncio.run(scenario())
            assert bg.server.errors == 0


class TestFaultInjector:
    def test_actions_follow_the_plan_windows(self):
        plan = FaultPlan(
            [
                FaultSpec(kind=FaultKind.CONN_DROP, target="serve",
                          start_s=1.0, duration_s=1.0, intensity=1.0),
                FaultSpec(kind=FaultKind.CONN_STALL, target="serve",
                          start_s=3.0, duration_s=1.0, intensity=0.5),
            ],
            seed=3,
        )
        injector = ServeFaultInjector(plan, seed=3)
        assert injector.action(0.5) == ("none", 0.0)
        assert injector.action(1.5) == ("drop", 0.0)
        action, stall_s = injector.action(3.5)
        assert action == "stall"
        assert stall_s == pytest.approx(0.5 * STALL_SCALE_S)
        assert injector.drops == 1
        assert injector.stalls == 1
