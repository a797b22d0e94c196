"""Clients for the SQL-over-socket protocol.

Two layers, innermost first:

* :class:`SocketClient` -- a *synchronous* blocking-socket client
  implementing the transport-agnostic :class:`~repro.core.client.
  Client` protocol verb-for-verb, so any workload written against
  ``Client`` (the sales mix, the HA pair workload, the shard payment
  workload) runs over the wire unchanged.  Error frames are
  reconstructed into the engine exception hierarchy by
  :func:`~repro.serve.errors.from_wire`, so ``retryable`` /
  ``retry_after_s`` classification is identical to in-process runs.
* :class:`AsyncSQLClient` -- the asyncio counterpart, with split
  ``send_nowait``/``recv_response`` halves for statement pipelining
  (the load generator keeps many requests in flight per connection).

On both, a transaction costs its statements and its commit: ``begin()``
rides on the next frame (:class:`_LocalBegin`).
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.client import ClientError, coerce_isolation
from repro.engine.executor import ResultSet
from repro.serve import wire
from repro.serve.errors import from_wire

__all__ = ["AsyncSQLClient", "SocketClient"]


def _unwrap(frame: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Turn a response frame into a result payload or an exception."""
    if frame is None:
        raise ConnectionError("server closed the connection")
    if frame.get("ok"):
        return frame
    raise from_wire(frame.get("error", {}))


def _statement(
    op: str, sql: str, params: Sequence[Any], sids: Dict[str, int]
) -> Dict[str, Any]:
    """The request frame of one statement.

    ``sids`` is the connection's statement-id table: the text travels
    with the first frame that uses it, which registers the next free id
    for it, and later frames carry the id alone.  Past
    :data:`~repro.serve.wire.MAX_STATEMENT_IDS` texts the rest are sent
    in full every time.
    """
    sid = sids.get(sql)
    if sid is not None:
        return {"op": op, "sid": sid, "params": list(params)}
    if len(sids) >= wire.MAX_STATEMENT_IDS:
        return {"op": op, "sql": sql, "params": list(params)}
    sids[sql] = sid = len(sids)
    return {"op": op, "sql": sql, "sid": sid, "params": list(params)}


#: ``_begin`` of a client with no begin waiting for a frame to carry it
_NO_BEGIN = object()


class _LocalBegin:
    """The begin rule both socket clients share: a transaction's round
    trips are its statements.

    ``begin()`` sends nothing; the transaction's next ``execute``,
    ``query`` or ``commit`` frame carries it as a ``begin`` field (the
    isolation name, or null), and the server opens the transaction and
    runs that frame's op as one request.  Every response of a frame
    whose begin ran carries ``gtid`` -- an error response too -- and
    that is what settles the begin.  A frame that never ran (shed,
    expired) carries none: the begin stays pending, so the next frame
    carries it again and a rollback has nothing to send.
    """

    #: the pending begin's isolation name (None: the server's default),
    #: or :data:`_NO_BEGIN`
    _begin: Any = _NO_BEGIN
    #: gtid of the server-side transaction the last answer named
    gtid: Optional[str] = None

    def _note_begin(self, isolation: Optional[object]) -> None:
        if self._begin is not _NO_BEGIN:
            raise ClientError("begin() while a begin is pending")
        level = coerce_isolation(isolation)
        self._begin = None if level is None else level.name

    def _carry(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        """``frame`` with the pending begin riding on it, if there is one."""
        if self._begin is not _NO_BEGIN:
            frame["begin"] = self._begin
        return frame

    def _settled(self, response: Dict[str, Any]) -> Dict[str, Any]:
        """Take what a response says about the transaction."""
        if "gtid" in response:
            self.gtid = response["gtid"]
            self._begin = _NO_BEGIN
        return response

    def _forget_begin(self) -> bool:
        """Drop a pending begin; True when there was one -- the server
        then holds no transaction of this client's to end."""
        pending = self._begin is not _NO_BEGIN
        self._begin = _NO_BEGIN
        return pending


def _result_set(frame: Dict[str, Any]) -> ResultSet:
    """Rebuild an engine :class:`ResultSet` from a response frame."""
    return ResultSet(
        columns=tuple(frame.get("columns", ())),
        rows=[tuple(row) for row in frame.get("rows", ())],
        rowcount=int(frame.get("rowcount", 0)),
    )


class SocketClient(_LocalBegin):
    """Blocking-socket :class:`~repro.core.client.Client` implementation.

    One instance is one connection is one session: transaction affinity
    lives server-side, so ``begin()`` .. ``commit()`` here brackets a
    server-held global transaction exactly as
    :class:`~repro.core.client.FleetClient` brackets an in-process one
    -- opened by the first frame after ``begin()`` (see
    :class:`_LocalBegin`), so ``gtid`` names it once the server answered.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_name: str = "socket-client",
    ):
        self.host = host
        self.port = port
        self.client_name = client_name
        self._sock: Optional[socket.socket] = None
        self._decoder = wire.FrameDecoder()
        self._inbox: "deque[Dict[str, Any]]" = deque()
        #: statement ids registered on this connection (sql -> id)
        self._sids: Dict[str, int] = {}
        self._in_txn = False
        self.n_shards: Optional[int] = None

    # -- plumbing ------------------------------------------------------------

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        if self._sock is None:
            raise ClientError("client is not connected")
        try:
            self._sock.sendall(wire.encode_frame(frame))
            return _unwrap(self._next_frame())
        except (ConnectionError, OSError, wire.FrameError):
            # the stream is gone or poisoned: this session is over
            self._teardown()
            raise

    def _next_frame(self) -> Optional[Dict[str, Any]]:
        decoder = self._decoder
        while not self._inbox:
            if decoder.error is not None:
                raise decoder.error  # after the good frames before it
            data = self._sock.recv(65536)
            if not data:
                decoder.end_of_stream()
                return None
            self._inbox.extend(decoder.feed(data))
        return self._settled(self._inbox.popleft())

    def _teardown(self) -> None:
        sock, self._sock = self._sock, None
        self._in_txn = False
        self._forget_begin()
        # a new connection is a new stream and a new id table
        self._decoder = wire.FrameDecoder()
        self._inbox.clear()
        self._sids.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- the Client protocol -------------------------------------------------

    def connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection((self.host, self.port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            hello = self._request({"op": "hello", "client": self.client_name})
        except BaseException:
            # a rejected handshake (connection cap) must not leave a
            # stale socket behind -- the caller retries with connect()
            self._teardown()
            raise
        self.n_shards = hello.get("n_shards")

    @property
    def in_txn(self) -> bool:
        return self._in_txn

    def execute(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return _result_set(self._request(
            self._carry(_statement("execute", sql, params, self._sids))
        ))

    def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return _result_set(self._request(
            self._carry(_statement("query", sql, params, self._sids))
        ))

    def begin(self, isolation: Optional[object] = None) -> None:
        if self._in_txn:
            raise ClientError("begin() inside an open transaction")
        self._note_begin(isolation)
        self._in_txn = True

    def commit(self) -> None:
        if not self._in_txn:
            raise ClientError("commit() outside a transaction")
        try:
            self._request(self._carry({"op": "commit"}))
        finally:
            self._in_txn = False
            self._forget_begin()

    def rollback(self) -> None:
        if not self._in_txn:
            raise ClientError("rollback() outside a transaction")
        try:
            if not self._forget_begin():
                self._request({"op": "rollback"})
        finally:
            self._in_txn = False

    def abandon(self) -> None:
        """Drop transaction affinity without rolling back (post-crash).

        The server detaches the dangling global transaction from this
        session (its branches stay for crash recovery to resolve) so
        the connection can ``begin()`` afresh.
        """
        if not self._in_txn:
            return
        try:
            if not self._forget_begin():
                self._request({"op": "abandon"})
        except (ConnectionError, OSError, wire.FrameError):
            pass
        finally:
            self._in_txn = False

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._request({"op": "goodbye"})
        except (ConnectionError, OSError, wire.FrameError):
            pass
        self._teardown()

    # -- extensions beyond the core protocol ---------------------------------

    def batch(self, stmts: Sequence[Tuple[str, Sequence[Any]]]) -> List[int]:
        """One whole transaction in one frame; returns the rowcounts."""
        response = self._request(self._carry(
            {"op": "batch",
             "stmts": [[sql, list(params)] for sql, params in stmts]}
        ))
        return [int(n) for n in response.get("rowcounts", ())]

    def ping(self) -> bool:
        return bool(self._request({"op": "ping"}).get("ok"))


class _ClientConnection(asyncio.Protocol):
    """The client end of one connection: responses are decoded into
    ``inbox`` as they arrive; ``error`` says why the connection ended."""

    def __init__(self):
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = wire.FrameDecoder()
        self.inbox: "deque[Dict[str, Any]]" = deque()
        #: what a ``recv_response`` / ``drain`` in progress waits on
        self.reader: Optional[asyncio.Future] = None
        self.writer: Optional[asyncio.Future] = None
        self.paused = False
        self.error: Optional[BaseException] = None
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        try:
            self.inbox.extend(self.decoder.feed(data))
        except wire.FrameError:
            pass  # decoder.error is set
        if self.decoder.error is not None:
            self._end(self.decoder.error)
            self.transport.abort()
        _wake(self.reader)

    def eof_received(self) -> None:
        try:
            self.decoder.end_of_stream()
        except wire.FrameError as error:
            self._end(error)
        else:
            self._end(ConnectionError("server closed the connection"))

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        _wake(self.writer)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._end(exc or ConnectionError("connection lost"))
        self.lost.set_result(None)

    def _end(self, error: BaseException) -> None:
        if self.error is None:
            self.error = error
        _wake(self.reader)
        _wake(self.writer)


def _wake(waiter: Optional[asyncio.Future]) -> None:
    if waiter is not None and not waiter.done():
        waiter.set_result(None)


class AsyncSQLClient(_LocalBegin):
    """Asyncio client with pipelining support.

    The request/response halves are split -- :meth:`send_nowait` queues
    a frame on the socket without waiting, :meth:`recv_response` takes
    the next response off the stream (the server answers strictly in
    order, so FIFO matching is exact) and suspends only when none has
    arrived yet.  The plain ``await``-per-request helpers
    (:meth:`execute`, :meth:`batch`, ...) compose the two.  One task
    sends and one task receives on a client at a time.
    """

    def __init__(
        self,
        host: str,
        port: int,
        client_name: str = "async-client",
    ):
        self.host = host
        self.port = port
        self.client_name = client_name
        self._conn: Optional[_ClientConnection] = None
        #: statement ids registered on this connection (sql -> id)
        self._sids: Dict[str, int] = {}
        self._pending = 0
        self.n_shards: Optional[int] = None

    @property
    def connected(self) -> bool:
        return self._conn is not None

    @property
    def pending(self) -> int:
        """Requests sent but not yet matched with a response."""
        return self._pending

    async def connect(self) -> None:
        if self._conn is not None:
            return
        _transport, self._conn = await (
            asyncio.get_running_loop().create_connection(
                _ClientConnection, self.host, self.port
            )
        )
        try:
            hello = await self.request({"op": "hello", "client": self.client_name})
        except BaseException:
            # a rejected handshake (connection cap) must not leave a
            # stale half-open client -- the caller retries with connect()
            self.abort()
            raise
        self.n_shards = hello.get("n_shards")

    def _detach(self) -> Optional[_ClientConnection]:
        """Forget the connection and what was registered on it."""
        conn, self._conn = self._conn, None
        self._pending = 0
        self._sids.clear()
        self._forget_begin()
        return conn

    async def close(self) -> None:
        conn = self._detach()
        if conn is None:
            return
        if conn.error is None:
            conn.transport.write(wire.encode_frame({"op": "goodbye"}))
        conn.transport.close()
        await conn.lost

    def abort(self) -> None:
        """Drop the connection on the floor (simulates a client crash)."""
        conn = self._detach()
        if conn is not None:
            conn.transport.abort()

    # -- pipelined halves ----------------------------------------------------

    def send_nowait(self, frame: Dict[str, Any]) -> None:
        """Queue one request frame without waiting for the response."""
        if self._conn is None:
            raise ClientError("client is not connected")
        self._conn.transport.write(wire.encode_frame(frame))
        self._pending += 1

    async def drain(self) -> None:
        """Suspend while the transport's write buffer is over its high
        water mark; raises what ended the connection, if it has."""
        conn = self._conn
        if conn is None:
            return
        while conn.paused and conn.error is None:
            waiter = conn.writer = asyncio.get_running_loop().create_future()
            try:
                await waiter
            finally:
                conn.writer = None
        if conn.error is not None:
            raise conn.error

    async def recv_response(self) -> Dict[str, Any]:
        """The next response, awaited only if it is not there yet;
        raises the reconstructed exception on an error frame."""
        conn = self._conn
        if conn is None:
            raise ClientError("client is not connected")
        inbox = conn.inbox
        while not inbox:
            if conn.error is not None:
                raise conn.error
            waiter = conn.reader = asyncio.get_running_loop().create_future()
            try:
                await waiter
            finally:
                conn.reader = None
        self._pending = max(0, self._pending - 1)
        return _unwrap(self._settled(inbox.popleft()))

    async def request(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        self.send_nowait(frame)
        conn = self._conn
        if conn.paused or conn.error is not None:
            # only a full write buffer waits, and a dead connection
            # raises its error before any frame left in its inbox
            await self.drain()
        return await self.recv_response()

    # -- await-per-request helpers -------------------------------------------

    async def execute(
        self, sql: str, params: Sequence[Any] = ()
    ) -> ResultSet:
        return _result_set(await self.request(
            self._carry(_statement("execute", sql, params, self._sids))
        ))

    async def query(self, sql: str, params: Sequence[Any] = ()) -> ResultSet:
        return _result_set(await self.request(
            self._carry(_statement("query", sql, params, self._sids))
        ))

    async def begin(self, isolation: Optional[object] = None) -> None:
        """Sends nothing: the next execute, query or commit carries it."""
        self._note_begin(isolation)

    async def commit(self) -> None:
        await self.request(self._carry({"op": "commit"}))

    async def rollback(self) -> None:
        if not self._forget_begin():
            await self.request({"op": "rollback"})

    async def batch(
        self, stmts: Sequence[Tuple[str, Sequence[Any]]]
    ) -> List[int]:
        response = await self.request(self._carry(
            {"op": "batch",
             "stmts": [[sql, list(params)] for sql, params in stmts]}
        ))
        return [int(n) for n in response.get("rowcounts", ())]

    async def ping(self) -> bool:
        return bool((await self.request({"op": "ping"})).get("ok"))

