"""The asyncio SQL-over-socket server fronting the shard fleet.

One :class:`SQLServer` owns one :class:`~repro.shard.fleet.
ShardedDatabase` and serves the frame protocol of
:mod:`repro.serve.wire` to any number of concurrent connections:

* **Per-connection sessions with transaction affinity** -- each
  connection holds at most one open global transaction; ``execute``
  frames between ``begin`` and ``commit`` enlist in it, exactly like
  the in-process :class:`~repro.core.client.FleetClient`.  The begin
  may ride on the transaction's first frame as a ``begin`` field, so
  a transaction costs its statements, not a round trip more.
* **Statement pipelining** -- clients may stream many request frames
  without waiting; a connection is an :class:`asyncio.Protocol` whose
  ``data_received`` decodes them into an inbox that is served in
  arrival order, one statement of a connection in the admission queue
  at a time, so responses come back in the same order.  A client that
  does not read its responses is not read from either (``pause_writing``
  pauses reading) until it catches up.  A ``batch`` frame goes
  further: the whole transaction executes atomically with respect to
  the event loop (no callbacks run between its statements), which is
  what makes measured counters deterministic under arbitrary
  connection interleavings.
* **Admission control** -- connection admission and statement admission
  both run through the existing qos machinery
  (:class:`~repro.qos.admission.AdmissionController`).  Connections hit a
  fixed-limit gate at accept; statements flow through a server-wide
  *bounded* admission queue drained by one loop callback, scheduled
  whenever work is queued and none is scheduled.  A full queue
  sheds immediately with a retryable ``overload`` wire error carrying
  the drain-based ``retry_after_s`` hint, and admitted statements that
  outlived ``deadline_s`` since they arrived are expired *without* executing
  -- the two behaviours that keep goodput alive past the saturation
  knee.  With qos off the queue is unbounded and nothing expires: the
  server does 100% of the work arbitrarily late, which is the
  goodput-collapse baseline the serve evaluator measures against.
* **Chaos** -- a :class:`ServeFaultInjector` driven by the standard
  :class:`~repro.chaos.plan.FaultPlan` machinery injects the two
  serving-tier fault kinds: ``CONN_DROP`` (the server hangs up
  abruptly, possibly mid-pipeline) and ``CONN_STALL`` (the
  connection's statement intake freezes for a window).

The engine itself is synchronous pure Python, so statement execution
runs on the event loop; the server's concurrency is at the *protocol*
layer (thousands of open connections, interleaved frame streams),
which is the layer this testbed is measuring.  The server runs in the
process of its caller, on loopback and an ephemeral port.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.chaos.plan import FaultKind, FaultPlan
from repro.core.client import coerce_isolation
from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    OverloadError,
    SqlError,
)
from repro.obs import NULL_OBSERVER, Observer
from repro.qos.admission import AdmissionController, AdmissionPolicy
from repro.serve import wire
from repro.serve.errors import to_wire
from repro.sim.rng import RngRegistry

__all__ = ["ServeFaultInjector", "ServerConfig", "SQLServer"]

#: ops answered inline by the session (no admission, no engine work)
_CONTROL_OPS = frozenset({"hello", "ping", "goodbye"})

#: ops a ``begin`` field may ride on (the transaction's first frame)
_BEGIN_CARRIERS = frozenset({"execute", "query", "commit"})

#: key of a decoded frame's arrival time, stamped only when requests
#: have a deadline; not a string, so no frame off the wire can carry it
_ARRIVED_S = ("arrived_s",)

#: backoff hint shipped with drain-shed errors: long enough for the
#: replacement server to take the socket over, short enough that a
#: retrying client barely notices the handover
DRAIN_RETRY_AFTER_S = 0.05

#: the address the server listens on; port 0 picks an ephemeral port
HOST = "127.0.0.1"
#: the server's name in its hello response, error messages and the
#: names of its admission controllers
SERVER_NAME = "serve"


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of one serving-tier instance."""

    #: accepted connections beyond this are shed with a retryable error
    max_connections: int = 2048
    #: statement admission control (the qos stack) on or off
    qos: bool = True
    #: statement-admission policy when qos is on; ``max_queue`` is the
    #: knob that matters for a synchronous executor (the concurrency
    #: limit never binds when statements run one at a time)
    policy: AdmissionPolicy = AdmissionPolicy(max_queue=64)
    #: server-side statement deadline: work that has waited longer than
    #: this since it came off the wire -- in its connection's inbox and
    #: the admission queue -- is expired without executing (qos on
    #: only; None disables)
    deadline_s: Optional[float] = None
    max_frame: int = wire.MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        if self.max_frame < 1:
            raise ValueError("max_frame must be >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")


#: seconds a full-intensity ``CONN_STALL`` holds each statement
STALL_SCALE_S = 0.05


class ServeFaultInjector:
    """Drives ``CONN_DROP`` / ``CONN_STALL`` faults from a fault plan.

    Windows are relative to server start.  Within an active
    ``CONN_DROP`` window each statement is dropped with probability
    ``intensity`` (the connection is closed abruptly, no response);
    within ``CONN_STALL`` every statement stalls for ``intensity x
    STALL_SCALE_S`` seconds before intake.  Draws come from a dedicated
    seeded stream so fault firing is reproducible and never perturbs
    workload RNGs.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self._rng = RngRegistry(seed).stream("serve.faults")
        self.drops = 0
        self.stalls = 0

    def action(self, now_s: float) -> Tuple[str, float]:
        """(``"drop"|"stall"|"none"``, stall seconds) for one statement."""
        stall_s = 0.0
        for spec in self.plan.active(now_s, kind=FaultKind.CONN_STALL):
            stall_s = max(stall_s, spec.intensity * STALL_SCALE_S)
        for spec in self.plan.active(now_s, kind=FaultKind.CONN_DROP):
            if self._rng.random() < spec.intensity:
                self.drops += 1
                return "drop", 0.0
        if stall_s > 0:
            self.stalls += 1
            return "stall", stall_s
        return "none", 0.0


class _Session:
    """Per-connection state: the open transaction, the priority and
    the statement ids the client registered."""

    __slots__ = ("conn_id", "priority", "gtxn", "client_name", "statements")

    def __init__(self, conn_id: int):
        self.conn_id = conn_id
        self.priority = 1
        self.gtxn = None
        self.client_name = ""
        self.statements: Dict[int, str] = {}

    @property
    def in_txn(self) -> bool:
        return self.gtxn is not None and self.gtxn.is_active

    def statement_text(self, frame: Dict[str, Any]) -> str:
        """The SQL text of a frame that carries a ``sid``: registered
        first when the frame carries the text too, looked up when not."""
        sid, sql = frame["sid"], frame.get("sql")
        known = self.statements
        if not isinstance(sid, int):
            raise _protocol_error(f"statement id {sid!r} is not an integer")
        if sql is None:
            try:
                return known[sid]
            except KeyError:
                raise _protocol_error(f"unknown statement id {sid}") from None
        if not isinstance(sql, str):
            raise _protocol_error("execute frame without sql")
        if sid not in known and len(known) >= wire.MAX_STATEMENT_IDS:
            raise _protocol_error(
                f"statement id table is full "
                f"({wire.MAX_STATEMENT_IDS} ids per connection)"
            )
        known[sid] = sql
        return sql


#: decoded requests one connection may have waiting before the server
#: stops reading its socket (TCP pushes back on the client from there)
_INBOX_HIGH_WATER = 256


class _Connection(asyncio.Protocol):
    """The server end of one connection.

    ``data_received`` decodes into ``inbox``; :meth:`_pump` serves the
    inbox in order and stops whenever a frame has to wait -- in the
    admission queue, or stalled by a fault -- so responses keep request
    order and a connection never has more than one statement admitted.
    """

    def __init__(self, server: "SQLServer"):
        self.server = server
        #: None when the connection gate turned the connection away
        self.session: Optional[_Session] = None
        #: None before admission, after a hang-up and once lost
        self.transport: Optional[asyncio.Transport] = None
        self.decoder = wire.FrameDecoder(max_frame=server.config.max_frame)
        self.inbox: "deque[Dict[str, Any]]" = deque()
        #: the frame of this connection in the admission queue, if any
        self.queued: Optional[Dict[str, Any]] = None
        #: that frame, or one stalled by a fault, is holding the inbox
        self.waiting = False
        #: the client is not reading its responses
        self.write_paused = False
        #: no more requests will arrive (EOF, or the stream is poisoned)
        self.ended = False
        #: set by a goodbye or an EOF at a frame boundary
        self.clean = False

    # -- transport callbacks ---------------------------------------------------

    def connection_made(self, transport) -> None:
        server = self.server
        try:
            if server._draining:
                raise server._drain_error()
            server._conn_gate.try_acquire(server._now())
        except OverloadError as error:
            server.rejected += 1
            if server.obs.enabled:
                server.obs.count("serve.reject")
            transport.write(wire.encode_frame(_refusal(error)))
            transport.close()
            return
        self.transport = transport
        server.accepted += 1
        server._next_conn_id += 1
        self.session = _Session(server._next_conn_id)
        if server.obs.enabled:
            server.obs.count("serve.accept")
            server._g_active.set(float(server.active_connections))

    def data_received(self, data: bytes) -> None:
        if self.transport is None:
            return
        try:
            frames = self.decoder.feed(data)
        except wire.FrameError:
            frames = ()  # decoder.error is set
        if frames and self.server.config.deadline_s is not None:
            # the deadline counts from here: time in the inbox, behind
            # this connection's earlier requests, is time waited too
            now = self.server._now()
            for frame in frames:
                frame[_ARRIVED_S] = now
        self.inbox.extend(frames)
        if self.decoder.error is not None:
            self.ended = True
        if self.ended or len(self.inbox) > _INBOX_HIGH_WATER:
            self.transport.pause_reading()  # _pump resumes it
        self._pump()

    def eof_received(self) -> bool:
        if self.transport is not None:
            self.ended = True
            self._pump()
        return True  # _pump closes, once the inbox is served

    def pause_writing(self) -> None:
        self.write_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.write_paused = False
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.transport is None:
            return  # turned away at the gate, or hung up on
        self.transport = None
        self.inbox.clear()
        # a statement still in the admission queue runs against this
        # session: its transaction is rolled back after it, not under it
        if not self.waiting:
            self._finish()

    # -- serving the inbox -------------------------------------------------------

    def _pump(self) -> None:
        """Serve inbox frames in order until one has to wait."""
        inbox = self.inbox
        faults = self.server.faults
        while inbox and not self.waiting and not self.write_paused:
            frame = inbox.popleft()
            if faults is None or not self._faulted(frame):
                self._dispatch(frame)
        if (
            inbox or self.waiting or self.write_paused
            or self.transport is None
        ):
            return
        if self.ended:
            self._end_of_stream()
        else:
            self.transport.resume_reading()  # a no-op unless paused

    def _end_of_stream(self) -> None:
        """Every request that arrived is answered: close -- after one
        final error frame when the stream did not end on a frame
        boundary."""
        try:
            self.decoder.end_of_stream()
            self.clean = True
        except wire.FrameError as error:
            self._respond(_refusal(_protocol_error(str(error))))
        self._hang_up()

    def _faulted(self, frame: Dict[str, Any]) -> bool:
        """Apply the fault plan to one frame; True when it was dropped
        or stalled (a stalled frame is dispatched later)."""
        server = self.server
        action, stall_s = server.faults.action(server._now())
        if action == "drop":
            if server.obs.enabled:
                server.obs.count("serve.fault.drop")
            self._hang_up()  # abrupt: no response
            return True
        if action == "stall":
            if server.obs.enabled:
                server.obs.count("serve.fault.stall")
            self.waiting = True
            server._loop.call_later(stall_s, self._stall_over, frame)
            return True
        return False

    def _stall_over(self, frame: Dict[str, Any]) -> None:
        self.waiting = False
        if self.transport is None:
            self._finish()
            return
        self._dispatch(frame)
        self._pump()

    def _dispatch(self, frame: Dict[str, Any]) -> None:
        """Answer a control frame inline; queue a SQL frame."""
        server = self.server
        op = frame.get("op")
        if op in _CONTROL_OPS or op not in server._HANDLERS:
            self._respond(server._execute_frame(self.session, frame))
            if op == "goodbye":
                self.clean = True
                self._hang_up()
            return
        if "sid" in frame:
            # ids are registered as frames come off the wire, whatever
            # admission then does with the statement
            try:
                frame["sql"] = self.session.statement_text(frame)
            except EngineError as error:
                self._respond(server._failure(error))
                return
        response = server._submit(self, frame)
        if response is not None:
            self._respond(response)  # shed

    def _completed(self, response: Dict[str, Any]) -> None:
        """The drain callback ran this connection's queued statement."""
        self.queued = None
        self.waiting = False
        if self.transport is None:
            self._finish()
            return
        self._respond(response)
        if self.inbox:
            # a pipelined follow-up queues up behind the requests that
            # arrived meanwhile, not ahead of them in the slot this
            # connection just vacated: the loop reads its sockets first
            self.server._loop.call_soon(self._pump)
        else:
            self._pump()

    def _respond(self, response: Dict[str, Any]) -> None:
        try:
            data = wire.encode_frame(response)
        except wire.FrameError as error:
            # the result does not fit a frame: say so instead (keeping
            # the gtid -- a begin that ran must not look pending)
            refusal = _refusal(_protocol_error(str(error)))
            if "gtid" in response:
                refusal["gtid"] = response["gtid"]
            data = wire.encode_frame(refusal)
        self.transport.write(data)

    def _hang_up(self) -> None:
        """Close once what was written is flushed; nothing more is
        served, and nothing is in flight (a waiting connection is not
        pumped), so the session ends here."""
        transport, self.transport = self.transport, None
        self.inbox.clear()
        transport.close()
        self._finish()

    def _finish(self) -> None:
        """The connection is gone and none of its work is in flight."""
        server = self.server
        if not self.clean:
            server.abrupt_disconnects += 1
            if server.obs.enabled:
                server.obs.count("serve.disconnect.abrupt")
        server._cleanup_session(self.session)
        server._conn_gate.release(server._now(), -1.0)
        if server.obs.enabled:
            server._g_active.set(float(server.active_connections))


class SQLServer:
    """Asyncio SQL-over-socket server over one shard fleet."""

    def __init__(
        self,
        fleet,
        config: Optional[ServerConfig] = None,
        observer: Optional[Observer] = None,
        fault_injector: Optional[ServeFaultInjector] = None,
    ):
        self.fleet = fleet
        self.config = config or ServerConfig()
        self.obs = observer or NULL_OBSERVER
        self.faults = fault_injector
        #: statement admission (bounded queue mode); None when qos is off
        self.controller: Optional[AdmissionController] = (
            AdmissionController(
                self.config.policy,
                name=f"{SERVER_NAME}.stmt",
                observer=self.obs,
            )
            if self.config.qos
            else None
        )
        #: connection admission through the same qos machinery: a fixed
        #: limit (no AIMD -- releases pass latency < 0) equal to the
        #: connection cap
        cap = float(self.config.max_connections)
        self._conn_gate = AdmissionController(
            AdmissionPolicy(
                initial_limit=cap, min_limit=min(1.0, cap), max_limit=cap,
                max_queue=0,
            ),
            name=f"{SERVER_NAME}.conn",
            observer=self.obs,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: qos-off queue of connections with a statement to run (qos-on
        #: they wait inside the controller)
        self._fifo: "deque[_Connection]" = deque()
        #: a _drain callback is on the loop's ready list
        self._drain_scheduled = False
        self._started_at = 0.0
        self._next_conn_id = 0
        # cumulative accounting (cheap, always on -- evaluators read it)
        self.accepted = 0
        self.rejected = 0
        self.statements = 0
        self.errors = 0
        self.shed = 0
        self.expired = 0
        self.abrupt_disconnects = 0
        self.orphan_rollbacks = 0
        #: graceful-shutdown state: while draining, queued statements
        #: finish and reach their clients; new work is shed retryably
        self._draining = False
        self._pending_stmts = 0
        self._g_active = (
            self.obs.metrics.gauge("serve.conn.active")
            if self.obs.enabled else None
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def active_connections(self) -> int:
        return self._conn_gate.inflight

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def _now(self) -> float:
        return time.monotonic() - self._started_at

    async def start(self) -> Tuple[str, int]:
        """Bind and serve.  The accept backlog is ``max_connections``
        (asyncio's default of 100 would park a larger burst of connects
        in the kernel's SYN retransmit)."""
        if self._server is not None:
            raise RuntimeError("server is already started")
        self._started_at = time.monotonic()
        self._draining = False
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), host=HOST, port=0,
            backlog=self.config.max_connections,
        )
        return self.address

    async def stop(self, drain: bool = False) -> None:
        """Stop accepting and close; idempotent.

        With ``drain`` the shutdown is graceful: every statement
        already admitted finishes and its response reaches the client
        before the sockets go down, while *new* statements (and new
        connections) are shed with a retryable
        :class:`~repro.engine.errors.OverloadError` carrying a
        ``retry_after_s`` hint -- so a well-behaved client loses
        nothing, it just lands its retry on the replacement server.
        """
        server, self._server = self._server, None
        if server is None:
            return
        if drain:
            self._draining = True
            while self._pending_stmts > 0:
                await asyncio.sleep(0)
        server.close()
        await server.wait_closed()
        # Retired servers shed: a session that outlives the listener is
        # sent to the replacement server.  start() clears the flag.
        self._draining = True

    async def __aenter__(self) -> "SQLServer":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    def _cleanup_session(self, session: _Session) -> None:
        """Roll back whatever the departed connection left open."""
        if session.in_txn:
            self.orphan_rollbacks += 1
            if self.obs.enabled:
                self.obs.count("serve.txn.orphan_rollback")
            try:
                session.gtxn.rollback()
            except EngineError:
                pass
        session.gtxn = None

    # -- the admission queue and its drain callback ----------------------------

    def _drain_error(self) -> OverloadError:
        return OverloadError(
            f"{SERVER_NAME}: draining for shutdown; retry against "
            f"the replacement server",
            retry_after_s=DRAIN_RETRY_AFTER_S,
        )

    def _submit(
        self, conn: _Connection, frame: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Queue ``conn``'s next SQL frame for :meth:`_drain`, which
        hands the response to ``conn._completed``; a shed statement's
        error response is returned instead."""
        try:
            if self._draining:
                raise self._drain_error()
            if self.controller is not None:
                self.controller.enqueue(
                    conn, self._now(), priority=conn.session.priority
                )
            else:
                self._fifo.append(conn)
        except OverloadError as error:
            self.shed += 1
            if self.obs.enabled:
                self.obs.count("serve.stmt.shed")
            return _refusal(error)
        conn.queued = frame
        conn.waiting = True
        self._pending_stmts += 1
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self._loop.call_soon(self._drain)
        return None

    def _drain(self) -> None:
        """Execute every admitted statement, in admission order.

        One plain loop callback: it is scheduled when work is queued
        and none is scheduled, so statements always take the queue hop
        (priority order, queue-full shedding and deadline expiry depend
        on it) but cost no task switch.
        """
        self._drain_scheduled = False
        controller, fifo = self.controller, self._fifo
        while True:
            if controller is not None:
                ticket = controller.next_ready(self._now())
                if ticket is None:
                    return
                conn = ticket.item
                response = self._run_admitted(conn)
            elif fifo:
                conn = fifo.popleft()
                response = self._execute_frame(conn.session, conn.queued)
            else:
                return
            self._pending_stmts -= 1
            conn._completed(response)

    def _run_admitted(self, conn: _Connection) -> Dict[str, Any]:
        """Execute (or expire) a statement the controller let through,
        and give the slot back."""
        started = self._now()
        deadline_s = self.config.deadline_s
        waited = 0.0 if deadline_s is None else started - conn.queued[_ARRIVED_S]
        if deadline_s is not None and waited > deadline_s:
            # deadline propagation: the client gave up on this
            # statement while it waited -- expire it unexecuted
            self.expired += 1
            if self.obs.enabled:
                self.obs.count("serve.stmt.expired")
            self.controller.release(self._now(), -1.0)
            return _refusal(DeadlineExceededError(
                f"{SERVER_NAME}: statement expired after "
                f"{waited:.3f}s waiting to run"
            ))
        response = self._execute_frame(conn.session, conn.queued)
        now = self._now()
        self.controller.release(
            now, now - started, ok=bool(response.get("ok"))
        )
        return response

    # -- request execution ------------------------------------------------------

    def _execute_frame(
        self, session: _Session, frame: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Run one frame to completion, mapping every failure through
        the wire taxonomy (errors cross the socket *only* via
        :func:`~repro.serve.errors.to_wire` -- the one place)."""
        op = frame.get("op")
        handler = self._HANDLERS.get(op)
        if handler is None:
            return _refusal(_protocol_error(f"unknown op {op!r}"))
        try:
            if "begin" in frame:
                return self._begun(session, frame, handler)
            return handler(self, session, frame)
        except Exception as error:  # noqa: BLE001 -- never kill the session
            return self._failure(error)

    def _begun(self, session: _Session, frame: Dict[str, Any], handler):
        """Run a frame that carries its transaction's ``begin``: the
        begin op first, then the frame's own op.  Once the begin ran,
        the response carries the ``gtid`` -- an error response too --
        which is how the client knows the transaction is open."""
        op = frame["op"]
        if op not in _BEGIN_CARRIERS:
            raise _protocol_error(
                f"begin rides on execute, query or commit, not on {op}"
            )
        gtid = self._op_begin(session, {"isolation": frame["begin"]})["gtid"]
        try:
            response = handler(self, session, frame)
        except Exception as error:  # noqa: BLE001 -- never kill the session
            response = self._failure(error)
        response["gtid"] = gtid
        return response

    def _failure(self, error: Exception) -> Dict[str, Any]:
        """The error response of a frame that failed."""
        self.errors += 1
        if self.obs.enabled and isinstance(error, EngineError):
            self.obs.count("serve.stmt.error")
        return _refusal(error)

    def _op_hello(self, session, frame):
        priority = frame.get("priority", 1)
        if type(priority) is not int:
            raise _protocol_error(f"priority {priority!r} is not an integer")
        session.client_name = str(frame.get("client", ""))
        session.priority = priority
        return {
            "ok": True,
            "server": SERVER_NAME,
            "n_shards": self.fleet.n_shards,
            "max_frame": self.config.max_frame,
        }

    def _op_ping(self, session, frame):
        return {"ok": True}

    def _op_goodbye(self, session, frame):
        self._cleanup_session(session)
        return {"ok": True, "bye": True}

    def _run_statement(
        self, session: _Session, sql: str, params, read_only: bool
    ):
        gtxn = session.gtxn if session.in_txn else None
        run = self.fleet.query if read_only else self.fleet.execute
        return run(sql, params, gtxn=gtxn)

    def _op_execute(self, session, frame, read_only: bool = False):
        sql = frame.get("sql")
        if not isinstance(sql, str):
            raise _protocol_error("execute frame without sql")
        params = frame.get("params", [])
        if not isinstance(params, list):
            raise _protocol_error(f"params {params!r} is not a list")
        self.statements += 1
        result = self._run_statement(session, sql, params, read_only)
        if self.obs.enabled:
            self.obs.count("serve.stmt.ok")
        # tuples encode as JSON arrays: the result goes out uncopied
        return {
            "ok": True,
            "columns": result.columns,
            "rows": result.rows,
            "rowcount": result.rowcount,
        }

    def _op_query(self, session, frame):
        return self._op_execute(session, frame, read_only=True)

    def _op_begin(self, session, frame):
        if session.in_txn:
            raise _protocol_error("begin inside an open transaction")
        session.gtxn = self.fleet.begin(
            isolation=coerce_isolation(frame.get("isolation"))
        )
        if self.obs.enabled:
            self.obs.count("serve.txn.begin")
        return {"ok": True, "gtid": session.gtxn.gtid}

    def _op_commit(self, session, frame):
        if not session.in_txn:
            raise _protocol_error("commit outside a transaction")
        gtxn = session.gtxn
        try:
            gtxn.commit()
        finally:
            if not gtxn.is_active:
                session.gtxn = None
        if self.obs.enabled:
            self.obs.count("serve.txn.commit")
        return {"ok": True, "gtid": gtxn.gtid}

    def _op_rollback(self, session, frame):
        if not session.in_txn:
            raise _protocol_error("rollback outside a transaction")
        gtxn = session.gtxn
        try:
            gtxn.rollback()
        finally:
            if not gtxn.is_active:
                session.gtxn = None
        return {"ok": True}

    def _op_abandon(self, session, frame):
        """Drop the session's transaction affinity *without* rollback.

        For the post-crash convention (see ``Client.abandon``): a
        :class:`~repro.engine.errors.SimulatedCrash` left the global
        transaction dangling on purpose -- its branches belong to crash
        recovery -- but this session must be able to ``begin`` again.
        """
        session.gtxn = None
        return {"ok": True}

    def _op_batch(self, session, frame):
        """One whole transaction, atomic with respect to the event loop.

        The drainer calls this synchronously -- no awaits happen between
        the BEGIN and the COMMIT below, so two pipelined batches from
        different connections can never interleave their statements,
        which is what pins the measured counters (committed / aborted /
        fsyncs) regardless of asyncio scheduling order.
        """
        if session.in_txn:
            raise _protocol_error("batch inside an open transaction")
        stmts = frame.get("stmts")
        if not isinstance(stmts, list) or not stmts:
            raise _protocol_error("batch frame without statements")
        for entry in stmts:
            if not (
                isinstance(entry, list) and entry and isinstance(entry[0], str)
                and (len(entry) == 1 or len(entry) == 2 and isinstance(entry[1], list))
            ):
                raise _protocol_error(
                    f"batch entry {entry!r} is not [sql] or [sql, params]"
                )
        self.statements += len(stmts)
        gtxn = self.fleet.begin()
        rowcounts = []
        try:
            for entry in stmts:
                sql, params = entry[0], entry[1] if len(entry) > 1 else []
                result = self.fleet.execute(sql, params, gtxn=gtxn)
                rowcounts.append(result.rowcount)
            gtxn.commit()
        except BaseException:
            if gtxn.is_active:
                try:
                    gtxn.rollback()
                except EngineError:
                    pass
            raise
        if self.obs.enabled:
            self.obs.count("serve.txn.commit")
            self.obs.count("serve.stmt.ok", len(stmts))
        return {"ok": True, "rowcounts": rowcounts, "gtid": gtxn.gtid}

    _HANDLERS = {
        "hello": _op_hello,
        "ping": _op_ping,
        "goodbye": _op_goodbye,
        "execute": _op_execute,
        "query": _op_query,
        "begin": _op_begin,
        "commit": _op_commit,
        "rollback": _op_rollback,
        "abandon": _op_abandon,
        "batch": _op_batch,
    }


def _refusal(error: Exception) -> Dict[str, Any]:
    """The response frame that carries ``error`` -- errors cross the
    socket *only* through :func:`~repro.serve.errors.to_wire`."""
    return {"ok": False, "error": to_wire(error)}


def _protocol_error(message: str) -> EngineError:
    """A non-retryable protocol-misuse error (the client is wrong)."""
    return SqlError(f"protocol: {message}")
