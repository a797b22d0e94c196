"""Per-layer timing from outside: spans around the program's functions.

:class:`Tracer` replaces the public entry points of each layer (a method
on its class, a function in every ``repro`` module that imported it) by
a wrapper that records one span per call -- name, parent, transaction,
start, end -- in memory.  It is installed *before* the database, fleet
or server is built, so a bound method some constructor caches is the
wrapper too, and removed afterwards.  The program itself is not edited.

Every wrapped function is synchronous, so spans nest strictly even when
two connections share the event loop: the span open when a call starts
is its parent.  A layer's *self time* is its spans' duration minus the
duration of their direct children (:func:`self_times`).  Time inside no
span at all -- the replayer's own loop, and on the socket tiers asyncio
and the kernel's loopback -- is the residual the caller computes from
the wall clock.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: ``Tracer.txn`` outside the timed section
SETUP, RECOVERY = -1, -2

#: one span: (name id, parent span index or -1, transaction, start, end, extra)
Span = Tuple[int, int, int, float, float, Any]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus what its direct children cover."""
    out = [end - start for _n, _p, _t, start, end, _x in spans]
    for _name, parent, _txn, start, end, _extra in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nearest(spans: Sequence[Span], index: int, name_id: int) -> int:
    """Index of the closest ancestor of span ``index`` named ``name_id``
    (-1 when it has none)."""
    parent = spans[index][1]
    while parent >= 0 and spans[parent][0] != name_id:
        parent = spans[parent][1]
    return parent


class Tracer:
    """Records spans around the functions named in :func:`targets`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        #: index of the span now open (-1: none)
        self.current = -1
        #: what the replayer says is running: a transaction index, or
        #: :data:`SETUP` / :data:`RECOVERY`
        self.txn = SETUP
        #: socket tiers: per connection, the transaction of each request
        #: frame in flight, so the server's spans get the right one
        self._frame_txn: Dict[str, deque] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable[[tuple], None]] = None,
        measure: Optional[Callable[[tuple, Any], Any]] = None,
    ) -> Callable:
        name_id = self._name_id(name)
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = tracer.current
            index = len(spans)
            spans.append(None)
            tracer.current = index
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    extra = measure(args, result)
                return result
            finally:
                spans[index] = (name_id, parent, tracer.txn, start, clock(), extra)
                tracer.current = parent

        traced.__wrapped__ = fn
        return traced

    def _patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, **hooks))

    def _patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Replace ``module.attr`` wherever a ``repro`` module bound it
        (``from x import f`` copies the reference)."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, hooks in targets(self):
            if isinstance(owner, type):
                self._patch_method(owner, attr, name, **hooks)
            else:
                self._patch_function(owner, attr, name, **hooks)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- socket tiers: which transaction a server-side span belongs to -------

    def _frame_sent(self, args: tuple) -> None:
        client, frame = args[0], args[1]
        if frame.get("op") != "hello":  # the session has no name yet
            self._frame_txn.setdefault(client.client_name, deque()).append(self.txn)

    def _frame_served(self, args: tuple) -> None:
        queue = self._frame_txn.get(args[1].client_name)
        if queue:
            self.txn = queue.popleft()

    # -- output --------------------------------------------------------------

    def write(self, path, max_txn: int) -> None:
        """Write the spans up to transaction ``max_txn`` as JSON.

        The cut is a prefix of the span list, so every parent index a
        written span names is written too.
        """
        spans = self.spans
        stop = next(
            (i for i, span in enumerate(spans) if span and span[2] >= max_txn),
            len(spans),
        )
        origin = spans[0][3] if stop else 0.0
        rows = [
            [n, p, t, round((s - origin) * 1e6, 3), round((e - s) * 1e6, 3), x]
            for n, p, t, s, e, x in (span for span in spans[:stop] if span)
        ]
        with open(path, "w") as handle:
            json.dump({
                "columns": ["name", "parent", "txn", "start_us", "dur_us", "extra"],
                "names": self.names,
                "txn_codes": {"setup": SETUP, "recovery": RECOVERY},
                "spans": rows,
            }, handle, separators=(",", ":"))


def targets(tracer: Tracer) -> List[Tuple[Any, str, str, dict]]:
    """``(owner, attribute, span name, hooks)`` for every wrapped function.

    Mostly the public entry points of each layer.  Three private ones
    are layer boundaries with no public twin: ``WriteAheadLog.
    _count_fsync`` (where a real device would flush),
    ``SQLServer._execute_frame`` (one request, admission already paid)
    and the socket client's ``_unwrap``/``_result_set`` (its receive
    half, which is otherwise inside an ``await``).
    """
    from repro.core.client import EngineClient, FleetClient
    from repro.engine import compiler, sql
    from repro.engine.database import Database
    from repro.engine.executor import Executor
    from repro.engine.locks import LockManager, LockOutcome
    from repro.engine.txn import Transaction
    from repro.engine.wal import WriteAheadLog
    from repro.qos.admission import AdmissionController
    from repro.serve import client as serve_client
    from repro.serve import wire
    from repro.serve.server import SQLServer
    from repro.shard.coordinator import TxnCoordinator
    from repro.shard.fleet import ShardedDatabase
    from repro.shard.router import ShardRouter

    def plain(owner, prefix: str, *attrs: str):
        return [(owner, attr, f"{prefix}.{attr.lstrip('_')}", {}) for attr in attrs]

    return [
        *plain(EngineClient, "client", "execute", "query", "begin", "commit"),
        *plain(FleetClient, "client", "execute", "query", "begin", "commit"),
        *plain(sql, "sql", "parse"),
        *plain(compiler, "compiler", "compile_statement"),
        *plain(Database, "database", "prepare", "execute", "query", "begin",
               "vacuum", "crash", "recover"),
        *plain(Transaction, "txn", "commit"),
        *plain(Executor, "executor", "execute"),
        (LockManager, "acquire", "locks.acquire",
         {"measure": lambda args, outcome: outcome is LockOutcome.GRANTED}),
        *plain(LockManager, "locks", "release_all"),
        *plain(WriteAheadLog, "wal", "append"),
        (WriteAheadLog, "_count_fsync", "wal.fsync", {}),
        (ShardRouter, "route_prepared", "router.route_prepared",
         {"measure": lambda args, shard: shard is not None}),
        *plain(ShardedDatabase, "fleet", "execute", "query", "begin",
               "crash", "recover"),
        *plain(TxnCoordinator, "coordinator", "commit"),
        (wire, "encode_frame", "wire.encode_frame",
         {"measure": lambda args, data: len(data)}),
        *plain(wire, "wire", "decode_body"),
        (serve_client.AsyncSQLClient, "send_nowait", "serveclient.send_nowait",
         {"before": tracer._frame_sent}),
        *plain(serve_client, "serveclient", "_unwrap", "_result_set"),
        (SQLServer, "_execute_frame", "server.execute_frame",
         {"before": tracer._frame_served,
          "measure": lambda args, response: args[2].get("op")}),
        *plain(AdmissionController, "admission", "enqueue", "release"),
        # how long the ticket waited, on the server's own clock
        (AdmissionController, "next_ready", "admission.next_ready",
         {"measure": lambda args, ticket: (
             None if ticket is None else args[1] - ticket.enqueued_at_s)}),
    ]
