"""Replayers: drive a generated script through one of the program's clients.

Three ways to send the same transactions:

* :func:`replay_sync` -- one blocking :class:`repro.core.client.Client`
  (closed loop, one transaction in flight);
* :func:`replay_async` -- one awaiting ``AsyncSQLClient`` per lane
  (closed loop, one transaction in flight per connection);
* :func:`replay_open` -- one pipelining ``AsyncSQLClient`` per lane on a
  fixed arrival schedule (open loop): each transaction is sent when it
  is *due* and timed from that moment, so a stall is charged to every
  transaction it delays.

Each returns per-transaction latencies and one result per statement, in
script order, for :class:`bench.oracle.Oracle` to check.  A transaction
that fails is rolled back, counted in the :class:`Tally` under exactly
one heading, and leaves ``None`` in place of its results.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, List, Sequence, Tuple

from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    LockTimeoutError,
    OverloadError,
)
from repro.engine.executor import ResultSet
from repro.serve.wire import FrameError

from bench.oracle import statement_count
from bench.script import BEGIN, EXECUTE, QUERY, Txn

_LOST = (ConnectionError, OSError, FrameError)


class Tally:
    """Where every attempted transaction ended up."""

    FIELDS = ("committed", "aborted", "errors", "shed", "expired", "lost")

    def __init__(self) -> None:
        self.attempted = 0
        self.committed = 0
        self.aborted = 0
        self.errors = 0
        self.shed = 0
        self.expired = 0
        self.lost = 0
        #: aborts caused by a lock another transaction held (no-wait policy)
        self.lock_waits = 0

    @property
    def failed(self) -> int:
        return self.attempted - self.committed

    @property
    def balanced(self) -> bool:
        return self.attempted == sum(getattr(self, name) for name in self.FIELDS)

    def fail(self, error: BaseException) -> None:
        if isinstance(error, OverloadError):
            self.shed += 1
        elif isinstance(error, DeadlineExceededError):
            self.expired += 1
        elif isinstance(error, _LOST):
            self.lost += 1
        elif getattr(error, "retryable", False):
            self.aborted += 1
            if isinstance(error, LockTimeoutError):
                self.lock_waits += 1
        else:
            self.errors += 1


class NoTrace:
    """Stands in for the tracer in untraced runs: takes the transaction
    index the replayers announce and ignores it."""

    txn = -1


def replay_sync(
    client, txns: Sequence[Txn], tally: Tally, mark: Any, base: int = 0
) -> Tuple[List[float], List[Any]]:
    """Replay ``txns`` through a blocking client, one after another."""
    clock = time.perf_counter
    execute, query = client.execute, client.query
    begin, commit = client.begin, client.commit
    latencies: List[float] = []
    results: List[Any] = []
    for index, txn in enumerate(txns):
        mark.txn = base + index
        done = len(results)
        start = clock()
        try:
            for verb, sql, params in txn[1]:
                if verb == QUERY:
                    results.append(query(sql, params))
                elif verb == EXECUTE:
                    results.append(execute(sql, params))
                elif verb == BEGIN:
                    begin()
                else:
                    commit()
        except EngineError as error:
            latencies.append(clock() - start)
            tally.fail(error)
            if client.in_txn:
                try:
                    client.rollback()
                except EngineError:
                    client.abandon()
            results[done:] = [None] * statement_count(txn)
        else:
            latencies.append(clock() - start)
            tally.committed += 1
    tally.attempted += len(txns)
    return latencies, results


async def _replay_lane(
    client, txns: Sequence[Txn], tally: Tally, mark: Any, base: int
) -> Tuple[List[float], List[Any]]:
    clock = time.perf_counter
    latencies: List[float] = []
    results: List[Any] = []
    for index, txn in enumerate(txns):
        mark.txn = base + index
        done = len(results)
        in_txn = False
        start = clock()
        try:
            for verb, sql, params in txn[1]:
                if verb == QUERY:
                    results.append(await client.query(sql, params))
                elif verb == EXECUTE:
                    results.append(await client.execute(sql, params))
                elif verb == BEGIN:
                    await client.begin()
                    in_txn = True
                else:
                    await client.commit()
                    in_txn = False
        except (EngineError, *_LOST) as error:
            latencies.append(clock() - start)
            tally.fail(error)
            if in_txn and client.connected:
                try:
                    await client.rollback()
                except (EngineError, *_LOST):
                    pass  # the server already rolled the transaction back
            results[done:] = [None] * statement_count(txn)
        else:
            latencies.append(clock() - start)
            tally.committed += 1
    tally.attempted += len(txns)
    return latencies, results


async def replay_async(
    clients: Sequence[Any],
    lanes: Sequence[Sequence[Txn]],
    tally: Tally,
    mark: Any,
    base: int = 0,
) -> List[Tuple[List[float], List[Any]]]:
    """Replay lane ``i`` through ``clients[i]``, all lanes at once."""
    return list(await asyncio.gather(*(
        _replay_lane(client, txns, tally, mark, base + lane * len(txns))
        for lane, (client, txns) in enumerate(zip(clients, lanes))
    )))


def _frame(verb: int, sql: Any, params: Sequence[Any]) -> dict:
    """The request frame ``AsyncSQLClient``'s own verbs would send."""
    if verb == EXECUTE:
        return {"op": "execute", "sql": sql, "params": list(params)}
    if verb == QUERY:
        return {"op": "query", "sql": sql, "params": list(params)}
    if verb == BEGIN:
        return {"op": "begin", "isolation": None}
    return {"op": "commit"}


async def _send_lane(
    client, txns: Sequence[Txn], due: Sequence[float], epoch: float,
    late: List[float], mark: Any, base: int,
) -> None:
    clock = time.perf_counter
    for index, txn in enumerate(txns):
        wait = epoch + due[index] - clock()
        if wait > 0:
            await asyncio.sleep(wait)
        mark.txn = base + index
        late.append(clock() - epoch - due[index])
        for verb, sql, params in txn[1]:
            client.send_nowait(_frame(verb, sql, params))
        await client.drain()


async def _receive_lane(
    client, txns: Sequence[Txn], due: Sequence[float], epoch: float,
    tally: Tally,
) -> Tuple[List[float], List[Any]]:
    clock = time.perf_counter
    latencies: List[float] = []
    results: List[Any] = []
    for index, txn in enumerate(txns):
        done = len(results)
        failure = None
        for verb, _sql, _params in txn[1]:
            try:
                frame = await client.recv_response()
            except EngineError as error:
                failure = failure or error
            except _LOST:
                # nothing more will arrive on this connection
                tally.lost += len(txns) - index
                rest = sum(statement_count(t) for t in txns[index:])
                results[done:] = [None] * rest
                latencies.extend([float("inf")] * (len(txns) - index))
                return latencies, results
            else:
                if verb in (EXECUTE, QUERY):
                    results.append(ResultSet(
                        tuple(frame.get("columns", ())),
                        [tuple(row) for row in frame.get("rows", ())],
                        int(frame.get("rowcount", 0)),
                    ))
        latencies.append(clock() - epoch - due[index])
        if failure is None:
            tally.committed += 1
        else:
            tally.fail(failure)
            results[done:] = [None] * statement_count(txn)
    return latencies, results


async def replay_open(
    clients: Sequence[Any],
    lanes: Sequence[Sequence[Txn]],
    dues: Sequence[Sequence[float]],
    tally: Tally,
    mark: Any,
    base: int = 0,
) -> Tuple[List[Tuple[List[float], List[Any]]], List[float]]:
    """Send lane ``i``'s transactions at ``dues[i]`` (seconds from now).

    Returns the per-lane ``(latencies, results)`` and how late each
    transaction was sent.  Latency runs from the due time.
    """
    epoch = time.perf_counter() + 0.002
    late: List[float] = []
    senders = [
        asyncio.ensure_future(_send_lane(
            client, txns, due, epoch, late, mark, base + lane * len(txns)
        ))
        for lane, (client, txns, due) in enumerate(zip(clients, lanes, dues))
    ]
    try:
        received = await asyncio.gather(*(
            _receive_lane(client, txns, due, epoch, tally)
            for client, txns, due in zip(clients, lanes, dues)
        ))
        await asyncio.gather(*senders)
    finally:
        for sender in senders:
            sender.cancel()
    tally.attempted += sum(len(txns) for txns in lanes)
    return list(received), late
