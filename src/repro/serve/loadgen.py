"""NDBench-style sustained load generation against the serving tier.

The generator opens ``connections`` concurrent asyncio connections to a
:class:`~repro.serve.server.SQLServer` and drives each with a pluggable
**persona** -- a client behaviour that turns per-connection randomness
into request frames (payment transactions, point reads, or a mix).
Three design points carry over from the rest of the testbed:

* **Determinism** -- every connection draws from its own derived RNG
  stream (``serve.conn{i}``), so the sequence of statements each
  connection issues is pinned by the master seed regardless of asyncio
  scheduling; personas use the fixed-epoch timestamp trick of the shard
  workload rather than the wall clock.
* **Open-loop arrivals** -- with an :class:`~repro.perf.openloop.
  ArrivalSpec`, each connection *pipelines*: a writer half sends frames
  at their scheduled offsets whether or not earlier responses are back,
  and a reader half matches responses FIFO (the server answers in
  order).  Latency is measured from the **scheduled** send time, so a
  stalled server is charged its backlog -- no coordinated omission.
* **Fault tolerance as measurement** -- a dropped connection
  (``CONN_DROP`` chaos, or the server shedding at the connection cap)
  is counted, the client reconnects with the server's ``retry_after_s``
  hint, and the remaining work continues; errors ride the wire
  taxonomy, so retryable aborts and sheds are classified exactly as
  in-process runs classify them.

``goodput`` follows the overload evaluator's definition: a commit
counts only if its latency met ``deadline_s`` -- work the client had
already given up on is throughput, not goodput.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence

from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    OverloadError,
)
from repro.obs.metrics import Histogram
from repro.perf.openloop import ArrivalSpec, arrival_offsets
from repro.serve.client import AsyncSQLClient
from repro.serve.wire import FrameError
from repro.shard.workload import UPDATE_CUSTOMER, UPDATE_ORDER
from repro.sim.rng import RngRegistry

__all__ = [
    "LoadResult",
    "MixedPersona",
    "PaymentPersona",
    "Persona",
    "ReaderPersona",
    "make_persona",
    "run_load",
]

READ_CUSTOMER = "SELECT C_CREDIT FROM CUSTOMER WHERE C_ID = ?"

#: fixed epoch base keeps generated timestamps reproducible
_EPOCH = 1_700_000_000.0
#: connection attempts after the first before a connection counts rejected
CONNECT_RETRIES = 5


class Persona:
    """One client behaviour: turns RNG draws into request frames.

    ``keys`` holds the key space (``orders`` and ``customers`` lists);
    subclasses implement :meth:`frame`.  Personas are stateless between
    calls except for the reproducible timestamp counter.
    """

    name = "persona"

    def __init__(self, keys: Dict[str, Sequence[int]]):
        if not keys.get("orders") or not keys.get("customers"):
            raise ValueError("persona needs non-empty order and customer keys")
        self.orders = list(keys["orders"])
        self.customers = list(keys["customers"])
        self._now = _EPOCH

    def frame(self, rng) -> Dict[str, Any]:
        raise NotImplementedError

    def _payment(self, rng) -> Dict[str, Any]:
        order_id = rng.choice(self.orders)
        customer_id = rng.choice(self.customers)
        amount = round(rng.uniform(1.0, 100.0), 2)
        self._now += 1.0
        return {
            "op": "batch",
            "stmts": [
                [UPDATE_ORDER, [self._now, order_id]],
                [UPDATE_CUSTOMER, [amount, customer_id]],
            ],
        }

    def _read(self, rng) -> Dict[str, Any]:
        return {
            "op": "query",
            "sql": READ_CUSTOMER,
            "params": [rng.choice(self.customers)],
        }


class PaymentPersona(Persona):
    """Write-heavy: one payment transaction per request (a ``batch``)."""

    name = "payment"

    def frame(self, rng) -> Dict[str, Any]:
        return self._payment(rng)


class ReaderPersona(Persona):
    """Read-only: point lookups on customer accounts."""

    name = "reader"

    def frame(self, rng) -> Dict[str, Any]:
        return self._read(rng)


class MixedPersona(Persona):
    """Half point reads, half payments."""

    name = "mixed"

    def frame(self, rng) -> Dict[str, Any]:
        if rng.random() < 0.5:
            return self._read(rng)
        return self._payment(rng)


#: persona name -> class; the serve evaluator's ``persona`` choices
PERSONAS = {
    "payment": PaymentPersona,
    "reader": ReaderPersona,
    "mixed": MixedPersona,
}


def make_persona(name: str, keys: Dict[str, Sequence[int]]) -> Persona:
    """Build a registered persona by name."""
    try:
        cls = PERSONAS[name]
    except KeyError:
        raise ValueError(
            f"unknown persona {name!r}; one of {sorted(PERSONAS)}"
        ) from None
    return cls(keys)


@dataclass
class LoadResult:
    """Aggregate outcome of one sustained-load drive."""

    connections: int
    offered: int = 0
    committed: int = 0
    aborted: int = 0           # retryable aborts (conflicts, crashes)
    shed: int = 0              # OverloadError responses (qos at work)
    expired: int = 0           # server-side queue-deadline expiries
    errors: int = 0            # non-retryable failures
    reconnects: int = 0        # connections re-established after a drop
    lost: int = 0              # requests whose connection died pre-response
    rejected: int = 0          # connections never admitted at all
    deadline_misses: int = 0   # commits that landed past deadline_s
    wall_s: float = 0.0
    #: commit latencies in seconds
    histogram: Histogram = field(
        default_factory=lambda: Histogram("serve.latency_s")
    )

    @property
    def tps(self) -> float:
        return self.committed / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def goodput_tps(self) -> float:
        good = self.committed - self.deadline_misses
        return good / self.wall_s if self.wall_s > 0 else 0.0


class _Conn:
    """One load connection: issue loop + classification + reconnects."""

    def __init__(
        self,
        index: int,
        host: str,
        port: int,
        persona: Persona,
        rng,
        result: LoadResult,
        deadline_s: Optional[float],
    ):
        self.index = index
        self.client = AsyncSQLClient(
            host, port, client_name=f"load.{index}"
        )
        self.persona = persona
        self.rng = rng
        self.result = result
        self.deadline_s = deadline_s

    async def connect(self) -> bool:
        """Connect with overload-aware retries; False when never admitted."""
        backoff = 0.01
        for _ in range(CONNECT_RETRIES + 1):
            try:
                await self.client.connect()
                return True
            except OverloadError as error:
                await asyncio.sleep(
                    max(backoff, getattr(error, "retry_after_s", 0.0))
                )
                backoff = min(0.2, backoff * 2)
            except (ConnectionError, OSError):
                await asyncio.sleep(backoff)
                backoff = min(0.2, backoff * 2)
        self.result.rejected += 1
        return False

    def _classify(self, error: EngineError) -> None:
        if isinstance(error, OverloadError):
            self.result.shed += 1
        elif isinstance(error, DeadlineExceededError):
            self.result.expired += 1
        elif getattr(error, "retryable", False):
            self.result.aborted += 1
        else:
            self.result.errors += 1

    def _record(self, latency_s: float) -> None:
        self.result.histogram.observe(latency_s)
        self.result.committed += 1
        if self.deadline_s is not None and latency_s > self.deadline_s:
            self.result.deadline_misses += 1

    async def _reconnect(self) -> bool:
        self.client.abort()
        if await self.connect():
            self.result.reconnects += 1
            return True
        return False

    async def run_closed(self, txns: int) -> None:
        """Closed loop: next request only after the previous response."""
        if not await self.connect():
            return
        sent = 0
        while sent < txns:
            frame = self.persona.frame(self.rng)
            self.result.offered += 1
            sent += 1
            begin = time.perf_counter()
            try:
                await self.client.request(frame)
            except EngineError as error:
                self._classify(error)
                continue
            except (ConnectionError, OSError, FrameError):
                self.result.lost += 1
                if not await self._reconnect():
                    return
                continue
            self._record(time.perf_counter() - begin)
        await self.client.close()

    async def run_open(self, offsets: Sequence[float], t0: float) -> None:
        """Open loop: pipelined sends at scheduled offsets, FIFO reads.

        Latency is response arrival minus the *scheduled* send -- the
        CO-free convention -- so server backlog shows up in the tail
        even though the writer never waits for responses.
        """
        if not await self.connect():
            return
        inflight: "asyncio.Queue[Optional[float]]" = asyncio.Queue()

        async def writer() -> None:
            for offset in offsets:
                delay = (t0 + offset) - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                frame = self.persona.frame(self.rng)
                self.result.offered += 1
                try:
                    self.client.send_nowait(frame)
                    await self.client.drain()
                except (EngineError, ConnectionError, OSError):
                    self.result.lost += 1
                    await inflight.put(None)  # reader: skip one response
                    continue
                await inflight.put(t0 + offset)

        async def reader() -> None:
            done = 0
            while done < len(offsets):
                scheduled = await inflight.get()
                done += 1
                if scheduled is None:
                    continue
                try:
                    await self.client.recv_response()
                except EngineError as error:
                    self._classify(error)
                    continue
                except (ConnectionError, OSError, FrameError):
                    # the pipeline died: everything still queued is lost
                    self.result.lost += 1 + inflight.qsize()
                    return
                self._record(time.perf_counter() - scheduled)

        await asyncio.gather(writer(), reader())
        await self.client.close()


async def run_load(
    host: str,
    port: int,
    connections: int,
    txns_per_conn: int,
    keys: Dict[str, Sequence[int]],
    persona: str = "payment",
    seed: int = 42,
    arrival: Optional[ArrivalSpec] = None,
    rate_tps: Optional[float] = None,
    deadline_s: Optional[float] = None,
) -> LoadResult:
    """Drive the server at ``host:port`` and aggregate the outcome.

    With ``arrival=None`` (or a closed spec) each connection runs a
    closed loop; an open spec pipelines per-connection schedules whose
    rates sum to ``rate_tps`` across all connections.
    """
    if connections < 1 or txns_per_conn < 1:
        raise ValueError("need >= 1 connection and >= 1 txn per connection")
    result = LoadResult(connections=connections)
    registry = RngRegistry(seed)
    open_loop = arrival is not None and arrival.is_open
    if open_loop and not rate_tps:
        raise ValueError("open-loop load needs rate_tps")
    tasks = []
    t0 = time.perf_counter() + 0.05  # common epoch for scheduled sends
    for index in range(connections):
        rng = registry.stream(f"serve.conn{index}")
        conn = _Conn(
            index, host, port,
            make_persona(persona, keys), rng, result,
            deadline_s,
        )
        if open_loop:
            offsets = arrival_offsets(
                arrival, rate_tps / connections, txns_per_conn, rng
            )
            tasks.append(conn.run_open(offsets, t0))
        else:
            tasks.append(conn.run_closed(txns_per_conn))
    begin = time.perf_counter()
    await asyncio.gather(*tasks)
    result.wall_s = time.perf_counter() - begin
    return result
