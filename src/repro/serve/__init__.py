"""The networked serving tier: SQL over sockets in front of the fleet.

``repro.serve`` is the first layer of the testbed that *serves* traffic
instead of being called: an asyncio server (:mod:`repro.serve.server`)
speaks a length-prefixed JSON frame protocol (:mod:`repro.serve.wire`)
in front of a :class:`~repro.shard.fleet.ShardedDatabase`, errors cross
the wire with their ``retryable`` / ``retry_after_s`` semantics intact
(:mod:`repro.serve.errors`), and an NDBench-style load generator
(:mod:`repro.serve.loadgen`) drives thousands of concurrent
connections at it through the async client
(:mod:`repro.serve.client`).
"""

from repro.serve.client import AsyncSQLClient, SocketClient
from repro.serve.driver import (
    BackgroundServer,
    ServeRunResult,
    run_serve,
    run_sweep,
)
from repro.serve.errors import RemoteError, from_wire, to_wire
from repro.serve.loadgen import LoadResult, make_persona, run_load
from repro.serve.server import ServeFaultInjector, ServerConfig, SQLServer
from repro.serve.wire import (
    FrameDecoder,
    FrameError,
    MAX_FRAME_BYTES,
    encode_frame,
)

__all__ = [
    "BackgroundServer",
    "AsyncSQLClient",
    "FrameDecoder",
    "FrameError",
    "LoadResult",
    "MAX_FRAME_BYTES",
    "RemoteError",
    "ServeFaultInjector",
    "ServeRunResult",
    "ServerConfig",
    "SocketClient",
    "SQLServer",
    "encode_frame",
    "from_wire",
    "make_persona",
    "run_load",
    "run_serve",
    "run_sweep",
    "to_wire",
]
