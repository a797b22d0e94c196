"""The wire error taxonomy: one mapping, exact round-trips.

The regression that matters most (the ISSUE's acceptance criterion):
``ShardUnavailableError`` and ``OverloadError`` must cross a real
socket and come back as the *same class* with ``retryable`` intact --
that is what keeps the client resilience stack honest over the wire.
"""

import pytest

from repro.engine.errors import (
    DeadlineExceededError,
    EngineError,
    NodeUnavailableError,
    OverloadError,
    ShardUnavailableError,
    SimulatedCrash,
    SqlError,
)
from repro.serve.driver import BackgroundServer
from repro.serve.client import SocketClient
from repro.serve.errors import (
    WIRE_CODES,
    RemoteError,
    from_wire,
    to_wire,
    wire_code,
)


class TestTaxonomy:
    def test_every_registered_class_round_trips(self):
        for cls, code in WIRE_CODES.items():
            if cls is ShardUnavailableError:
                error = cls("boom", shard_id=3)
            else:
                error = cls("boom")
            payload = to_wire(error)
            assert payload["code"] == code
            rebuilt = from_wire(payload)
            assert type(rebuilt) is cls
            assert rebuilt.retryable == error.retryable

    def test_most_derived_class_wins(self):
        # ShardUnavailableError subclasses NodeUnavailableError; the
        # wire must say "shard_unavailable", not the base code
        assert wire_code(ShardUnavailableError("x")) == "shard_unavailable"
        assert wire_code(NodeUnavailableError("x")) == "node_unavailable"

    def test_overload_keeps_retry_after(self):
        rebuilt = from_wire(to_wire(OverloadError("busy", retry_after_s=0.25)))
        assert isinstance(rebuilt, OverloadError)
        assert rebuilt.retryable is True
        assert rebuilt.retry_after_s == 0.25

    def test_shard_unavailable_keeps_shard_id_and_lineage(self):
        rebuilt = from_wire(to_wire(ShardUnavailableError("down", shard_id=1)))
        assert isinstance(rebuilt, ShardUnavailableError)
        assert isinstance(rebuilt, NodeUnavailableError)  # breakers count it
        assert rebuilt.retryable is True
        assert rebuilt.shard_id == 1

    def test_unknown_code_degrades_to_remote_error(self):
        rebuilt = from_wire(
            {"code": "from_the_future", "message": "??", "retryable": True}
        )
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.retryable is True  # wire flag, not class attribute
        assert from_wire({"code": "from_the_future"}).retryable is False

    def test_an_older_peers_deadlock_frame_stays_retryable(self):
        # no lock manager here raises a deadlock any more, so the code
        # has no class; a peer that still sends it is decoded by its flag
        rebuilt = from_wire({"code": "deadlock", "message": "victim", "retryable": True})
        assert isinstance(rebuilt, RemoteError)
        assert rebuilt.code == "deadlock"
        assert rebuilt.retryable is True

    def test_plain_engine_error_keeps_wire_retryable(self):
        error = EngineError("odd")
        error.retryable = True
        rebuilt = from_wire(to_wire(error))
        assert type(rebuilt) is EngineError
        assert rebuilt.retryable is True

    def test_non_engine_exception_is_internal(self):
        payload = to_wire(RuntimeError("bug"))
        assert payload["code"] == "internal"
        assert payload["retryable"] is False


class _FailingFleet:
    """A fleet whose every statement raises the configured error."""

    n_shards = 2

    def __init__(self, error):
        self.error = error

    def execute(self, sql, params, gtxn=None):
        raise self.error

    def query(self, sql, params):
        raise self.error

    def begin(self, isolation=None, deadline=None):
        raise self.error


def _raise_over_socket(error):
    """Send one statement through a real socket; return what came back."""
    with BackgroundServer(_FailingFleet(error)) as bg:
        host, port = bg.server.address
        client = SocketClient(host, port, client_name="taxonomy-test")
        client.connect()
        try:
            with pytest.raises(EngineError) as exc_info:
                client.execute("UPDATE CUSTOMER SET C_CREDIT = 1", [])
        finally:
            client.close()
    return exc_info.value


class TestSocketRoundTrip:
    """Retryable semantics must be identical in-process and over TCP."""

    def test_shard_unavailable_is_retryable_over_the_socket(self):
        caught = _raise_over_socket(
            ShardUnavailableError("shard 1 lost its primary", shard_id=1)
        )
        assert type(caught) is ShardUnavailableError
        assert caught.retryable is True
        assert caught.shard_id == 1
        assert isinstance(caught, NodeUnavailableError)

    def test_overload_is_retryable_over_the_socket(self):
        caught = _raise_over_socket(OverloadError("shed", retry_after_s=0.5))
        assert type(caught) is OverloadError
        assert caught.retryable is True
        assert caught.retry_after_s == 0.5

    def test_simulated_crash_is_retryable_over_the_socket(self):
        caught = _raise_over_socket(SimulatedCrash("crash point hit"))
        assert type(caught) is SimulatedCrash
        assert caught.retryable is True

    def test_non_retryable_stays_non_retryable(self):
        caught = _raise_over_socket(SqlError("no such column"))
        assert type(caught) is SqlError
        assert caught.retryable is False
        caught = _raise_over_socket(DeadlineExceededError("too late"))
        assert type(caught) is DeadlineExceededError
        assert caught.retryable is False
