"""Crash one shard at every append of a cross-shard payment, then lose
every record no flush covered: each cell must recover all-or-nothing,
and every acknowledged commit must survive.

The in-memory log keeps every record a crash point let through, so on
its own it cannot tell a safe flush schedule from an unsafe one.  Here
the crash drops the un-flushed tail, as a real log does: the
``flushed`` fixture records each log's ``last_lsn`` at every fsync
point, and before the fleet crashes every record above max(last flush,
checkpoint) is discarded.  A schedule that acknowledges a commit while
one of its promises (a PREPARE, a DECISION, a branch's data) still sits
in a tail fails here by cell.
"""

import pytest

from repro.engine.errors import ShardUnavailableError, SimulatedCrash
from repro.engine.wal import CRASH_MODES, WriteAheadLog

from tests.shard.test_2pc import load_keys, value_of
from tests.shard.test_router import kv_fleet

AMOUNT = 10


@pytest.fixture
def flushed(monkeypatch):
    """``{wal: last_lsn at its latest fsync point}`` for every log."""
    marks = {}
    count_fsync = WriteAheadLog._count_fsync

    def count_and_mark(wal):
        marks[wal] = wal.last_lsn
        count_fsync(wal)

    monkeypatch.setattr(WriteAheadLog, "_count_fsync", count_and_mark)
    return marks


def pay(fleet, keys):
    """Shard 0's key pays ``AMOUNT`` to every other shard's key."""
    with fleet.begin() as gtxn:
        fleet.execute(
            "UPDATE kv SET V = V - ? WHERE K = ?",
            [AMOUNT * (len(keys) - 1), keys[0]], gtxn=gtxn,
        )
        for key in keys[1:]:
            fleet.execute("UPDATE kv SET V = V + ? WHERE K = ?", [AMOUNT, key], gtxn=gtxn)


def drop_unflushed_tails(fleet, flushed):
    for shard in fleet.shards:
        durable = max(flushed.get(shard.wal, 0), shard.checkpoint_lsn)
        shard.wal.discard_from(durable + 1)


def run_cell(flushed, n_shards, victim=None, offset=0, mode=""):
    """One payment, shard ``victim`` armed to crash (``mode``) at its
    ``offset``-th append of it; the whole fleet is killed afterwards.
    Returns the violations found."""
    fleet = kv_fleet(n_shards)
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    if victim is not None:
        wal = fleet.shards[victim].wal
        wal.arm_crash(wal.last_lsn + offset, mode)
    try:
        pay(fleet, keys)
        acked = True
    except (SimulatedCrash, ShardUnavailableError):
        acked = False
    fired = victim is None or fleet.shards[victim].wal.is_dead
    drop_unflushed_tails(fleet, flushed)
    fleet.crash()
    fleet.recover()
    values = [value_of(fleet, key) for key in keys]
    paid = [-AMOUNT * (n_shards - 1)] + [AMOUNT] * (n_shards - 1)
    cell = f"{n_shards} shards, shard {victim} {mode} append {offset}"
    violations = []
    if not fired:
        violations.append(f"{cell}: the crash point never fired")
    if values != paid and (acked or values != [0] * n_shards):
        outcome = "acknowledged" if acked else "failed"
        violations.append(f"{cell}: {outcome} payment recovered as {values}")
    return violations


@pytest.mark.parametrize("n_shards", [2, 3])
def test_every_crash_point_recovers_all_or_nothing(flushed, n_shards):
    fleet = kv_fleet(n_shards)
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    tails = [shard.wal.last_lsn for shard in fleet.shards]
    pay(fleet, keys)
    appends = [shard.wal.last_lsn - tail for shard, tail in zip(fleet.shards, tails)]
    violations = run_cell(flushed, n_shards)  # no crash point: killed after the ack
    cells = 1
    for victim, count in enumerate(appends):
        for offset in range(1, count + 1):
            for mode in CRASH_MODES:
                violations += run_cell(flushed, n_shards, victim, offset, mode)
                cells += 1
    assert violations == [], f"{len(violations)} of {cells} cells"
    # the last agent writes BEGIN, UPDATE, DECISION, COMMIT; every other
    # writer a PREPARE more
    assert appends == [4] + [5] * (n_shards - 1)
