"""Crash one shard at every append of a cross-shard payment, then lose
every record no flush covered: each cell must recover all-or-nothing,
and every acknowledged commit must survive.

The in-memory log keeps every record a crash point let through, so on
its own it cannot tell a safe flush schedule from an unsafe one.  Here
the crash drops the un-flushed tail, as a real log does: the
``flushed`` fixture (conftest.py) records each log's ``last_lsn`` at
every fsync point, and before the fleet crashes every record above
max(last flush, checkpoint) is discarded.  A schedule that acknowledges a commit while
one of its promises (a PREPARE, a DECISION, a branch's data) still sits
in a tail fails here by cell.

A peer's DECISION and COMMIT are not flushed: until they are durable the
peer recovers in doubt, and the last agent's DECISION decides it.  So
the second half of the cells takes a checkpoint, truncating or not, on
one shard after the payment and before the tails go -- right away, or
after a local commit of that shard has flushed its own log past the
payment: a checkpoint that dropped (or stopped recovery from seeing) a
DECISION a peer still needs, or forgot it on the wrong shard's flush,
fails there.
"""

import pytest

from repro.engine.errors import ShardUnavailableError, SimulatedCrash
from repro.engine.wal import CRASH_MODES

from repro.ha import HAFleet

from tests.shard.test_2pc import load_keys, value_of
from tests.shard.test_router import kv_fleet, kv_schema

AMOUNT = 10


def pay(fleet, keys):
    """Shard 0's key pays ``AMOUNT`` to every other shard's key."""
    with fleet.begin() as gtxn:
        fleet.execute(
            "UPDATE kv SET V = V - ? WHERE K = ?",
            [AMOUNT * (len(keys) - 1), keys[0]], gtxn=gtxn,
        )
        for key in keys[1:]:
            fleet.execute("UPDATE kv SET V = V + ? WHERE K = ?", [AMOUNT, key], gtxn=gtxn)


def drop_unflushed_tails(fleet, flushed, shards=None):
    """Lose every record no flush or checkpoint covered, on ``shards``
    (all of the fleet's by default)."""
    for shard in fleet.shards if shards is None else shards:
        durable = max(flushed.get(shard.wal, 0), shard.checkpoint_lsn)
        shard.wal.discard_from(durable + 1)


def run_cell(flushed, n_shards, victim=None, offset=0, mode="", checkpoint=None):
    """One payment, shard ``victim`` armed to crash (``mode``) at its
    ``offset``-th append of it; then, if ``checkpoint`` names ``(shard,
    truncate, local_first)`` and that shard is up and quiescent, it
    checkpoints, after a local commit of its own if ``local_first``; the
    whole fleet is killed afterwards.  Returns the violations found."""
    fleet = kv_fleet(n_shards)
    by_shard = load_keys(fleet, per_shard=2)
    keys = [keys[0] for keys in by_shard]
    if victim is not None:
        wal = fleet.shards[victim].wal
        wal.arm_crash(wal.last_lsn + offset, mode)
    try:
        pay(fleet, keys)
        acked = True
    except (SimulatedCrash, ShardUnavailableError):
        acked = False
    fired = victim is None or fleet.shards[victim].wal.is_dead
    if checkpoint is not None:
        shard_id, truncate, local_first = checkpoint
        shard = fleet.shards[shard_id]
        if not shard.wal.is_dead and not shard.txns.active:
            if local_first:
                fleet.execute("UPDATE kv SET V = 1 WHERE K = ?", [by_shard[shard_id][1]])
            shard.checkpoint(truncate_wal=truncate)
    drop_unflushed_tails(fleet, flushed)
    fleet.crash()
    fleet.recover()
    values = [value_of(fleet, key) for key in keys]
    paid = [-AMOUNT * (n_shards - 1)] + [AMOUNT] * (n_shards - 1)
    cell = f"{n_shards} shards, shard {victim} {mode} append {offset}"
    if checkpoint is not None:
        cell += f", checkpoint {checkpoint}"
    violations = []
    if not fired:
        violations.append(f"{cell}: the crash point never fired")
    if values != paid and (acked or values != [0] * n_shards):
        outcome = "acknowledged" if acked else "failed"
        violations.append(f"{cell}: {outcome} payment recovered as {values}")
    return violations


def appends_of_a_payment(n_shards):
    """How many records one payment appends to each shard's log."""
    fleet = kv_fleet(n_shards)
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    tails = [shard.wal.last_lsn for shard in fleet.shards]
    pay(fleet, keys)
    return [shard.wal.last_lsn - tail for shard, tail in zip(fleet.shards, tails)]


def run_cells(flushed, n_shards, checkpoint=None):
    """Every cell of one payment: no crash point (killed after the ack),
    then each shard crashed at each of its appends in each mode."""
    violations = run_cell(flushed, n_shards, checkpoint=checkpoint)
    cells = 1
    for victim, count in enumerate(appends_of_a_payment(n_shards)):
        for offset in range(1, count + 1):
            for mode in CRASH_MODES:
                violations += run_cell(
                    flushed, n_shards, victim, offset, mode, checkpoint
                )
                cells += 1
    return violations, cells


@pytest.mark.parametrize("n_shards", [2, 3])
def test_every_crash_point_recovers_all_or_nothing(flushed, n_shards):
    violations, cells = run_cells(flushed, n_shards)
    assert violations == [], f"{len(violations)} of {cells} cells"
    # the last agent writes BEGIN, UPDATE, DECISION, COMMIT; every other
    # writer a PREPARE more
    assert appends_of_a_payment(n_shards) == [4] + [5] * (n_shards - 1)


@pytest.mark.parametrize("local_first", [False, True], ids=["", "local-first"])
@pytest.mark.parametrize("truncate", [False, True], ids=["checkpoint", "truncating"])
@pytest.mark.parametrize("n_shards", [2, 3])
def test_a_checkpoint_on_any_shard_keeps_what_a_peer_needs(
    flushed, n_shards, truncate, local_first
):
    violations, cells = [], 0
    for shard_id in range(n_shards):
        found, count = run_cells(flushed, n_shards, (shard_id, truncate, local_first))
        violations += found
        cells += count
    assert violations == [], f"{len(violations)} of {cells} cells"


def test_a_promoted_standby_keeps_what_a_peer_needs(flushed):
    """A standby's base carries its primary's unforgotten DECISIONs, as a
    CHECKPOINT record would.  Shard 0's standby is re-seeded right after
    a payment and promoted; then shard 1 restarts alone on its own log,
    its unflushed DECISION and COMMIT lost.  It recovers in doubt, and
    only the promoted standby can tell it the payment committed."""
    fleet = HAFleet(2)
    fleet.create_table(kv_schema())
    keys = [keys[0] for keys in load_keys(fleet, per_shard=1)]
    fleet.start_replication()
    fleet.kill_standby(1)  # so shard 1 restarts on its own log
    pay(fleet, keys)
    fleet.resync(0)
    lease_s = fleet.lease_config.lease_s
    fleet.kill_primary(0)
    fleet.advance(2 * lease_s)
    assert fleet.groups[0].failovers == 1
    fleet.kill_primary(1)
    drop_unflushed_tails(fleet, flushed, [fleet.shards[1]])
    fleet.advance(2 * lease_s)
    assert fleet.groups[1].restarts == 1
    fleet.advance(2 * lease_s)  # past the restart's replay
    assert [value_of(fleet, key) for key in keys] == [-AMOUNT, AMOUNT]
