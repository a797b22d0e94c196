"""The PAIRS workload: cross-shard transfers built to be checkable.

Each *pair* is two rows placed on **different** shards.  A transfer
opens a SERIALIZABLE global transaction and writes the same, strictly
increasing version into both rows -- so it always runs full cross-shard
2PC, and any interleaving or crash that breaks atomicity shows up as
two rows of one pair disagreeing.  A read opens a SERIALIZABLE global
transaction, reads both rows, and rolls back (releasing its S locks
without paying a 2PC commit); under strict 2PL it can never observe a
fractured pair unless the protocol is broken -- which is exactly what
the :class:`~repro.ha.history.HistoryChecker` looks for.

Outcome classification is the part that matters for the checker's
soundness:

* an abort *before* ``commit()`` was called, or a retryable error out
  of the commit path that the coordinator turned into a clean abort
  (``ShardUnavailableError`` during prepare: presumed abort holds), is
  recorded as ``fail`` -- the transfer definitely did not happen;
* a :class:`~repro.engine.errors.SimulatedCrash` escaping a commit that
  had started is recorded as ``info`` -- the decision may or may not be
  durable somewhere, and recovery decides;
* everything acked is ``ok``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

from repro.core.client import FleetClient, quiet_rollback
from repro.engine.errors import EngineError, ShardUnavailableError, SimulatedCrash
from repro.engine.txn import IsolationLevel
from repro.engine.types import Column, ColumnType, Schema
from repro.ha.history import History
from repro.shard.fleet import ShardedDatabase
from repro.shard.router import stable_hash
from repro.sim.rng import RngRegistry

UPDATE_STAMP = "UPDATE PAIRS SET P_STAMP = ? WHERE P_ID = ?"
SELECT_STAMP = "SELECT P_STAMP FROM PAIRS WHERE P_ID = ?"
#: logical workers the operations rotate through (the history's client ids)
N_WORKERS = 4


def pairs_schema() -> Schema:
    return Schema(
        table="PAIRS",
        columns=(
            Column("P_ID", ColumnType.INT, nullable=False),
            Column("P_STAMP", ColumnType.INT, nullable=False, default=0),
        ),
        primary_key="P_ID",
    )


def place_pairs(n_shards: int, n_pairs: int) -> List[Tuple[int, int]]:
    """Pick row ids so the two rows of pair ``k`` land on shards
    ``k % n`` and ``(k + 1) % n`` -- every transfer is cross-shard."""
    if n_shards < 2:
        raise ValueError("the PAIRS workload needs at least two shards")
    by_shard: Dict[int, List[int]] = {shard: [] for shard in range(n_shards)}
    candidate = 1
    while any(len(ids) < 2 * n_pairs for ids in by_shard.values()):
        by_shard[stable_hash(candidate) % n_shards].append(candidate)
        candidate += 1
    return [
        (by_shard[k % n_shards][k // n_shards],
         by_shard[(k + 1) % n_shards][k // n_shards + n_pairs])
        for k in range(n_pairs)
    ]


def build_pairs_fleet(
    n_shards: int = 2,
    n_pairs: int = 4,
    fleet_cls: Type[ShardedDatabase] = ShardedDatabase,
    **fleet_kwargs,
) -> Tuple[ShardedDatabase, List[Tuple[int, int]]]:
    """A fleet (plain or HA) loaded with ``n_pairs`` zero-stamped pairs."""
    fleet = fleet_cls(n_shards, **fleet_kwargs)
    fleet.create_table(pairs_schema())
    pairs = place_pairs(n_shards, n_pairs)
    for row_a, row_b in pairs:
        for row_id in (row_a, row_b):
            fleet.execute("INSERT INTO PAIRS (P_ID, P_STAMP) VALUES (?, 0)", [row_id])
    return fleet, pairs


class PairWorkload:
    """Drives transfers and reads over the pairs, recording a history."""

    def __init__(
        self,
        fleet: ShardedDatabase,
        pairs: List[Tuple[int, int]],
        history: Optional[History] = None,
        seed: int = 42,
        reraise_unavailable: bool = False,
    ):
        if not pairs:
            raise ValueError("need at least one pair")
        self.fleet = fleet
        self.client = FleetClient(fleet)
        self.client.connect()
        self.pairs = pairs
        self.history = history if history is not None else History()
        #: re-raise ShardUnavailableError after recording the clean
        #: abort, so a retrying client session can drive the failover
        #: (the crash matrix instead swallows it and moves on)
        self.reraise_unavailable = reraise_unavailable
        self._rng = RngRegistry(seed).stream("ha.pairs")
        self._next_worker = 0
        #: pair index -> last issued version (strictly increasing; an
        #: aborted version is burned, never reissued)
        self._versions: Dict[int, int] = {k: 0 for k in range(len(pairs))}

    def continued_on(self, fleet: ShardedDatabase, seed: int) -> "PairWorkload":
        """This workload's successor on another fleet (a restored one).

        Same pairs and same history -- the checker sees one timeline --
        and the version sequence carries over: versions are strictly
        increasing across the whole timeline, so the restored fleet
        continues the pre-disaster sequence, it does not restart it (a
        restarted sequence would read as lost updates).
        """
        successor = PairWorkload(fleet, self.pairs, history=self.history, seed=seed)
        successor._versions.update(self._versions)
        return successor

    def _pick_worker(self) -> int:
        worker = self._next_worker
        self._next_worker = (self._next_worker + 1) % N_WORKERS
        return worker

    # -- operations ----------------------------------------------------------

    def transfer(self) -> bool:
        """One cross-shard stamp write; True iff the commit was acked.

        Re-raises :class:`SimulatedCrash` (after recording the unknown
        outcome) -- a crash point fired and the caller owns failover.
        """
        worker = self._pick_worker()
        pair = self._rng.randrange(len(self.pairs))
        row_a, row_b = self.pairs[pair]
        self._versions[pair] += 1
        version = self._versions[pair]
        self.history.invoke(worker, "transfer", pair, version=version)
        commit_started = False
        client = self.client
        client.begin(isolation=IsolationLevel.SERIALIZABLE)
        gtid = None
        try:
            client.execute(UPDATE_STAMP, [version, row_a])
            # known once the server has answered: a socket client's
            # begin rides on this first statement
            gtid = client.gtid
            client.execute(UPDATE_STAMP, [version, row_b])
            commit_started = True
            client.commit()
        except ShardUnavailableError:
            # The coordinator survived and aborted everything (prepare-
            # stage participant death, or a statement hit a dead shard):
            # presumed abort guarantees this transfer never happened.
            quiet_rollback(client)
            self.history.fail(worker, "transfer", pair, version=version)
            if self.reraise_unavailable:
                raise
            return False
        except SimulatedCrash:
            # A crash point fired mid-protocol.  If the commit had
            # started the outcome is genuinely unknown until recovery:
            # leave the branches exactly as the protocol left them and
            # only drop the client's affinity.
            if commit_started:
                client.abandon()
                self.history.info(
                    worker, "transfer", pair, version=version, gtid=gtid
                )
            else:
                quiet_rollback(client)
                self.history.fail(worker, "transfer", pair, version=version)
            raise
        except EngineError as error:
            if not error.retryable:
                raise
            quiet_rollback(client)
            self.history.fail(worker, "transfer", pair, version=version)
            return False
        self.history.ok(worker, "transfer", pair, version=version, gtid=gtid)
        return True

    def read(self, worker: Optional[int] = None) -> Optional[Tuple[int, int]]:
        """Read both rows of one pair inside a SERIALIZABLE transaction.

        Returns the observed stamps, or None when the read could not
        run (lock conflict with an in-doubt transfer, shard down).
        """
        if worker is None:
            worker = self._pick_worker()
        pair = self._rng.randrange(len(self.pairs))
        row_a, row_b = self.pairs[pair]
        self.history.invoke(worker, "read", pair)
        client = self.client
        client.begin(isolation=IsolationLevel.SERIALIZABLE)
        try:
            stamp_a = client.execute(SELECT_STAMP, [row_a]).rows[0][0]
            stamp_b = client.execute(SELECT_STAMP, [row_b]).rows[0][0]
        except SimulatedCrash:
            quiet_rollback(client)
            self.history.fail(worker, "read", pair)
            raise
        except ShardUnavailableError:
            quiet_rollback(client)
            self.history.fail(worker, "read", pair)
            if self.reraise_unavailable:
                raise
            return None
        except EngineError as error:
            if not error.retryable:
                raise
            quiet_rollback(client)
            self.history.fail(worker, "read", pair)
            return None
        # Rollback, not commit: releases the S locks without a 2PC round.
        quiet_rollback(client)
        self.history.ok(worker, "read", pair, observed=(stamp_a, stamp_b))
        return (stamp_a, stamp_b)

    def final_stamps(self) -> Dict[int, Tuple[int, int]]:
        """Both stamps of every pair, read after the last recovery pass."""
        out: Dict[int, Tuple[int, int]] = {}
        for pair, (row_a, row_b) in enumerate(self.pairs):
            stamp_a = self.client.execute(SELECT_STAMP, [row_a]).rows[0][0]
            stamp_b = self.client.execute(SELECT_STAMP, [row_b]).rows[0][0]
            out[pair] = (stamp_a, stamp_b)
        return out
