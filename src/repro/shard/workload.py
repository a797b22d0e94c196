"""Payment-style workloads for the shard fleet.

One transaction shape, run two ways: mark an order paid and credit a
customer account.  With ``cross_ratio = 0`` the customer is chosen on
the same shard as the order (the partition-friendly case every sharded
schema designs for); with ``cross_ratio > 0`` that fraction of
transactions picks the customer on a *different* shard, forcing the
coordinator through full two-phase commit.  Sweeping the ratio is how
the scale-out evaluator prices distributed transactions.

Both workloads speak the transport-agnostic
:class:`~repro.core.client.Client` protocol: by default they build an
in-process :class:`~repro.core.client.FleetClient` /
:class:`~repro.core.client.EngineClient`, but any client with the same
verbs -- notably :class:`repro.serve.client.SocketClient` -- can be
passed in, and the workload (statement sequence, RNG draws, outcome
classification) is byte-identical over the wire.

:class:`LocalShardWorkload` is the same transaction against one
standalone shard -- what each multiprocess load-driver worker runs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.client import Client, EngineClient, FleetClient, quiet_rollback
from repro.engine.database import Database
from repro.engine.errors import EngineError, SimulatedCrash
from repro.sim.rng import RngRegistry, derive_seed
from repro.shard.fleet import ShardedDatabase

#: mark an order paid (routes by O_ID)
UPDATE_ORDER = (
    "UPDATE ORDERS SET O_STATUS = 'PAID', O_UPDATEDDATE = ? WHERE O_ID = ?"
)
#: credit the paying customer (routes by C_ID)
UPDATE_CUSTOMER = "UPDATE CUSTOMER SET C_CREDIT = C_CREDIT + ? WHERE C_ID = ?"

#: fixed epoch base keeps generated timestamps reproducible
_EPOCH = 1_700_000_000.0


def _order_keys(db: Database) -> List[int]:
    index = db.table("ORDERS").schema.primary_key_index
    return sorted(row[index] for _rid, row in db.table("ORDERS").scan())


def _customer_keys(db: Database) -> List[int]:
    index = db.table("CUSTOMER").schema.primary_key_index
    return sorted(row[index] for _rid, row in db.table("CUSTOMER").scan())


class ShardSalesWorkload:
    """Payment transactions against a :class:`ShardedDatabase`."""

    def __init__(
        self,
        fleet: ShardedDatabase,
        cross_ratio: float = 0.0,
        seed: int = 42,
        client: Optional[Client] = None,
    ):
        if not 0.0 <= cross_ratio <= 1.0:
            raise ValueError("cross_ratio must be in [0, 1]")
        self.fleet = fleet
        self.cross_ratio = cross_ratio
        self.client: Client = client if client is not None else FleetClient(fleet)
        self.client.connect()
        self._rng = RngRegistry(seed).stream("shard.workload")
        self._orders = [_order_keys(shard) for shard in fleet.shards]
        self._customers = [_customer_keys(shard) for shard in fleet.shards]
        for shard_id, keys in enumerate(self._orders):
            if not keys or not self._customers[shard_id]:
                raise ValueError(f"shard {shard_id} holds no orders or customers")
        self._now = _EPOCH
        self.committed = 0
        self.aborted = 0
        self.cross_committed = 0

    def run_one(self) -> bool:
        """One payment; returns True on commit, False on (retryable) abort."""
        rng = self._rng
        n_shards = self.fleet.n_shards
        cross = n_shards > 1 and rng.random() < self.cross_ratio
        order_shard = rng.randrange(n_shards)
        order_id = rng.choice(self._orders[order_shard])
        if cross:
            customer_shard = (
                order_shard + 1 + rng.randrange(n_shards - 1)
            ) % n_shards
        else:
            customer_shard = order_shard
        customer_id = rng.choice(self._customers[customer_shard])
        amount = round(rng.uniform(1.0, 100.0), 2)
        self._now += 1.0
        client = self.client
        try:
            client.begin()
            try:
                client.execute(UPDATE_ORDER, [self._now, order_id])
                client.execute(UPDATE_CUSTOMER, [amount, customer_id])
                client.commit()
            except SimulatedCrash:
                # Leave every branch exactly as the protocol left it --
                # fleet crash recovery resolves that dangling state; the
                # client only drops affinity so it can begin() afresh.
                client.abandon()
                raise
            except BaseException:
                quiet_rollback(client)
                raise
        except SimulatedCrash:
            # Not a transaction abort: the coordinator (or a shard) died
            # mid-protocol.  The caller owns fail-over (crash + recover).
            raise
        except EngineError as error:
            if not error.retryable:
                raise
            self.aborted += 1
            return False
        self.committed += 1
        if cross:
            self.cross_committed += 1
        return True


class LocalShardWorkload:
    """The same payment transaction against one standalone shard.

    Key choices replicate the fleet workload's shard-local case: every
    order and customer is drawn from the rows this shard owns, so the
    multiprocess driver measures pure single-shard throughput.
    """

    def __init__(
        self,
        db: Database,
        shard_id: int,
        seed: int = 42,
        client: Optional[Client] = None,
    ):
        self.db = db
        self.client: Client = client if client is not None else EngineClient(db)
        self.client.connect()
        self._rng = RngRegistry(
            derive_seed(seed, f"shard.{shard_id}")
        ).stream("shard.workload")
        self._orders = _order_keys(db)
        self._customers = _customer_keys(db)
        if not self._orders or not self._customers:
            raise ValueError(f"shard {shard_id} holds no orders or customers")
        self._now = _EPOCH
        self.committed = 0
        self.aborted = 0

    def run_one(self) -> bool:
        rng = self._rng
        order_id = rng.choice(self._orders)
        customer_id = rng.choice(self._customers)
        amount = round(rng.uniform(1.0, 100.0), 2)
        self._now += 1.0
        client = self.client
        try:
            client.begin()
            try:
                client.execute(UPDATE_ORDER, [self._now, order_id])
                client.execute(UPDATE_CUSTOMER, [amount, customer_id])
                client.commit()
            except BaseException:
                quiet_rollback(client)
                raise
        except EngineError as error:
            if not error.retryable:
                raise
            self.aborted += 1
            return False
        self.committed += 1
        return True
