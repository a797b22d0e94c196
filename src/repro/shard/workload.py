"""Payment-style workloads for the shard fleet.

One transaction shape, run two ways: mark an order paid and credit a
customer account.  With ``cross_ratio = 0`` the customer is chosen on
the same shard as the order (the partition-friendly case every sharded
schema designs for); with ``cross_ratio > 0`` that fraction of
transactions picks the customer on a *different* shard, forcing the
coordinator through full two-phase commit.  Sweeping the ratio is how
the scale-out evaluator prices distributed transactions.

The workload speaks the transport-agnostic
:class:`~repro.core.client.Client` protocol and draws its keys from the
shard databases it is bound to: a fleet supplies ``fleet.shards`` and a
:class:`~repro.core.client.FleetClient` (or any client with the same
verbs -- notably :class:`repro.serve.client.SocketClient`, over which
statement sequence, RNG draws and outcome classification are
byte-identical); a multiprocess load-driver worker supplies its one
standalone shard and an :class:`~repro.core.client.EngineClient`
(:meth:`ShardSalesWorkload.on_shard`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

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


def primary_keys(db: Database, table: str) -> List[int]:
    """The sorted primary keys of the rows ``db`` holds of ``table``."""
    index = db.table(table).schema.primary_key_index
    return sorted(row[index] for _rid, row in db.table(table).scan())


class ShardSalesWorkload:
    """Payment transactions over a fleet's shards, through one client."""

    def __init__(
        self,
        fleet: ShardedDatabase,
        cross_ratio: float = 0.0,
        seed: int = 42,
        client: Optional[Client] = None,
    ):
        if not 0.0 <= cross_ratio <= 1.0:
            raise ValueError("cross_ratio must be in [0, 1]")
        self._bind(
            dict(enumerate(fleet.shards)),
            client if client is not None else FleetClient(fleet),
            cross_ratio, seed,
        )

    @classmethod
    def on_shard(
        cls, db: Database, shard_id: int, seed: int = 42
    ) -> "ShardSalesWorkload":
        """The workload of one multiprocess worker: a standalone shard.

        Every order and customer is drawn from the rows this shard owns
        (the fleet workload's shard-local case), on the worker's own
        seed stream, so the driver measures pure single-shard throughput.
        """
        workload = cls.__new__(cls)
        workload._bind(
            {shard_id: db}, EngineClient(db), 0.0,
            derive_seed(seed, f"shard.{shard_id}"),
        )
        return workload

    def _bind(
        self,
        shards: Dict[int, Database],
        client: Client,
        cross_ratio: float,
        seed: int,
    ) -> None:
        self.cross_ratio = cross_ratio
        self.client = client
        client.connect()
        self._rng = RngRegistry(seed).stream("shard.workload")
        self._orders = [primary_keys(db, "ORDERS") for db in shards.values()]
        self._customers = [primary_keys(db, "CUSTOMER") for db in shards.values()]
        for shard_id, orders, customers in zip(
            shards, self._orders, self._customers
        ):
            if not orders or not customers:
                raise ValueError(f"shard {shard_id} holds no orders or customers")
        self._now = _EPOCH
        self.committed = 0
        self.aborted = 0
        self.cross_committed = 0

    def run_one(self) -> bool:
        """One payment; returns True on commit, False on (retryable) abort."""
        rng = self._rng
        n_shards = len(self._orders)
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
