"""Only writers pay for durability: what each transaction shape costs.

Every number here is an exact integer the program counts itself --
fsync points, WAL records, PREPARE / DECISION records and the
coordinator's ``single_commits`` / ``cross_commits`` -- so a shape that
starts paying for a flush or a protocol round it does not need fails
by name.  A transaction that logged no data record commits without a
flush; a 2PC branch that logged none votes read-only and leaves the
protocol; only two or more *writers* run 2PC, and the lowest of them,
the last agent, logs no PREPARE -- and only its DECISION is forced.
"""

import pytest

from repro.core.client import EngineClient, FleetClient
from repro.core.datagen import load_sales_database
from repro.core.sqlreader import SqlStmts
from repro.engine.txn import IsolationLevel
from repro.engine.wal import LogKind
from repro.shard import load_sales_fleet
from repro.shard.workload import UPDATE_CUSTOMER, UPDATE_ORDER, primary_keys

from tests.shard.test_2pc import load_keys
from tests.shard.test_router import kv_fleet

_STMTS = SqlStmts()
(T1_INSERT,) = _STMTS.statements("T1")
T2_SELECT, T2_UPDATE_ORDER, T2_UPDATE_CUSTOMER = _STMTS.statements("T2")
(T3_SELECT,) = _STMTS.statements("T3")
(T4_DELETE,) = _STMTS.statements("T4")
CREDIT_SELECT = "SELECT C_ID, C_CREDIT FROM customer WHERE C_ID = ?"
NOW = 1_700_000_000.0


class _Rig:
    """Engines, the client in front of them, and the keys a shape needs."""

    def __init__(self, engines, client, coordinator=None):
        self.engines = engines
        self.client = client
        self.coordinator = coordinator
        self.orders = [primary_keys(db, "ORDERS") for db in engines]
        self.customers = [primary_keys(db, "CUSTOMER") for db in engines]
        self.orderlines = [primary_keys(db, "ORDERLINE") for db in engines]

    def order_paid_from(self, same_shard):
        """An order on shard 0 whose customer is (not) on shard 0 --
        read off the heap, so choosing it logs nothing."""
        orders = self.engines[0].table("ORDERS")
        c_id = orders.schema.column_index("O_C_ID")
        home = set(self.customers[0])
        return next(
            o_id for o_id in self.orders[0]
            if (orders.read_by_key(o_id)[c_id] in home) is same_shard
        )

    def _counters(self):
        coordinator = self.coordinator
        return (
            sum(db.wal.fsyncs for db in self.engines),
            coordinator.single_commits if coordinator else 0,
            coordinator.cross_commits if coordinator else 0,
        )

    def cost(self, shape):
        """``(fsyncs, WAL records, single_commits, cross_commits,
        PREPAREs, DECISIONs)`` of running ``shape`` once."""
        tails = [db.wal.last_lsn for db in self.engines]
        before = self._counters()
        shape(self)
        fsyncs, single, cross = (
            after - was for after, was in zip(self._counters(), before)
        )
        kinds = [
            record.kind
            for db, tail in zip(self.engines, tails)
            for record in db.wal.records_from(tail + 1)
        ]
        return (
            fsyncs, len(kinds), single, cross,
            kinds.count(LogKind.PREPARE), kinds.count(LogKind.DECISION),
        )


def _inline():
    db, _data = load_sales_database(row_scale=0.001)
    return _Rig([db], EngineClient(db))


def _fleet():
    fleet, _data = load_sales_fleet(2, row_scale=0.001, seed=42, name="cost")
    return _Rig(fleet.shards, FleetClient(fleet), fleet.coordinator)


# -- the shapes (each takes the rig it runs on) --------------------------------


def t1(rig):
    rig.client.execute(T1_INSERT, [rig.orders[0][0], 7, 1, 9.5])


def _t2(rig, o_id):
    client = rig.client
    client.begin()
    (row,) = client.execute(T2_SELECT, [o_id]).rows
    client.execute(T2_UPDATE_ORDER, [NOW, o_id])
    client.execute(T2_UPDATE_CUSTOMER, [5.0, NOW, row[1]])
    client.commit()


def t2(rig):
    _t2(rig, rig.orders[0][0])


def t2_same_shard(rig):
    _t2(rig, rig.order_paid_from(same_shard=True))


def t2_other_shard(rig):
    _t2(rig, rig.order_paid_from(same_shard=False))


def t3(rig):
    assert rig.client.query(T3_SELECT, [rig.orders[0][0]]).rows


def t4_hit(rig):
    assert rig.client.execute(T4_DELETE, [rig.orderlines[-1][0]]).rowcount == 1


def t4_miss(rig):
    assert rig.client.execute(T4_DELETE, [10**9]).rowcount == 0


def _payment(rig, customer_shard):
    client = rig.client
    client.begin()
    client.execute(UPDATE_ORDER, [NOW, rig.orders[0][0]])
    client.execute(UPDATE_CUSTOMER, [5.0, rig.customers[customer_shard][0]])
    client.commit()


def local_payment(rig):
    _payment(rig, 0)


def cross_payment(rig):
    _payment(rig, 1)


def credit_read(rig):
    assert rig.client.query(CREDIT_SELECT, [rig.customers[1][0]]).rows


def cross_shard_read_only(rig):
    """The HA ``PairWorkload.read`` shape, committed instead of rolled
    back: S locks on two shards, nothing logged on either."""
    client = rig.client
    client.begin(isolation=IsolationLevel.SERIALIZABLE)
    for customers in rig.customers:
        assert client.query(CREDIT_SELECT, [customers[0]]).rows
    client.commit()


#: (rig, shape) -> (fsyncs, records, single, cross, PREPAREs, DECISIONs)
SHAPES = [
    (_inline, t1, (1, 3, 0, 0, 0, 0)),
    (_inline, t2, (1, 4, 0, 0, 0, 0)),
    (_inline, t3, (0, 2, 0, 0, 0, 0)),
    (_inline, t4_hit, (1, 3, 0, 0, 0, 0)),
    (_inline, t4_miss, (0, 2, 0, 0, 0, 0)),
    # autocommit statements that route to one shard bypass the coordinator
    (_fleet, t1, (1, 3, 0, 0, 0, 0)),
    (_fleet, t2_same_shard, (1, 4, 1, 0, 0, 0)),
    # two writers flush twice: the last agent's DECISION and the other's
    # PREPARE (its DECISION and both COMMITs ride unflushed)
    (_fleet, t2_other_shard, (2, 9, 0, 1, 1, 2)),
    (_fleet, t3, (0, 2, 0, 0, 0, 0)),
    # the fan-out delete enlists both shards; at most one of them wrote
    (_fleet, t4_hit, (1, 5, 1, 0, 0, 0)),
    (_fleet, t4_miss, (0, 4, 1, 0, 0, 0)),
    (_fleet, local_payment, (1, 4, 1, 0, 0, 0)),
    (_fleet, cross_payment, (2, 9, 0, 1, 1, 2)),
    (_fleet, credit_read, (0, 2, 0, 0, 0, 0)),
    (_fleet, cross_shard_read_only, (0, 4, 1, 0, 0, 0)),
]


@pytest.mark.parametrize(
    "make_rig, shape, expected", SHAPES,
    ids=[f"{rig.__name__[1:]}-{shape.__name__}" for rig, shape, _ in SHAPES],
)
def test_cost_per_transaction_shape(make_rig, shape, expected):
    assert make_rig().cost(shape) == expected


def test_two_writers_and_a_reader_run_2pc_over_the_writers_only():
    fleet = kv_fleet(3)
    by_shard = load_keys(fleet)
    tails = [shard.wal.last_lsn for shard in fleet.shards]
    before = fleet.fsyncs
    with fleet.begin(isolation=IsolationLevel.SERIALIZABLE) as gtxn:
        for keys in by_shard[:2]:
            fleet.execute("UPDATE kv SET V = ? WHERE K = ?", [7, keys[0]], gtxn=gtxn)
        fleet.query("SELECT V FROM kv WHERE K = ?", [by_shard[2][0]], gtxn=gtxn)
        assert gtxn.participants == [0, 1, 2]
    kinds = [
        [record.kind.value for record in shard.wal.records_from(tail + 1)]
        for shard, tail in zip(fleet.shards, tails)
    ]
    last_agent = ["begin", "update", "decision", "commit"]
    writer = ["begin", "update", "prepare", "decision", "commit"]
    assert kinds == [last_agent, writer, ["begin", "commit"]]
    # the last agent flushes its DECISION, the other writer its PREPARE;
    # that writer's DECISION (behind its PREPARE), the reader, and every
    # COMMIT, nothing
    assert fleet.fsyncs - before == 1 + 1
    assert fleet.shards[2].wal.fsyncs == len(by_shard[2])  # its loading inserts
    coordinator = fleet.coordinator
    assert (coordinator.single_commits, coordinator.cross_commits) == (0, 1)
    assert not fleet.shards[2].locks._held_by_txn
