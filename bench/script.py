"""Input generation: ``(seed, key space) -> transactions``.

A script is a pure function of its seed.  It is made of *blocks* of
:data:`BLOCK` transactions; a block holds the workload's mix exactly
(shuffled by the seed), so counters that depend on the mix -- WAL bytes
and fsyncs per transaction -- barely move from seed to seed, and any
block can be generated on its own, which lets a run generate its input
slice by slice.

No step depends on a result of an earlier one (T2's customer is drawn
up front, as ``ShardSalesWorkload`` does), so one script can be replayed
through a blocking client, an awaiting client or a pipelining one.

A script has *lanes*, one per connection.  Lane ``i`` only names keys
with ``(key - 1) % lanes == i``, so the lanes never touch the same row:
no lock conflict can abort a transaction, and the final ORDERS and
CUSTOMER contents do not depend on how the connections interleave.  T4
only deletes pre-loaded orderlines (ids below every shard's
auto-increment start), so whether a delete hits is a function of the
script too.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.core.sqlreader import SqlStmts
from repro.shard.router import stable_hash
from repro.shard.workload import UPDATE_CUSTOMER, UPDATE_ORDER

#: transactions per block; every block holds the mix exactly
BLOCK = 20

# step verbs
EXECUTE, QUERY, BEGIN, COMMIT = range(4)
# transaction kinds
T1, T2, T3, T4, PAY, CREDIT = range(6)
#: kinds timed as reads; every other kind is a write
READ_KINDS = frozenset({T3, CREDIT})

#: one statement step: (verb, sql, params); sql is None for BEGIN/COMMIT
Step = Tuple[int, Any, Tuple[Any, ...]]
#: one transaction: (kind, steps)
Txn = Tuple[int, Tuple[Step, ...]]

_BEGIN: Step = (BEGIN, None, ())
_COMMIT: Step = (COMMIT, None, ())
#: fixed epoch base keeps generated timestamps reproducible
_EPOCH = 1_700_000_000.0

_STMTS = SqlStmts()
(_T1_INSERT,) = _STMTS.statements("T1")
_T2_SELECT, _T2_UPDATE_ORDER, _T2_UPDATE_CUSTOMER = _STMTS.statements("T2")
(_T3_SELECT,) = _STMTS.statements("T3")
(_T4_DELETE,) = _STMTS.statements("T4")
CREDIT_SELECT = "SELECT C_ID, C_CREDIT FROM customer WHERE C_ID = ?"

#: T1:T2:T3:T4 = 15:5:75:5 -- the paper's RW pattern plus deletions
_SALES_MIX = (T1,) * 3 + (T2,) + (T3,) * 15 + (T4,)
#: 18 payments (9 of them cross-shard) and 2 credit reads
_PAY_MIX = ("cross",) * 9 + ("local",) * 9 + ("read",) * 2


@dataclass(frozen=True)
class KeySpace:
    """How many keys of each table a script may name."""

    orders: int
    customers: int
    #: pre-loaded orderline ids T4 may delete: 1..orderlines
    orderlines: int


def _block_rng(seed: int, lane: int, block: int) -> random.Random:
    return random.Random((seed * 1_000_003 + lane) * 1_000_003 + block)


class SalesScript:
    """The ``sales`` mix over uniform keys."""

    def __init__(self, seed: int, keys: KeySpace, lanes: int = 2):
        self.seed = seed
        self.keys = keys
        self.lanes = lanes

    def txns(self, lane: int, first_block: int, n_blocks: int) -> List[Txn]:
        """Blocks ``first_block .. first_block + n_blocks`` of ``lane``."""
        keys, lanes = self.keys, self.lanes
        out: List[Txn] = []
        for block in range(first_block, first_block + n_blocks):
            rng = _block_rng(self.seed, lane, block)
            kinds = list(_SALES_MIX)
            rng.shuffle(kinds)
            for slot, kind in enumerate(kinds):
                o_id = rng.randrange(lane, keys.orders, lanes) + 1
                if kind == T3:
                    out.append((T3, ((QUERY, _T3_SELECT, (o_id,)),)))
                elif kind == T1:
                    params = (
                        o_id, rng.randint(1, 100_000), rng.randint(1, 10),
                        round(rng.uniform(1, 100), 2),
                    )
                    out.append((T1, ((EXECUTE, _T1_INSERT, params),)))
                elif kind == T2:
                    c_id = rng.randrange(lane, keys.customers, lanes) + 1
                    amount = round(rng.uniform(1, 50), 2)
                    # unique per transaction: position in the whole script
                    now = _EPOCH + ((block * BLOCK + slot) * lanes + lane) * 0.001
                    out.append((T2, (
                        _BEGIN,
                        (EXECUTE, _T2_SELECT, (o_id,)),
                        (EXECUTE, _T2_UPDATE_ORDER, (now, o_id)),
                        (EXECUTE, _T2_UPDATE_CUSTOMER, (amount, now, c_id)),
                        _COMMIT,
                    )))
                else:
                    ol_id = rng.randrange(lane, keys.orderlines, lanes) + 1
                    out.append((T4, ((EXECUTE, _T4_DELETE, (ol_id,)),)))
        return out


def keys_by_shard(n_keys: int, n_shards: int) -> List[List[int]]:
    """Keys ``1..n_keys`` grouped by the shard the fleet's router hashes
    them to (CUSTOMER and ORDERS both partition by primary key)."""
    groups: List[List[int]] = [[] for _ in range(n_shards)]
    for key in range(1, n_keys + 1):
        groups[stable_hash(key) % n_shards].append(key)
    return groups


class PayScript:
    """``ShardSalesWorkload``-shaped payments, half of them cross-shard,
    plus one credit read in ten so that read latency exists here too."""

    lanes = 1

    def __init__(self, seed: int, keys: KeySpace, n_shards: int = 2):
        self.seed = seed
        self.n_shards = n_shards
        self._orders = keys_by_shard(keys.orders, n_shards)
        self._customers = keys_by_shard(keys.customers, n_shards)

    def txns(self, lane: int, first_block: int, n_blocks: int) -> List[Txn]:
        n_shards = self.n_shards
        out: List[Txn] = []
        for block in range(first_block, first_block + n_blocks):
            rng = _block_rng(self.seed, lane, block)
            shapes = list(_PAY_MIX)
            rng.shuffle(shapes)
            for slot, shape in enumerate(shapes):
                shard = rng.randrange(n_shards)
                if shape == "read":
                    c_id = rng.choice(self._customers[shard])
                    out.append((CREDIT, ((QUERY, CREDIT_SELECT, (c_id,)),)))
                    continue
                o_id = rng.choice(self._orders[shard])
                if shape == "cross":
                    shard = (shard + 1 + rng.randrange(n_shards - 1)) % n_shards
                c_id = rng.choice(self._customers[shard])
                amount = round(rng.uniform(1.0, 100.0), 2)
                now = _EPOCH + block * BLOCK + slot
                out.append((PAY, (
                    _BEGIN,
                    (EXECUTE, UPDATE_ORDER, (now, o_id)),
                    (EXECUTE, UPDATE_CUSTOMER, (amount, c_id)),
                    _COMMIT,
                )))
        return out


def interleave(lanes: Sequence[Sequence[Txn]]) -> List[Txn]:
    """One order over all lanes for a single client: round-robin."""
    return [txn for group in zip(*lanes) for txn in group]


def script_hash(txns: Sequence[Txn]) -> str:
    return hashlib.sha256(repr(list(txns)).encode()).hexdigest()


def poisson_dues(
    seed: int, lane: int, first_block: int, count: int, rate: float
) -> List[float]:
    """``count`` arrival times (seconds from the slice's start) of a
    Poisson process of ``rate`` per second; a pure function of the seed
    and the slice's position in the script."""
    rng = _block_rng(seed ^ 0x5EED, lane, first_block)
    at = 0.0
    dues = []
    for _ in range(count):
        at += rng.expovariate(rate)
        dues.append(at)
    return dues
