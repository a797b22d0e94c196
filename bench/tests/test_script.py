"""The script generator: pure, seeded, exact mix, disjoint lanes."""

from collections import Counter

from bench.script import (
    BLOCK,
    CREDIT,
    PAY,
    T1,
    T2,
    T3,
    T4,
    KeySpace,
    PayScript,
    SalesScript,
    interleave,
    keys_by_shard,
    poisson_dues,
    script_hash,
)

KEYS = KeySpace(orders=600, customers=600, orderlines=5_400)


def test_same_seed_same_script_new_seed_new_script():
    first = SalesScript(7, KEYS).txns(0, 0, 10)
    again = SalesScript(7, KEYS).txns(0, 0, 10)
    other = SalesScript(8, KEYS).txns(0, 0, 10)
    assert script_hash(first) == script_hash(again)
    assert script_hash(first) != script_hash(other)
    pay = PayScript(7, KEYS)
    assert script_hash(pay.txns(0, 3, 4)) == script_hash(PayScript(7, KEYS).txns(0, 3, 4))
    assert script_hash(pay.txns(0, 3, 4)) != script_hash(PayScript(9, KEYS).txns(0, 3, 4))


def test_blocks_can_be_generated_on_their_own():
    script = SalesScript(3, KEYS)
    whole = script.txns(1, 0, 6)
    assert whole[2 * BLOCK:4 * BLOCK] == script.txns(1, 2, 2)


def test_every_block_holds_the_mix_exactly():
    sales = SalesScript(5, KEYS).txns(0, 0, 50)
    for start in range(0, len(sales), BLOCK):
        kinds = Counter(kind for kind, _steps in sales[start:start + BLOCK])
        assert kinds == {T1: 3, T2: 1, T3: 15, T4: 1}
    pay = PayScript(5, KEYS).txns(0, 0, 50)
    for start in range(0, len(pay), BLOCK):
        kinds = Counter(kind for kind, _steps in pay[start:start + BLOCK])
        assert kinds == {PAY: 18, CREDIT: 2}


def test_payments_are_half_cross_shard():
    orders = {k: s for s, keys in enumerate(keys_by_shard(KEYS.orders, 2)) for k in keys}
    customers = {
        k: s for s, keys in enumerate(keys_by_shard(KEYS.customers, 2)) for k in keys
    }
    payments = [steps for kind, steps in PayScript(1, KEYS).txns(0, 0, 20) if kind == PAY]
    cross = sum(
        1 for steps in payments
        if orders[steps[1][2][1]] != customers[steps[2][2][1]]
    )
    assert cross * 2 == len(payments)


def test_lanes_never_name_the_same_key():
    script = SalesScript(11, KEYS, lanes=2)
    seen = []
    for lane in range(2):
        keys = set()
        for kind, steps in script.txns(lane, 0, 40):
            if kind == T2:
                keys.add(("ORDERS", steps[1][2][0]))
                keys.add(("CUSTOMER", steps[3][2][2]))
            elif kind == T4:
                keys.add(("ORDERLINE", steps[0][2][0]))
            else:
                keys.add(("ORDERS", steps[0][2][0]))
        seen.append(keys)
    assert not seen[0] & seen[1]
    assert all(1 <= key <= KEYS.orderlines for table, key in seen[0] | seen[1]
               if table == "ORDERLINE")


def test_interleave_keeps_each_lanes_order():
    script = SalesScript(2, KEYS)
    lanes = [script.txns(lane, 0, 2) for lane in range(2)]
    merged = interleave(lanes)
    assert merged[0::2] == lanes[0] and merged[1::2] == lanes[1]


def test_arrival_schedule_is_seeded_and_increasing():
    dues = poisson_dues(4, 0, 10, 500, rate=1000.0)
    assert dues == poisson_dues(4, 0, 10, 500, rate=1000.0)
    assert dues != poisson_dues(5, 0, 10, 500, rate=1000.0)
    assert all(a < b for a, b in zip(dues, dues[1:]))
    assert 0.35 < dues[-1] < 0.65  # 500 arrivals at 1000/s
