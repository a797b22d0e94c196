"""What the outputs must be: a row model kept beside the program.

The oracle starts from the ORDERS and CUSTOMER rows the loader produced
and applies each scripted transaction to plain dicts.  It checks every
statement result as the run goes (slice by slice, outside the timed
section) and the tables' final contents at the end.  Because a script's
lanes never share a row, the model needs no notion of interleaving: any
order that keeps each lane's own order gives the same answers.

ORDERLINE ids are minted per shard, so its *contents* differ between the
inline and the sharded tiers by design; the oracle checks its row count
(loaded + inserted - deleted) and every delete's hit or miss.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from bench.script import CREDIT, EXECUTE, PAY, QUERY, T1, T2, T3, T4, Txn

# column positions in the sales schema
_O_C_ID, _O_DATE, _O_STATUS, _O_TOTAL, _O_UPDATED = 1, 2, 3, 4, 5
_C_CREDIT, _C_UPDATED = 2, 4

_MAX_MESSAGES = 5


def statement_count(txn: Txn) -> int:
    return sum(1 for verb, _sql, _params in txn[1] if verb in (EXECUTE, QUERY))


class Oracle:
    """Expected state of the sales tables under a replayed script."""

    def __init__(
        self,
        orders: Iterable[Sequence[Any]],
        customers: Iterable[Sequence[Any]],
        orderlines: int,
    ):
        self.orders: Dict[int, List[Any]] = {row[0]: list(row) for row in orders}
        self.customers: Dict[int, List[Any]] = {
            row[0]: list(row) for row in customers
        }
        self.orderlines = orderlines
        self._deleted: set = set()
        self.credited = 0.0
        self._credit_at_start = sum(
            row[_C_CREDIT] for row in self.customers.values()
        )
        self.checked = 0
        self.skipped = 0
        self.mismatches = 0
        self.messages: List[str] = []

    def _expect(self, what: str, got: Any, want: Any) -> None:
        if got != want:
            self.mismatches += 1
            if len(self.messages) < _MAX_MESSAGES:
                self.messages.append(f"{what}: got {got!r}, expected {want!r}")

    def check(self, txns: Sequence[Txn], results: Sequence[Any]) -> None:
        """Apply ``txns`` in order and compare each statement's result.

        ``results`` holds one entry per EXECUTE/QUERY step, in step
        order; a transaction that failed carries ``None`` entries and is
        skipped (it rolled back, so the model must not move).
        """
        at = 0
        for txn in txns:
            kind, steps = txn
            n = statement_count(txn)
            got = results[at:at + n]
            at += n
            if any(result is None for result in got):
                self.skipped += 1
                continue
            self.checked += 1
            if kind == T3:
                o_id = steps[0][2][0]
                row = self.orders[o_id]
                self._expect(
                    f"T3 order {o_id}", got[0].rows,
                    [(o_id, row[_O_DATE], row[_O_STATUS])],
                )
            elif kind == T1:
                self._expect("T1 rowcount", got[0].rowcount, 1)
                self.orderlines += 1
            elif kind == T4:
                ol_id = steps[0][2][0]
                hit = 0 if ol_id in self._deleted else 1
                self._expect(f"T4 orderline {ol_id}", got[0].rowcount, hit)
                self._deleted.add(ol_id)
                self.orderlines -= hit
            elif kind == T2:
                o_id = steps[1][2][0]
                amount, now, c_id = steps[3][2]
                order = self.orders[o_id]
                self._expect(
                    f"T2 order {o_id}", got[0].rows,
                    [(o_id, order[_O_C_ID], order[_O_TOTAL], order[_O_UPDATED])],
                )
                self._expect("T2 order rowcount", got[1].rowcount, 1)
                self._expect("T2 customer rowcount", got[2].rowcount, 1)
                order[_O_STATUS] = "PAID"
                order[_O_UPDATED] = now
                customer = self.customers[c_id]
                customer[_C_CREDIT] += amount
                customer[_C_UPDATED] = now
                self.credited += amount
            elif kind == PAY:
                now, o_id = steps[1][2]
                amount, c_id = steps[2][2]
                self._expect("payment order rowcount", got[0].rowcount, 1)
                self._expect("payment customer rowcount", got[1].rowcount, 1)
                order = self.orders[o_id]
                order[_O_STATUS] = "PAID"
                order[_O_UPDATED] = now
                self.customers[c_id][_C_CREDIT] += amount
                self.credited += amount
            elif kind == CREDIT:
                c_id = steps[0][2][0]
                self._expect(
                    f"credit of customer {c_id}", got[0].rows,
                    [(c_id, self.customers[c_id][_C_CREDIT])],
                )
            else:
                raise ValueError(f"unknown transaction kind {kind!r}")
        if at != len(results):
            raise ValueError(
                f"{len(results)} results for {at} scripted statements"
            )

    def check_final(
        self,
        orders: Iterable[Sequence[Any]],
        customers: Iterable[Sequence[Any]],
        orderlines: int,
    ) -> None:
        """Compare the tables' committed contents with the model."""
        for name, rows, model in (
            ("ORDERS", orders, self.orders),
            ("CUSTOMER", customers, self.customers),
        ):
            got: Dict[int, Tuple[Any, ...]] = {row[0]: tuple(row) for row in rows}
            self._expect(f"{name} row count", len(got), len(model))
            for key, want in model.items():
                if got.get(key) != tuple(want):
                    self._expect(f"{name} row {key}", got.get(key), tuple(want))
            if name == "CUSTOMER":
                # sums in another order than the updates ran: compare to
                # a cent, not to the bit
                credited = sum(row[_C_CREDIT] for row in got.values())
                credited -= self._credit_at_start
                if abs(credited - self.credited) > 0.005:
                    self._expect("sum of C_CREDIT deltas", credited, self.credited)
        self._expect("ORDERLINE row count", orderlines, self.orderlines)

    @property
    def ok(self) -> bool:
        return self.mismatches == 0
