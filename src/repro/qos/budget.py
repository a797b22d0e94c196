"""Retry budgets: token buckets that keep retries from amplifying load.

Without a budget, a fleet of clients configured for ``max_attempts=4``
turns a server brownout into up to 4x the offered load -- the retry
storm that tips an overloaded system into collapse.  A
:class:`RetryBudget` (the Finagle/Envoy ``retry_budget`` design) deposits
a *fraction* of a token per first attempt and spends a whole token per
retry, so sustained retry traffic is capped at ``deposit_ratio`` of the
request rate no matter what the retry policy allows.
"""

from __future__ import annotations

__all__ = ["RetryBudget"]


class RetryBudget:
    """Token bucket bounding retries to a fraction of requests.

    * each *first* attempt deposits ``deposit_ratio`` tokens (capped at
      ``max_tokens``),
    * each retry spends one token; when the bucket is empty the retry is
      denied and ``exhausted`` is counted.

    ``min_tokens`` is the initial balance: a small reserve so the first
    few failures of a quiet session may still retry.
    """

    def __init__(
        self,
        deposit_ratio: float = 0.1,
        min_tokens: float = 2.0,
        max_tokens: float = 10.0,
    ):
        if not 0.0 <= deposit_ratio <= 1.0:
            raise ValueError("deposit_ratio must be in [0, 1]")
        if min_tokens < 0 or max_tokens < min_tokens:
            raise ValueError("need 0 <= min_tokens <= max_tokens")
        self.deposit_ratio = deposit_ratio
        self.max_tokens = max_tokens
        self.tokens = min_tokens
        self.deposits = 0
        self.spends = 0
        self.exhausted = 0

    def record_request(self) -> None:
        """A first attempt happened: deposit a fractional token."""
        self.deposits += 1
        self.tokens = min(self.max_tokens, self.tokens + self.deposit_ratio)

    def try_spend(self) -> bool:
        """Spend one token for one retry; False when exhausted."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spends += 1
            return True
        self.exhausted += 1
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RetryBudget {self.tokens:.2f}/{self.max_tokens:g} tokens, "
            f"{self.exhausted} exhausted>"
        )
