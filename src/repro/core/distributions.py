"""Access distributions for substitution parameters (Section II-B).

Two distributions are supported, as in the paper:

* **uniform** -- keys drawn uniformly over the whole key space.
* **latest-k** -- a skewed distribution produced by restricting the
  access range of ``O_ID``: writers (T2) update ``k`` specific recent
  items and readers (T3) read those same items at random.  The more
  skewed the distribution, the more likely fresh data is read.
"""

from __future__ import annotations

import random
from typing import Protocol


class KeyDistribution(Protocol):
    """Draws substitution-parameter keys from ``[1, key_space]``."""

    def next_key(self) -> int: ...

    @property
    def hot_fraction(self) -> float: ...

    @property
    def hot_keys(self) -> int: ...


class UniformDistribution:
    """Keys drawn uniformly over the full key space."""

    def __init__(self, key_space: int, rng: random.Random):
        if key_space < 1:
            raise ValueError("key space must be >= 1")
        self.key_space = key_space
        self._rng = rng

    def next_key(self) -> int:
        return self._rng.randint(1, self.key_space)

    @property
    def hot_fraction(self) -> float:
        return 0.0

    @property
    def hot_keys(self) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"UniformDistribution(key_space={self.key_space})"


#: share of latest-k accesses that land on the ``k`` newest keys
LATEST_SKEW = 0.9


class LatestDistribution:
    """Latest-``k``: most accesses hit the ``k`` newest keys.

    ``skew`` (:data:`LATEST_SKEW`) is the probability that an access
    targets the hot range; the rest spill uniformly over the whole key
    space.  Latest-10 with the paper's semantics is
    ``LatestDistribution(space, k=10)``.
    """

    skew = LATEST_SKEW

    def __init__(self, key_space: int, k: int, rng: random.Random):
        if key_space < 1 or k < 1:
            raise ValueError("key space and k must be >= 1")
        self.key_space = key_space
        self.k = min(k, key_space)
        self._rng = rng

    def next_key(self) -> int:
        if self._rng.random() < self.skew:
            low = max(1, self.key_space - self.k + 1)
            return self._rng.randint(low, self.key_space)
        return self._rng.randint(1, self.key_space)

    @property
    def hot_fraction(self) -> float:
        return self.skew

    @property
    def hot_keys(self) -> int:
        return self.k

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"LatestDistribution(key_space={self.key_space}, "
            f"k={self.k}, skew={self.skew})"
        )


def make_distribution(
    name: str, key_space: int, rng: random.Random, latest_k: int = 10
) -> KeyDistribution:
    """Factory from config strings: ``"uniform"`` or ``"latest"``/``"latest-N"``."""
    lowered = name.lower()
    if lowered == "uniform":
        return UniformDistribution(key_space, rng)
    if lowered == "latest":
        return LatestDistribution(key_space, latest_k, rng)
    if lowered.startswith("latest-"):
        k = int(lowered.split("-", 1)[1])
        return LatestDistribution(key_space, k, rng)
    raise ValueError(f"unknown distribution {name!r} (use 'uniform' or 'latest[-k]')")
