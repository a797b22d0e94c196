"""Named deterministic random streams.

Every stochastic component draws from its own named stream so that the
addition of a new component never perturbs the draws of existing ones.
Streams are derived from a master seed with a stable hash, which keeps
experiment results reproducible across processes and platforms.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit seed derived from ``master_seed`` and ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Hands out one :class:`random.Random` per stream name."""

    def __init__(self, master_seed: int = 42):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]
