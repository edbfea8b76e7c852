"""Deterministic named random streams.

Every stochastic decision in the simulation (packet loss, backoff jitter,
broadcast stagger, philosopher victim choice, ...) draws from a *named*
stream so that adding a new consumer of randomness never perturbs the draws
seen by existing consumers.  Streams are derived from the master seed and
the stream name only.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def chance(self, name: str, probability: float) -> bool:
        """True with the given probability (0 disables the draw entirely)."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self.stream(name).random() < probability
