"""Deterministic counter-based random streams.

Every stochastic choice in the library goes through :class:`Rng`, keyed by a
(seed, stream) pair. Identical keys give identical draw sequences, and
distinct streams never interfere, so work can be sharded across streams
without changing any result.
"""
from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Rng:
    """Counter-based generator; one instance owns one (seed, stream) pair."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self, size=None):
        """Uniform draw(s) in [0, 1)."""
        return self._gen.random(size)

    def gaussian(self, size=None):
        """Standard normal draw(s)."""
        return self._gen.standard_normal(size)

    def integers(self, low: int, high: int, size=None):
        """Integer draw(s) in [low, high)."""
        return self._gen.integers(low, high, size=size)
