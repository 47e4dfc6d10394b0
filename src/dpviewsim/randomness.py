"""Seeded randomness for the two simulated servers.

Every protocol run owns one ServerRandomness. Each server contributes words
from its own seeded stream; noise words and sharing words come from separate
substreams so that leakage oracles can replay the noise sequence exactly
without tracking sharing traffic. Each substream draws its words in blocks;
numpy fills a block with the same generator calls that one scalar
`integers(RING_SIZE)` draw per word makes, so the word sequence is the same.
"""

from __future__ import annotations

import numpy as np

from . import dpnoise
from .dpnoise import NoiseScale
from .sharing import RING_SIZE

_BLOCK = 1024  # words drawn per refill of one substream


def _words(seed: np.random.SeedSequence):
    """Endless ring words of one substream, drawn _BLOCK at a time."""
    rng = np.random.default_rng(seed)
    while True:
        yield from rng.integers(RING_SIZE, size=_BLOCK).tolist()


class ServerRandomness:
    """Per-run word streams for servers 0 and 1, plus the reuse guard set.

    The four substreams (noise and sharing words of each server) are spawned
    from SeedSequence(seed) in that order, and each yields the words that
    scalar `default_rng(child).integers(RING_SIZE)` calls would.
    """

    def __init__(self, seed: int):
        n0, n1, s0, s1 = np.random.SeedSequence(seed).spawn(4)
        self._noise0, self._noise1 = _words(n0), _words(n1)
        self._share0, self._share1 = _words(s0), _words(s1)
        self.seen_pairs: set = set()

    def noise_pair(self) -> tuple[int, int]:
        return next(self._noise0), next(self._noise1)

    def share_pair(self) -> tuple[int, int]:
        return next(self._share0), next(self._share1)

    def joint_laplace(self, scale: NoiseScale) -> float:
        return dpnoise.joint_laplace(*self.noise_pair(), scale)


class SeededLaplace:
    """Classical inverse-CDF Laplace source for statistical use."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def laplace(self, scale: NoiseScale) -> float:
        return dpnoise.laplace_oracle(scale, self._rng)

