"""Seeded randomness for the two simulated servers.

Every protocol run owns one ServerRandomness. Each server contributes words
from its own seeded stream; noise words and sharing words come from separate
substreams so that leakage oracles can replay the noise sequence exactly
without tracking sharing traffic.
"""

from __future__ import annotations

import numpy as np

from . import dpnoise
from .dpnoise import NoiseScale
from .sharing import RING_SIZE


class ServerRandomness:
    """Per-run word streams for servers 0 and 1, plus the reuse guard set."""

    def __init__(self, seed: int):
        n0, n1, s0, s1 = np.random.SeedSequence(seed).spawn(4)
        self._noise = (np.random.default_rng(n0), np.random.default_rng(n1))
        self._share = (np.random.default_rng(s0), np.random.default_rng(s1))
        self.seen_pairs: set = set()

    def noise_pair(self) -> tuple[int, int]:
        return (int(self._noise[0].integers(RING_SIZE)),
                int(self._noise[1].integers(RING_SIZE)))

    def share_pair(self) -> tuple[int, int]:
        return (int(self._share[0].integers(RING_SIZE)),
                int(self._share[1].integers(RING_SIZE)))

    def joint_laplace(self, scale: NoiseScale) -> float:
        return dpnoise.joint_laplace(*self.noise_pair(), scale)


class SeededLaplace:
    """Classical inverse-CDF Laplace source for statistical use."""

    def __init__(self, seed: int | np.random.Generator):
        self._rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

    def laplace(self, scale: NoiseScale) -> float:
        return dpnoise.laplace_oracle(scale, self._rng)


class ScriptedNoise:
    """Fixed noise sequence for pinned-randomness traces in tests."""

    def __init__(self, values, default: float | None = None):
        self._values = list(values)
        self._default = default

    def laplace(self, scale: NoiseScale) -> float:
        if self._values:
            return self._values.pop(0)
        if self._default is None:
            raise RuntimeError("scripted noise exhausted")
        return self._default
