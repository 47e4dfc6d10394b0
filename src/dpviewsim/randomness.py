"""Seeded randomness for the owners' streams and the two simulated servers.

Every word and variate a run uses comes from PCG64's raw 64-bit output, read
in blocks with `random_raw`: NEP 19 fixes that stream across numpy versions,
not the variates numpy's Generator builds from it. So no run builds a
Generator; `RawStream` runs numpy's algorithms on the raw words.

Every protocol run owns one ServerRandomness. Each server contributes words
from its own seeded stream; noise words and sharing words come from separate
substreams so that leakage oracles can replay the noise sequence exactly
without tracking sharing traffic. A run draws its words in pairs, one from
each server's stream, together.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import dpnoise
from .sharing import RING_MASK, RING_SIZE

_BLOCK = 1024  # words drawn per refill of one substream
# numpy's random_loggam: the coefficients of Stirling's series, last first.
_STIRLING = (-1.39243221690590e+00, 1.796443723688307e-01, -2.955065359477124e-02,
             6.410256410256410e-03, -1.917526917526918e-03, 8.417508417508418e-04,
             -5.952380952380952e-04, 7.936507936507937e-04, -2.777777777777778e-03,
             8.333333333333333e-02)


def _raw_blocks(seed, n: int):
    """Endless blocks of n raw 64-bit words of PCG64(seed), as uint64 arrays;
    `seed` is a SeedSequence or the entropy of one."""
    bitgen = np.random.PCG64(seed)
    while True:
        yield bitgen.random_raw(n)


def _words(seed: np.random.SeedSequence):
    """Endless ring words of one substream: raw words' halves, low first, _BLOCK at a time."""
    return itertools.chain.from_iterable(raw.astype("<u8", copy=False).view("<u4").tolist()
                                         for raw in _raw_blocks(seed, _BLOCK // 2))


def _loggam(x: int) -> float:
    """numpy's random_loggam: log Gamma(x) from Stirling's series at x shifted to 7."""
    if x == 1 or x == 2:
        return 0.0
    n = max(0, 7 - x)
    x0 = float(x + n)
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = 0.0
    for a in _STIRLING:
        gl0 = gl0 * x2 + a
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        x0 -= 1.0
        gl -= math.log(x0)
    return gl


class RawStream:
    """numpy Generator's `random`, `integers` and `poisson` on PCG64(seed),
    called in any order, from the raw words.

    A double is a word's top 53 bits. A 32-bit draw is PCG64's `next_uint32`:
    a word's low half, its high half kept for the next 32-bit draw, which
    doubles do not touch. A bounded integer is Lemire's multiply-shift of a
    32-bit draw (arXiv:1805.10941), redrawn while the product's low word is
    below (2**32 - high) % high. A Poisson count is numpy's multiplication
    method below lam = 10 and its PTRS (Hoermann 1993) from 10 up."""

    def __init__(self, seed):
        self._word = itertools.chain.from_iterable(
            raw.tolist() for raw in _raw_blocks(seed, _BLOCK)).__next__
        self._high: int | None = None  # the kept high half

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def integers(self, high: int, size: int | None = None):
        """`size` draws from range(high), 1 <= high <= 2**32, as a list, or one
        int if size is None."""
        if size is None:
            return self.integers(high, 1)[0]
        if high == 1:
            return [0] * size  # numpy draws no word for a one-value range
        threshold = RING_SIZE % high
        next_word, kept, out = self._word, self._high, []
        for _ in range(size):
            while True:
                if kept is None:
                    word = next_word()
                    m, kept = (word & RING_MASK) * high, word >> 32
                else:
                    m, kept = kept * high, None
                if m & RING_MASK >= threshold:
                    break
            out.append(m >> 32)
        self._high = kept
        return out

    def poisson(self, lam: float) -> int:
        if lam >= 10:
            return self._ptrs(lam)
        k, prod, enlam = 0, 1.0, math.exp(-lam)
        while lam and (prod := prod * self.random()) > enlam:  # lam = 0 draws nothing
            k += 1
        return k

    def _ptrs(self, lam: float) -> int:
        """numpy's transformed rejection with squeeze, for lam >= 10."""
        b = 0.931 + 2.53 * math.sqrt(lam)
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        log_invalpha, log_lam = math.log(invalpha), math.log(lam)
        while True:
            u = self.random() - 0.5
            v = self.random()
            us = 0.5 - abs(u)
            # At us = 0, numpy's k is floor(-inf) as an int64: negative, so redrawn.
            k = math.floor((2 * a / us + b) * u + lam + 0.43) if us else -1
            if us >= 0.07 and v <= vr:
                return k
            # numpy's log(0.0) is -inf, so v = 0 accepts.
            if k >= 0 and (us >= 0.013 or v <= us) and (
                    not v or math.log(v) + log_invalpha - math.log(a / (us * us) + b)
                    <= -lam + k * log_lam - _loggam(k + 1)):
                return k


class ServerRandomness:
    """Per-run word streams for servers 0 and 1, plus the reuse guard set.

    The four substreams (noise and sharing words of each server) are spawned
    from SeedSequence(seed) in that order, and each yields the words of scalar
    `integers(RING_SIZE)` draws by numpy's Generator on PCG64(child).
    `noise_pair()` and `share_pair()` each draw a (server 0, server 1) pair
    together: the `__next__` of a `zip` over the two servers' streams.
    """

    def __init__(self, seed: int):
        n0, n1, s0, s1 = np.random.SeedSequence(seed).spawn(4)
        self.noise_pair = zip(_words(n0), _words(n1)).__next__
        self.share_pair = zip(_words(s0), _words(s1)).__next__
        self.seen_pairs: set = set()

    def joint_laplace(self, scale: float) -> float:
        return dpnoise.joint_laplace(*self.noise_pair(), scale)
