"""XOR-based secret sharing over the 32-bit ring.

Ring values are plain Python ints in [0, 2**32). Values outside the ring are
rejected rather than truncated, so counter words stay bit-exact. Hot paths
accept words by one chained `type(w) is int and 0 <= w < RING_SIZE` test; if
it fails, `check_word` on each word in turn raises the first error it finds.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

RING_BITS = 32
RING_MASK = (1 << RING_BITS) - 1
RING_SIZE = 1 << RING_BITS


class RandomnessReuse(RuntimeError):
    """A (z0, z1) contribution pair was consumed twice within one protocol run."""


def check_word(x: int, name: str = "value") -> int:
    if type(x) is int and 0 <= x < RING_SIZE:
        return x
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{name} must be an int, got {type(x).__name__}")
    if not 0 <= x < RING_SIZE:
        raise ValueError(f"{name} out of ring range [0, 2**{RING_BITS}): {x!r}")
    return x


class SharePair(NamedTuple):
    """A 32-bit word split into two XOR shares, one per simulated server."""

    s0: int
    s1: int


# _share_pair((s0, s1)) builds a SharePair without its generated Python-level __new__.
_share_pair = functools.partial(tuple.__new__, SharePair)


def recover(p: SharePair) -> int:
    """XOR the two shares back together."""
    s0, s1 = p.s0, p.s1
    if not (type(s0) is int and 0 <= s0 < RING_SIZE and type(s1) is int and 0 <= s1 < RING_SIZE):
        check_word(s0, "s0")
        check_word(s1, "s1")
    return s0 ^ s1


def share_in_protocol(x: int, z0: int, z1: int, seen: set) -> SharePair:
    """Share x using server-contributed random words z0, z1.

    s0 = z0 XOR z1 and s1 = s0 XOR x, so neither server alone controls or
    predicts the sharing randomness. Each (z0, z1) pair is one-shot: a pair
    already in the run-scoped `seen` set raises RandomnessReuse.
    """
    if not (type(x) is int and 0 <= x < RING_SIZE and type(z0) is int and 0 <= z0 < RING_SIZE
            and type(z1) is int and 0 <= z1 < RING_SIZE):
        check_word(x, "x")
        check_word(z0, "z0")
        check_word(z1, "z1")
    pair = (z0, z1)
    if pair in seen:
        raise RandomnessReuse(f"contribution pair reused within run: {pair}")
    seen.add(pair)
    s0 = z0 ^ z1
    return _share_pair((s0, s0 ^ x))
