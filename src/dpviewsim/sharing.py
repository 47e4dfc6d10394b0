"""XOR-based secret sharing over the 32-bit ring.

Ring values are plain Python ints in [0, 2**32). Values outside the ring are
rejected rather than truncated, so counter words stay bit-exact.
"""

from __future__ import annotations

from typing import NamedTuple

RING_BITS = 32
RING_MASK = (1 << RING_BITS) - 1
RING_SIZE = 1 << RING_BITS


class RandomnessReuse(RuntimeError):
    """A (z0, z1) contribution pair was consumed twice within one protocol run."""


def check_word(x: int, name: str = "value") -> int:
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{name} must be an int, got {type(x).__name__}")
    if not 0 <= x < RING_SIZE:
        raise ValueError(f"{name} out of ring range [0, 2**{RING_BITS}): {x!r}")
    return x


class SharePair(NamedTuple):
    """A 32-bit word split into two XOR shares, one per simulated server."""

    s0: int
    s1: int


def share(x: int, randomness: int) -> SharePair:
    """Split x into (randomness, x XOR randomness)."""
    check_word(x, "x")
    check_word(randomness, "randomness")
    return SharePair(randomness, x ^ randomness)


def recover(p: SharePair) -> int:
    """XOR the two shares back together."""
    return check_word(p.s0, "s0") ^ check_word(p.s1, "s1")


def share_in_protocol(x: int, z0: int, z1: int, seen: set | None = None) -> SharePair:
    """Share x using server-contributed random words z0, z1.

    s0 = z0 XOR z1 and s1 = s0 XOR x, so neither server alone controls or
    predicts the sharing randomness. Each (z0, z1) pair is one-shot: when the
    caller passes the run-scoped `seen` set, a repeated pair raises
    RandomnessReuse.
    """
    check_word(x, "x")
    check_word(z0, "z0")
    check_word(z1, "z1")
    if seen is not None:
        pair = (z0, z1)
        if pair in seen:
            raise RandomnessReuse(f"contribution pair reused within run: {pair}")
        seen.add(pair)
    s0 = z0 ^ z1
    return SharePair(s0, s0 ^ x)
