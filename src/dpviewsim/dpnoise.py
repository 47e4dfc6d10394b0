"""Laplace noise derived jointly from two server-contributed random words.

Both servers feed one uniform 32-bit word into each draw; the XOR of the two
words seeds a log-transform Laplace sample, so neither server alone can
predict or steer the noise. The inverse-CDF Laplace oracle that the
distribution tests and the reference mechanisms' trials draw from lives in
tests/oracles.
"""

from __future__ import annotations

import math

from .sharing import RING_SIZE, check_word

_LOW31 = (1 << 31) - 1
_DENOM = (1 << 31) + 1
_MSB = 1 << 31


def fixed_point(z: int) -> float:
    """Map a ring word to the open interval (0, 1).

    Only the low 31 bits are used; the most-significant bit is reserved for
    the sign. r = (low31 + 1) / (2**31 + 1) is uniform over 2**31 atoms and
    excludes both endpoints.
    """
    check_word(z, "z")
    return ((z & _LOW31) + 1) / _DENOM


def joint_laplace(z0: int, z1: int, scale: float) -> float:
    """One Laplace(0, scale) draw from two fresh server words.

    z = z0 XOR z1; the noise is scale * ln(fixed_point(z)), negated when the
    msb of z is clear. msb set means a negative draw (ln r < 0 kept as is).
    Over uniform z the result is Laplace up to 31-bit discretization.
    """
    if not (type(z0) is int and 0 <= z0 < RING_SIZE and type(z1) is int and 0 <= z1 < RING_SIZE):
        check_word(z0, "z0")
        check_word(z1, "z1")
    z = z0 ^ z1
    sign = 1.0 if z & _MSB else -1.0
    return scale * math.log(fixed_point(z)) * sign
