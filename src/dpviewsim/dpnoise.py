"""Laplace noise derived jointly from two server-contributed random words.

Both servers feed one uniform 32-bit word into each draw; the XOR of the two
words seeds a log-transform Laplace sample, so neither server alone can
predict or steer the noise. One inverse-CDF sampler, scalar or batched, is the
oracle for the distribution tests and for the reference mechanisms' trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sharing import check_word

_LOW31 = (1 << 31) - 1
_DENOM = (1 << 31) + 1
_MSB = 1 << 31


@dataclass(frozen=True)
class NoiseScale:
    """Sensitivity / epsilon pair; scale of the Laplace distribution."""

    sensitivity: float
    epsilon: float

    def __post_init__(self):
        if self.sensitivity <= 0:
            raise ValueError(f"sensitivity must be positive, got {self.sensitivity}")
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @property
    def scale(self) -> float:
        return self.sensitivity / self.epsilon


def fixed_point(z: int) -> float:
    """Map a ring word to the open interval (0, 1).

    Only the low 31 bits are used; the most-significant bit is reserved for
    the sign. r = (low31 + 1) / (2**31 + 1) is uniform over 2**31 atoms and
    excludes both endpoints.
    """
    check_word(z, "z")
    return ((z & _LOW31) + 1) / _DENOM


def joint_laplace(z0: int, z1: int, scale: NoiseScale) -> float:
    """One Laplace(0, scale) draw from two fresh server words.

    z = z0 XOR z1; the noise is scale * ln(fixed_point(z)), negated when the
    msb of z is clear. msb set means a negative draw (ln r < 0 kept as is).
    Over uniform z the result is Laplace up to 31-bit discretization.
    """
    check_word(z0, "z0")
    check_word(z1, "z1")
    z = z0 ^ z1
    sign = 1.0 if z & _MSB else -1.0
    return scale.scale * math.log(fixed_point(z)) * sign


def laplace_inverse_cdf(u: float | np.ndarray, scale: float) -> float | np.ndarray:
    """Inverse CDF of Laplace(0, scale) at each u in (0, 1)."""
    if not np.all((0.0 < u) & (u < 1.0)):
        raise ValueError(f"u must be in (0,1), got {u}")
    d = u - 0.5
    return -scale * np.sign(d) * np.log1p(-2.0 * np.abs(d))


def laplace_oracle(scale: NoiseScale, rng: np.random.Generator,
                   n: int | tuple[int, ...] | None = None) -> float | np.ndarray:
    """Reference inverse-CDF Laplace draws from a seeded generator: one float,
    or an array of shape n (an int or a tuple)."""
    u = np.array(rng.random(n))
    while (zero := u == 0.0).any():  # keep every u strictly inside (0,1)
        u[zero] = rng.random(int(zero.sum()))
    x = laplace_inverse_cdf(u, scale.scale)
    return x if n is not None else float(x)
