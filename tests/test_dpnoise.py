import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from dpviewsim.dpnoise import fixed_point, joint_laplace

from oracles import laplace_inverse_cdf, laplace_oracle

_HALF = 1 << 31


def joint_laplace_many(z0: np.ndarray, z1: np.ndarray, scale: float) -> np.ndarray:
    """Vectorized joint_laplace over arrays of uint32 words, for the
    distribution tests; checked word for word against joint_laplace."""
    z = (np.asarray(z0, dtype=np.uint64) ^ np.asarray(z1, dtype=np.uint64)).astype(np.int64)
    r = ((z & (_HALF - 1)) + 1) / (_HALF + 1)
    sign = np.where(z & _HALF, 1.0, -1.0)
    return scale * np.log(r) * sign


def test_fixed_point_endpoints():
    # Direct evaluation of ((z mod 2^31) + 1) / (2^31 + 1).
    assert fixed_point(0) == pytest.approx(1 / (_HALF + 1))
    assert fixed_point(0) == pytest.approx(4.656612873077393e-10, rel=1e-6)
    assert fixed_point(_HALF - 1) == pytest.approx(_HALF / (_HALF + 1))
    assert 0.0 < fixed_point(0) and fixed_point((1 << 32) - 1) < 1.0


def test_fixed_point_ignores_sign_bit():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = int(rng.integers(_HALF))
        assert fixed_point(z) == fixed_point(z + _HALF)


def test_joint_laplace_negative_unit_draw():
    # Low bits chosen so fixed_point(z) is as close to e^-1 as the grid allows;
    # with the msb set the draw lands at -sensitivity/epsilon.
    low = round(math.exp(-1) * (_HALF + 1)) - 1
    z = _HALF | low
    scale = 10 / 1.5
    noise = joint_laplace(z, 0, scale)
    assert noise == pytest.approx(-10 / 1.5, abs=1e-5)
    assert noise == pytest.approx(-6.667, abs=1e-3)


def test_joint_laplace_self_cancellation():
    # z0 == z1 collapses to z=0: msb clear, most negative log, positive sign.
    scale = 1.0
    expected = -math.log(fixed_point(0)) * 1.0
    for z in (0, 123456789, 0xFFFFFFFF):
        assert joint_laplace(z, z, scale) == pytest.approx(expected)
    assert expected > 21  # maximal-magnitude draw


def test_joint_laplace_moments():
    rng = np.random.default_rng(2024)
    n = 100_000
    z0 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    z1 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    draws = joint_laplace_many(z0, z1, 1.0)
    assert -0.02 < draws.mean() < 0.02
    assert 1.9 < draws.var() < 2.1


def test_vectorized_sampler_matches_protocol_sampler():
    # The distribution tests run joint_laplace_many; the protocol draws with
    # joint_laplace. They must agree word for word (np.log and math.log may
    # differ in the last bits, hence the tolerance).
    rng = np.random.default_rng(59)
    edges = [0, 1, _HALF - 1, _HALF, (1 << 32) - 1]
    z0 = rng.integers(1 << 32, size=10_000, dtype=np.uint64).tolist()
    z1 = rng.integers(1 << 32, size=10_000, dtype=np.uint64).tolist()
    z0 += [a for a in edges for _ in edges]
    z1 += [b for _ in edges for b in edges]
    scale = 3 / 0.7
    many = joint_laplace_many(np.array(z0, dtype=np.uint64),
                              np.array(z1, dtype=np.uint64), scale)
    one = np.array([joint_laplace(a, b, scale) for a, b in zip(z0, z1)])
    np.testing.assert_allclose(many, one, rtol=1e-12, atol=0)


def test_sign_frequency_balanced():
    rng = np.random.default_rng(17)
    n = 100_000
    z0 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    z1 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    draws = joint_laplace_many(z0, z1, 1.0)
    neg = (draws < 0).mean()
    assert abs(neg - 0.5) < 0.01


def test_sign_symmetry_by_msb_flip():
    rng = np.random.default_rng(31)
    scale = 3 / 2
    for _ in range(500):
        z = int(rng.integers(1 << 32))
        flipped = z ^ _HALF
        assert joint_laplace(z, 0, scale) == pytest.approx(
            -joint_laplace(flipped, 0, scale))


def test_scale_linearity_exact():
    rng = np.random.default_rng(43)
    base = 1.0
    for k in (2, 4, 8):
        scaled = float(k)
        for _ in range(200):
            z0, z1 = int(rng.integers(1 << 32)), int(rng.integers(1 << 32))
            assert joint_laplace(z0, z1, scaled) == k * joint_laplace(z0, z1, base)


def test_determinism():
    scale = 10 / 1.5
    a = joint_laplace(0x12345678, 0x9ABCDEF0, scale)
    b = joint_laplace(0x12345678, 0x9ABCDEF0, scale)
    assert a == b


def test_inverse_cdf_median_and_unit_quantile():
    assert laplace_inverse_cdf(0.5, 3.0) == 0.0
    u = 0.5 + 0.5 * (1 - math.exp(-1))
    assert laplace_inverse_cdf(u, 3.0) == pytest.approx(3.0)
    assert laplace_inverse_cdf(u, 1.0) == pytest.approx(1.0)


def test_oracle_seeded_reproducible():
    scale = 1.0
    assert (laplace_oracle(scale, np.random.default_rng(99))
            == laplace_oracle(scale, np.random.default_rng(99)))


class FirstUniformZero:
    """Generator stub: every uniform of its first call is 0.0, later ones 0.25."""

    def __init__(self):
        self.calls = 0

    def random(self, size=None):
        self.calls += 1
        u = 0.0 if self.calls == 1 else 0.25
        return u if size is None else np.full(size, u)


@pytest.mark.parametrize("n", [None, (3,)])
def test_oracle_redraws_a_zero_uniform(n):
    # u = 0 lies outside the inverse CDF's open interval (it maps to -inf);
    # the oracle draws it again, scalar and batched alike.
    rng = FirstUniformZero()
    draws = laplace_oracle(2.0, rng, n)
    assert rng.calls == 2
    assert np.shape(draws) == (() if n is None else n)
    assert np.all(np.isfinite(draws))
    np.testing.assert_array_equal(draws, laplace_inverse_cdf(0.25, 2.0))


def test_joint_vs_oracle_ks():
    n = 100_000
    rng = np.random.default_rng(77)
    z0 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    z1 = rng.integers(1 << 32, size=n, dtype=np.uint64)
    joint = joint_laplace_many(z0, z1, 1.0)
    oracle = laplace_oracle(1.0, np.random.default_rng(78), n)
    stat, _ = ks_2samp(joint, oracle)
    assert stat < 0.01
