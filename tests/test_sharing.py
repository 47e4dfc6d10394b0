import numpy as np
import pytest
from scipy.stats import chi2_contingency

from dpviewsim.sharing import (RandomnessReuse, SharePair, recover, share,
                               share_in_protocol)


def test_share_zero_case():
    assert share(0, 0) == SharePair(0, 0)


def test_share_forced_by_definition():
    assert share(0xDEADBEEF, 0xFFFFFFFF) == SharePair(0xFFFFFFFF, 0x21524110)


def test_recover_zero_and_bit_pattern():
    assert recover(SharePair(0, 0)) == 0
    assert recover(SharePair(0xAAAAAAAA, 0x55555555)) == 0xFFFFFFFF


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x = int(rng.integers(1 << 32))
        r = int(rng.integers(1 << 32))
        assert recover(share(x, r)) == x


def test_out_of_ring_rejected():
    with pytest.raises(ValueError):
        share(1 << 32, 0)
    with pytest.raises(ValueError):
        share(5, -1)
    with pytest.raises(TypeError):
        share(1.5, 0)


def test_share_in_protocol_forced_values():
    p = share_in_protocol(5, 3, 0)
    assert p == SharePair(3, 6)
    assert recover(p) == 5


def test_share_in_protocol_zero_recovers():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z0, z1 = int(rng.integers(1 << 32)), int(rng.integers(1 << 32))
        assert recover(share_in_protocol(0, z0, z1)) == 0


def test_share_in_protocol_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x, z0, z1 = (int(rng.integers(1 << 32)) for _ in range(3))
        assert recover(share_in_protocol(x, z0, z1)) == x


def test_share_in_protocol_reuse_detected():
    seen = set()
    share_in_protocol(1, 10, 20, seen=seen)
    share_in_protocol(1, 10, 21, seen=seen)
    with pytest.raises(RandomnessReuse):
        share_in_protocol(2, 10, 20, seen=seen)


def test_uniform_marginals():
    # With uniform randomness each share's bits are unbiased.
    rng = np.random.default_rng(41)
    n = 100_000
    xs = rng.integers(1 << 32, size=n, dtype=np.uint64)
    rs = rng.integers(1 << 32, size=n, dtype=np.uint64)
    s1 = xs ^ rs  # second share; first share is rs itself
    for shares in (rs, s1):
        for bit in range(32):
            freq = ((shares >> np.uint64(bit)) & np.uint64(1)).mean()
            assert abs(freq - 0.5) < 0.01, f"bit {bit} frequency {freq}"


def test_strict_subsets_indistinguishable():
    # Either share of a protocol sharing alone cannot separate two fixed
    # messages. Fixed seed: two comparisons at significance 0.01 would
    # otherwise flag a null-true run about once in fifty suites.
    rng = np.random.default_rng(61)
    msg_a, msg_b = 0, 0xFFFFFFFF
    trials = 10_000
    samples = {m: ([], []) for m in (msg_a, msg_b)}
    for _ in range(trials):
        for m in (msg_a, msg_b):
            # fresh server contributions per sharing, as in a real run
            z0, z1 = (int(rng.integers(1 << 32)) for _ in range(2))
            for server, value in enumerate(share_in_protocol(m, z0, z1)):
                samples[m][server].append(value & 0xF)  # low nibble, 16 bins
    for server in (0, 1):
        counts_a = np.bincount(samples[msg_a][server], minlength=16)
        counts_b = np.bincount(samples[msg_b][server], minlength=16)
        _, p, _, _ = chi2_contingency(np.vstack([counts_a, counts_b]))
        assert p > 0.01, f"share {server} distinguishable (p={p})"
