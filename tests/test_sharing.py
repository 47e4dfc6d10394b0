import enum

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from dpviewsim.dpnoise import NoiseScale, joint_laplace
from dpviewsim.sharing import (RING_MASK, RING_SIZE, RandomnessReuse, SharePair, check_word,
                               recover, share_in_protocol)

# With z1 = 0 a protocol sharing of x is (z0, x XOR z0): the plain sharing of
# x with randomness z0, so these vectors are the plain sharing's.


def test_share_zero_case():
    assert share_in_protocol(0, 0, 0, set()) == SharePair(0, 0)


def test_share_forced_by_definition():
    assert share_in_protocol(0xDEADBEEF, 0xFFFFFFFF, 0, set()) == \
        SharePair(0xFFFFFFFF, 0x21524110)


def test_recover_zero_and_bit_pattern():
    assert recover(SharePair(0, 0)) == 0
    assert recover(SharePair(0xAAAAAAAA, 0x55555555)) == 0xFFFFFFFF


def test_round_trip_identity():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        x = int(rng.integers(1 << 32))
        r = int(rng.integers(1 << 32))
        assert recover(share_in_protocol(x, r, 0, set())) == x


def test_out_of_ring_rejected():
    # check_word guards the value and each server word.
    with pytest.raises(ValueError, match="^x "):
        share_in_protocol(1 << 32, 0, 0, set())
    with pytest.raises(ValueError, match="^z0 "):
        share_in_protocol(5, -1, 0, set())
    with pytest.raises(TypeError, match="^x "):
        share_in_protocol(1.5, 0, 0, set())
    with pytest.raises(ValueError):
        check_word(1 << 32, "x")
    with pytest.raises(ValueError):
        check_word(-1, "randomness")
    with pytest.raises(TypeError):
        check_word(1.5, "x")


class Word(int):
    pass


def test_check_word_paths():
    # An exact int in the ring returns at once; every other input is checked
    # by type, then by range, with the errors it always had.
    for x in (0, 7, RING_MASK, Word(7)):
        assert check_word(x) is x
    for x, err in ((True, TypeError), (1.0, TypeError), (np.int64(3), TypeError),
                   (-1, ValueError), (RING_SIZE, ValueError), (Word(RING_SIZE), ValueError)):
        with pytest.raises(err, match="^w "):
            check_word(x, "w")


# The functions that accept their words with one chained test, each called
# with 7 for every word but those given by name.
_CHECKED = {
    "share_in_protocol": (lambda x=7, z0=7, z1=8: share_in_protocol(x, z0, z1, set()),
                          ("x", "z0", "z1")),
    "recover": (lambda s0=7, s1=7: recover(SharePair(s0, s1)), ("s0", "s1")),
    "joint_laplace": (lambda z0=7, z1=7: joint_laplace(z0, z1, NoiseScale(1, 1)), ("z0", "z1")),
}
_BAD_WORDS = (-1, RING_SIZE, True, 7.0, "7", np.uint32(7))


def _error(call) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as err:
        call()
    return type(err.value), str(err.value)


@pytest.mark.parametrize("bad", _BAD_WORDS, ids=repr)
@pytest.mark.parametrize("fn", sorted(_CHECKED))
def test_checked_words_raise_what_check_word_raises(fn, bad):
    call, names = _CHECKED[fn]
    for i, name in enumerate(names):
        want = _error(lambda: check_word(bad, name))
        assert _error(lambda: call(**{name: bad})) == want
        # With two bad words, the first one's error wins.
        for later in names[i + 1:]:
            assert _error(lambda: call(**{name: bad, later: "later"})) == want


class Level(enum.IntEnum):
    SEVEN = 7


def test_checked_words_accept_an_int_subclass_in_the_ring():
    assert share_in_protocol(Level.SEVEN, 7, Level.SEVEN, set()) == share_in_protocol(7, 7, 7, set())
    assert recover(SharePair(Level.SEVEN, 1)) == 6
    scale = NoiseScale(1, 1)
    assert joint_laplace(Level.SEVEN, 9, scale) == joint_laplace(7, 9, scale)
    with pytest.raises(AttributeError):
        recover((7, 1))  # the shares are read by name


def test_share_in_protocol_forced_values():
    p = share_in_protocol(5, 3, 0, set())
    assert p == SharePair(3, 6)
    assert recover(p) == 5


def test_share_in_protocol_zero_recovers():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z0, z1 = int(rng.integers(1 << 32)), int(rng.integers(1 << 32))
        assert recover(share_in_protocol(0, z0, z1, set())) == 0


def test_share_in_protocol_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        x, z0, z1 = (int(rng.integers(1 << 32)) for _ in range(3))
        assert recover(share_in_protocol(x, z0, z1, set())) == x


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
            for server, value in enumerate(share_in_protocol(m, z0, z1, set())):
                samples[m][server].append(value & 0xF)  # low nibble, 16 bins
    for server in (0, 1):
        counts_a = np.bincount(samples[msg_a][server], minlength=16)
        counts_b = np.bincount(samples[msg_b][server], minlength=16)
        _, p, _, _ = chi2_contingency(np.vstack([counts_a, counts_b]))
        assert p > 0.01, f"share {server} distinguishable (p={p})"
